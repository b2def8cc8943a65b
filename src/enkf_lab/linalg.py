"""Dense symmetric/PSD linear algebra kernels shared by the filters.

Conventions used throughout the package:

* a "SymMatrix" is a plain ``numpy.ndarray`` that is exactly symmetric
  (``M[i, j] == M[j, i]``); :func:`symmetrize` is the constructor that
  enforces this by averaging with the transpose,
* eigenvalues are reported in descending order,
* positive definiteness means ``lambda_min > 1e-12 * max(1, lambda_max)``.

LAPACK (via numpy/scipy) does the factorizations; this module owns the
operator definitions, the ordering/sign conventions, and the error model.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

__all__ = [
    "NotPositiveDefinite",
    "DimensionMismatch",
    "symmetrize",
    "is_positive_definite",
    "lowrank_loewner_ratio",
    "kalman_gain",
    "kalman_update_operator",
    "positive_part_factor",
    "eigh_desc",
]

# Relative eigenvalue floor below which a symmetric matrix counts as singular.
PD_RTOL = 1e-12


class NotPositiveDefinite(ValueError):
    """A matrix required to be positive definite is not."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


def _as_square(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    return M


def _dense(M) -> np.ndarray:
    """``M`` as a dense float array; a scipy.sparse matrix is densified."""
    if scipy.sparse.issparse(M):
        return np.asarray(M.todense(), dtype=float)
    return np.asarray(M, dtype=float)


def _diag_or_none(M):
    """Diagonal of ``M`` when ``M`` (dense or sparse) is exactly diagonal,
    else None. Sparse input is checked in O(d + nnz), dense in O(d^2)."""
    if scipy.sparse.issparse(M):
        diag = np.asarray(M.diagonal(), dtype=float)
        off = M.count_nonzero() - np.count_nonzero(diag)
        return diag if off == 0 else None
    M = np.asarray(M, dtype=float)
    diag = np.diag(M).copy()
    return diag if np.count_nonzero(M - np.diag(diag)) == 0 else None


def symmetrize(M) -> np.ndarray:
    """Return the exactly symmetric part ``(M + M.T) / 2``."""
    M = _as_square(M)
    return 0.5 * (M + M.T)


def eigh_desc(M) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition with descending eigenvalues.

    Eigenvectors are sign-canonicalized (first component of magnitude
    above 1e-12 made positive) so repeated calls on identical input give
    identical output. Exact eigenvalue ties keep LAPACK's deterministic
    internal order, which is stable for identical input bits.
    """
    M = _as_square(M)
    w, V = np.linalg.eigh(M)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    # each column's first entry above 1e-12 in magnitude (row 0 when there
    # is none, whose entry then cannot be below -1e-12)
    lead = V[np.argmax(np.abs(V) > 1e-12, axis=0), np.arange(V.shape[1])]
    flip = lead < -1e-12
    V[:, flip] = -V[:, flip]
    return w, V


def _gram_keep(g, K: int) -> np.ndarray:
    """Mask of the eigenvalues ``g`` of a K-column factor's Gram that lie
    above roundoff, ``g_i > K eps max(g)``.

    The null directions of an exactly rank-deficient factor leave Gram
    eigenvalues of order eps max(g); their square roots, the factor's
    singular values, sit near 1e-8 of the largest, so a cut on those
    would keep them.
    """
    return g > K * np.finfo(float).eps * float(np.max(g, initial=0.0))


def is_positive_definite(M) -> bool:
    """Check PD under the package eigenvalue-floor convention."""
    M = _as_square(M)
    w = np.linalg.eigvalsh(M)
    return bool(w[0] > PD_RTOL * max(1.0, float(w[-1])))


def _cho(C, name: str):
    # cho_factor raises LinAlgError for indefinite input; map to our error
    try:
        return scipy.linalg.cho_factor(C, lower=True, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NotPositiveDefinite(f"{name} is not positive definite") from exc


def lowrank_loewner_ratio(a: float, F, b: float, G) -> float:
    """Smallest ``lam >= 0`` with ``B <= lam * A`` in the Loewner order, for
    ``B = a I + F F.T`` and ``A = b I + G G.T``: the largest generalized
    eigenvalue of the pencil ``(B, A)``, clamped at zero.

    ``F`` is d x f and ``G`` d x g, with ``a >= 0`` and ``b > 0``. On an
    orthonormal basis ``Q`` of ``span[F, G]`` both reduce exactly to k x k
    matrices, from ``Q.T [F, G]``, the ``R`` of a QR factorization (``Q`` is
    never formed); off it the ratio is ``a / b``. When ``f + g`` reaches d,
    ``Q = I``. O(d k^2 + k^3) work, no d x d matrix while ``k < d``.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    if F.ndim != 2 or G.ndim != 2 or F.shape[0] != G.shape[0]:
        raise DimensionMismatch(f"F is {F.shape}, G is {G.shape}")
    if not b > 0:
        raise NotPositiveDefinite("b must be positive")
    d, f = F.shape
    if f + G.shape[1] < d:
        R = np.linalg.qr(np.hstack((F, G)), mode="r")
        F, G = R[:, :f], R[:, f:]
    return _pencil_top(a, F @ F.T, b, G @ G.T, F.shape[0] < d)


def _pencil_top(a: float, P, b: float, Q, rest: bool) -> float:
    """Top eigenvalue of the k x k pencil ``(a I + P, b I + Q)`` for exactly
    symmetric ``P`` and ``Q`` (products ``F @ F.T``), clamped at zero;
    ``rest`` adds ``a / b``, the ratio off the span it lives on. A
    non-finite pencil raises ValueError."""
    k = P.shape[0]
    w = np.empty(0)
    if k:  # LAPACK's sygvd, as scipy.linalg.eigh calls it, at a fifth of its per-call cost
        eye = np.eye(k)
        w, _, info = scipy.linalg.lapack.dsygvd(a * eye + P, b * eye + Q, jobz="N")
        if info or not np.isfinite(w).all():
            raise ValueError("the Loewner pencil is not finite")
    return float(max(w.max(initial=a / b if rest else 0.0), 0.0))


def _two_sided_ratios(F, G, a: float, b: float, c: float) -> tuple[float, float]:
    """Loewner ratios of ``a I + F F.T`` to ``b I + G G.T`` and of
    ``c I + G G.T`` to ``c I + F F.T`` (``b, c > 0``) from one reduction of
    ``span[F, G]``: the k x k Gram's eigenpairs, cut by :func:`_gram_keep`,
    give coordinates ``sqrt(g) Phi.T`` on an orthonormal basis of the span
    (a stack at least d wide is its own). A cut moves the pencils by up to
    ``k eps max(g)``, which ``a I`` bounds when ``a > 0``; ratios without
    that term take :func:`lowrank_loewner_ratio`'s QR.
    """
    d, f = F.shape
    k = f + G.shape[1]
    if k < d:
        M = np.hstack((F, G))
        g, Phi = np.linalg.eigh(M.T @ M)
        if not np.isfinite(g).all():  # the cut would drop them unseen
            raise ValueError("the stack [F, G] is not finite")
        keep = _gram_keep(g, k)
        M = np.sqrt(g[keep])[:, None] * Phi[:, keep].T
        F, G = M[:, :f], M[:, f:]
    P, Q = F @ F.T, G @ G.T
    rest = F.shape[0] < d
    return _pencil_top(a, P, b, Q, rest), _pencil_top(c, Q, c, P, rest)


def kalman_gain(C, H) -> np.ndarray:
    """Gain ``G = C H.T (I_q + H C H.T)^{-1}`` for unit observation noise."""
    C = _as_square(C, "C")
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[1] != C.shape[0]:
        raise DimensionMismatch(f"H is {H.shape}, C is {C.shape}")
    q = H.shape[0]
    CHt = C @ H.T
    M = symmetrize(np.eye(q) + H @ CHt)
    cf = _cho(M, "I + H C H.T")
    return scipy.linalg.cho_solve(cf, CHt.T, check_finite=False).T


def _gain_and_update(C, H) -> tuple[np.ndarray, np.ndarray]:
    """The gain ``G`` of :func:`kalman_gain` and the posterior covariance
    map :func:`kalman_update_operator` builds from it, from one
    factorization of ``I + H C H.T``: a step that moves its mean by ``G``
    and its covariance by ``K(C)`` takes both from here."""
    C = _as_square(C, "C")
    G = kalman_gain(C, H)
    d = C.shape[0]
    ImGH = np.eye(d) - G @ np.asarray(H, dtype=float)
    return G, symmetrize(ImGH @ C @ ImGH.T + G @ G.T)


def kalman_update_operator(C, H) -> np.ndarray:
    """Posterior covariance map ``K(C) = C - G H C`` in Joseph form.

    The Joseph form ``(I - G H) C (I - G H).T + G G.T`` keeps the result
    PSD for PSD input even when ``C`` is singular.
    """
    return _gain_and_update(C, H)[1]


def _scaled_identity_coeff(H, d: int):
    """Return ``eta`` if ``H`` equals ``eta * I_d`` (eta > 0), else None.

    Sparse inputs are checked in O(d + nnz); dense inputs in O(d^2).
    """
    if H is None or np.shape(H) != (d, d):
        return None
    diag = _diag_or_none(H)
    if diag is None:
        return None
    eta = diag[0]
    if eta <= 0 or np.any(diag != eta):
        return None
    return float(eta)


def positive_part_factor(M) -> tuple[np.ndarray, np.ndarray]:
    """Low-rank factor of the PSD part: ``(U, s)`` with part = U diag(s) U.T.

    ``s`` holds only the strictly positive eigenvalues. Diagonal input
    (dense with zero off-diagonal, or sparse) is handled in O(d) without
    an eigensolve and yields a sparse selector ``U``, so that applying the
    factor stays O(d) as well. Non-finite input raises ValueError: the cut
    ``s > 0`` would otherwise drop it unseen.
    """
    if not scipy.sparse.issparse(M):
        M = _as_square(M)
    diag = _diag_or_none(M)
    values = diag if diag is not None else _dense(M)
    if not np.isfinite(values).all():
        raise ValueError("positive_part_factor: the matrix has non-finite entries")
    if diag is not None:
        idx = np.nonzero(diag > 0.0)[0]
        U = scipy.sparse.csr_matrix(
            (np.ones(idx.size), (idx, np.arange(idx.size))), shape=(M.shape[0], idx.size)
        )
        return U, diag[idx]
    w, V = np.linalg.eigh(symmetrize(values))
    pos = w > 0.0
    return V[:, pos], w[pos]
