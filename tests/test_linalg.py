"""Tests for the PSD kernel layer: gains, ratios, eigenpairs, factors."""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from enkf_lab.linalg import (
    DimensionMismatch,
    NotPositiveDefinite,
    _two_sided_ratios,
    eigh_desc,
    is_positive_definite,
    kalman_gain,
    kalman_update_operator,
    lowrank_loewner_ratio,
    positive_part_factor,
    symmetrize,
)

from oracles import (
    SingularInnerSolve,
    condition_number,
    factor_matrix,
    gain_apply_woodbury,
    loewner_ratio,
    mahalanobis_sq,
    make_gain_context,
    positive_part,
)


def rand_psd(rng, d, rank=None):
    rank = d if rank is None else rank
    F = rng.standard_normal((d, rank))
    return F @ F.T / rank


def rand_pd(rng, d):
    return rand_psd(rng, d) + 0.1 * np.eye(d)


def test_symmetrize_exact():
    M = np.array([[1.0, 2.0], [0.0, 3.0]])
    S = symmetrize(M)
    assert np.array_equal(S, S.T)
    assert S[0, 1] == 1.0


def test_eigh_desc_descending_and_canonical():
    rng = np.random.default_rng(0)
    M = rand_pd(rng, 7)
    w, V = eigh_desc(M)
    assert np.all(np.diff(w) <= 0)
    np.testing.assert_allclose(V @ np.diag(w) @ V.T, M, atol=1e-10)
    w2, V2 = eigh_desc(M.copy())
    assert np.array_equal(w, w2) and np.array_equal(V, V2)
    for j in range(V.shape[1]):
        nz = np.nonzero(np.abs(V[:, j]) > 1e-12)[0]
        assert V[nz[0], j] > 0


def eigh_desc_loop(M):
    """The retired per-column sign loop of eigh_desc, kept as its oracle."""
    w, V = np.linalg.eigh(M)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    for j in range(V.shape[1]):
        col = V[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            V[:, j] = -col
    return w, V


def tiny_leading_entries(rng, d, lead):
    """Symmetric matrix whose eigenvectors have row 0 entries of size ``lead``.

    Row 0 is decoupled (exact zeros in every other eigenvector), then
    rotated into row 1 by an angle of ``lead``.
    """
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    Q[0, :] = 0.0
    Q[:, 0] = 0.0
    Q[0, 0] = 1.0
    Q[1:, 1:] = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))[0]
    c, s = np.cos(lead), np.sin(lead)
    G = np.eye(d)
    G[:2, :2] = [[c, -s], [s, c]]
    Q = G @ Q
    return symmetrize(Q @ np.diag(rng.uniform(-2.0, 2.0, d)) @ Q.T)


def test_eigh_desc_matches_sign_loop_bitwise():
    rng = np.random.default_rng(12)
    cases = [rand_psd(rng, 40, rank=rng.integers(1, 41)) for _ in range(10)]
    cases += [symmetrize(rng.standard_normal((d, d))) for d in (1, 2, 7, 25)]
    cases += [tiny_leading_entries(rng, 6, lead) for lead in (0.0, 3e-13, 1e-12, 5e-12)]
    cases += [-tiny_leading_entries(rng, 9, 0.0), np.zeros((4, 4)), np.eye(3)]
    for M in cases:
        w, V = eigh_desc(M)
        w0, V0 = eigh_desc_loop(M)
        assert w.tobytes() == w0.tobytes()
        assert V.tobytes() == V0.tobytes()


def test_mahalanobis_against_dense_inverse():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = rng.integers(1, 12)
        C = rand_pd(rng, d)
        v = rng.standard_normal(d)
        want = float(v @ np.linalg.inv(C) @ v)
        np.testing.assert_allclose(mahalanobis_sq(v, C), want, rtol=1e-9)


def test_mahalanobis_identity_is_norm():
    v = np.array([3.0, 4.0])
    assert mahalanobis_sq(v, np.eye(2)) == pytest.approx(25.0)


def test_mahalanobis_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        mahalanobis_sq(np.ones(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_mahalanobis_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        mahalanobis_sq(np.ones(3), np.eye(2))


def test_loewner_ratio_against_congruence():
    # reference: lam_max of A^{-1/2} B A^{-1/2}
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = rng.integers(1, 10)
        A = rand_pd(rng, d)
        B = rand_psd(rng, d)
        wA, VA = np.linalg.eigh(A)
        Am12 = VA @ np.diag(wA**-0.5) @ VA.T
        want = float(np.linalg.eigvalsh(Am12 @ B @ Am12)[-1])
        got = loewner_ratio(B, A)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        # certificate: lam A - B is PSD up to roundoff
        assert np.linalg.eigvalsh(got * A - B)[0] >= -1e-9 * max(1, got)


def test_loewner_ratio_scalar_examples():
    assert loewner_ratio(2 * np.eye(3), np.eye(3)) == pytest.approx(2.0)
    assert loewner_ratio(np.zeros((2, 2)), np.eye(2)) == pytest.approx(0.0)


def test_loewner_ratio_requires_pd_base():
    with pytest.raises(NotPositiveDefinite):
        loewner_ratio(np.eye(2), np.zeros((2, 2)))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**6))
def test_loewner_ratio_scaling_property(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    A = rand_pd(rng, d)
    B = rand_psd(rng, d)
    c = float(rng.uniform(0.1, 10.0))
    base = loewner_ratio(B, A)
    np.testing.assert_allclose(loewner_ratio(c * B, A), c * base, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(loewner_ratio(B, c * A), base / c, rtol=1e-9, atol=1e-12)


def low_rank(rng, d, k):
    """d x k factor of rank at most k, sometimes deficient."""
    if k and rng.random() < 0.3:
        return rng.standard_normal((d, 1)) @ rng.standard_normal((1, k))
    return rng.standard_normal((d, k)) * rng.uniform(0.1, 3.0)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10**6))
def test_lowrank_loewner_ratio_matches_dense(seed):
    # stacked width f + g below d (QR basis, or the Gram's cut coordinates)
    # and at or above d (Q = I)
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 13))
    f, g = (int(x) for x in rng.integers(0, d + 4, size=2))
    F, G = low_rank(rng, d, f), low_rank(rng, d, g)
    a = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.01, 2.0))
    b = float(rng.uniform(0.05, 2.0))
    want = loewner_ratio(a * np.eye(d) + F @ F.T, b * np.eye(d) + G @ G.T)
    got = lowrank_loewner_ratio(a, F, b, G)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-13)
    if a > 0:  # the Gram kernel's cut is bounded by the a I term
        c = float(rng.uniform(0.05, 2.0))
        mu = loewner_ratio(c * np.eye(d) + G @ G.T, c * np.eye(d) + F @ F.T)
        got = _two_sided_ratios(F, G, a, b, c)
        np.testing.assert_allclose(got, (want, mu), rtol=1e-8, atol=1e-13)


def test_lowrank_loewner_ratio_complement_and_errors():
    d = 5
    none = np.empty((d, 0))
    assert lowrank_loewner_ratio(0.3, none, 0.6, none) == 0.5
    # F and G share one direction, where the ratio is 2.01 / 2; the
    # complement's a / b = 2 dominates
    F = np.zeros((d, 1))
    F[1, 0] = 0.1
    G = np.zeros((d, 1))
    G[1, 0] = 1.0
    assert lowrank_loewner_ratio(2.0, F, 1.0, G) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(NotPositiveDefinite):
        lowrank_loewner_ratio(1.0, F, 0.0, G)
    with pytest.raises(DimensionMismatch):
        lowrank_loewner_ratio(1.0, F, 1.0, np.zeros((d + 1, 1)))
    # a non-finite factor raises, below d wide and at d wide, where both
    # pencils take the stack's rows
    nan = np.full((d, 1), np.nan)
    with pytest.raises(ValueError):
        lowrank_loewner_ratio(1.0, nan, 1.0, G)
    for wide in (G, np.hstack((G, np.eye(d)))):
        with pytest.raises(ValueError):
            _two_sided_ratios(nan, wide, 1.0, 1.0, 1.0)


def test_kalman_gain_identity():
    # (I - G H) = (I + C H.T H)^{-1}
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = int(rng.integers(1, 10))
        q = int(rng.integers(1, d + 1))
        C = rand_psd(rng, d)
        H = rng.standard_normal((q, d))
        G = kalman_gain(C, H)
        left = np.eye(d) - G @ H
        right = np.linalg.inv(np.eye(d) + C @ H.T @ H)
        np.testing.assert_allclose(left, right, atol=1e-9)


def test_kalman_update_operator_joseph_matches_direct():
    rng = np.random.default_rng(4)
    for _ in range(25):
        d = int(rng.integers(1, 10))
        q = int(rng.integers(1, d + 1))
        C = rand_pd(rng, d)
        H = rng.standard_normal((q, d))
        G = kalman_gain(C, H)
        direct = C - G @ H @ C
        K = kalman_update_operator(C, H)
        np.testing.assert_allclose(K, direct, atol=1e-9)
        assert np.linalg.eigvalsh(K)[0] >= -1e-12


def test_kalman_update_operator_monotone_in_C():
    # K preserves the Loewner order, checked on random pairs
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = 5
        C1 = rand_psd(rng, d)
        C2 = C1 + rand_psd(rng, d)  # C2 >= C1
        H = rng.standard_normal((3, d))
        K1 = kalman_update_operator(C1, H)
        K2 = kalman_update_operator(C2, H)
        assert np.linalg.eigvalsh(K2 - K1)[0] >= -1e-9


def _dense_gain(S_hat, H, tau_rho):
    d, K = S_hat.shape
    H = np.asarray(H.todense()) if scipy.sparse.issparse(H) else np.asarray(H, float)
    C = S_hat @ S_hat.T / (K - 1) + tau_rho * np.eye(d)
    q = H.shape[0]
    return C @ H.T @ np.linalg.inv(np.eye(q) + H @ C @ H.T)


@pytest.mark.parametrize("structured", [False, True])
def test_woodbury_gain_matches_dense(structured):
    # dense and sparse H, with q > K and q <= K (the first q <= K draw on
    # the boundary q == K)
    rng = np.random.default_rng(6)
    for i in range(40):
        sparse = i % 2 == 1
        q_le_K = i % 4 >= 2
        K = int(rng.integers(2, 12))
        if q_le_K:
            q = K if i == 2 else int(rng.integers(1, K + 1))
        else:
            q = int(rng.integers(K + 1, 30))
        if structured:
            d = q
            eta = float(rng.uniform(0.3, 3.0))
            H = eta * (scipy.sparse.identity(d, format="csr") if sparse else np.eye(d))
        else:
            d = int(rng.integers(1, 30))
            H = rng.standard_normal((q, d))
            if sparse:
                H = scipy.sparse.csr_matrix(H * (rng.random((q, d)) < 0.5))
        S = rng.standard_normal((d, K))
        S -= S.mean(axis=1, keepdims=True)
        tau_rho = float(rng.uniform(0.01, 1.0))
        ctx = make_gain_context(S, H, tau_rho)
        G = _dense_gain(S, H, tau_rho)
        y = rng.standard_normal(q)
        np.testing.assert_allclose(gain_apply_woodbury(ctx, y), G @ y, atol=1e-10 * (1 + np.abs(G @ y).max()))
        Y = rng.standard_normal((q, 4))
        np.testing.assert_allclose(gain_apply_woodbury(ctx, Y), G @ Y, atol=1e-9)


def test_make_gain_context_rejects_bad_inputs():
    S = np.zeros((3, 1))
    with pytest.raises(ValueError):
        make_gain_context(S, np.eye(3), 0.1)  # K < 2
    S = np.zeros((3, 4))
    with pytest.raises(ValueError):
        make_gain_context(S, np.eye(3), 0.0)  # tau_rho must be positive


def test_make_gain_context_singular_inner_solve():
    # q = 2 <= K = 3: the q x q system I + H C H.T is the one checked
    S = np.full((2, 3), np.nan)
    with pytest.raises(SingularInnerSolve):
        make_gain_context(S, np.eye(2), 0.1)


def test_eigh_desc_projector_properties():
    # the top-p eigenvectors span an orthogonal projector, and w[p] is the
    # first eigenvalue they leave out
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 15))
        p = int(rng.integers(0, d + 1))
        C = rand_psd(rng, d)
        w, V = eigh_desc(C)
        P = symmetrize(V[:, :p] @ V[:, :p].T)
        np.testing.assert_allclose(P @ P, P, atol=1e-10)
        np.testing.assert_allclose(P, P.T, atol=0)
        assert V[:, :p].shape == (d, p)
        if p < d:
            np.testing.assert_allclose(w[p], np.linalg.eigvalsh(C)[::-1][p], atol=1e-10)


def test_eigh_desc_large_d_matches_eigvalsh():
    rng = np.random.default_rng(8)
    d = 600
    F = rng.standard_normal((d, 12))
    C = F @ F.T + 1e-3 * np.eye(d)
    w, V = eigh_desc(C)
    w_all = np.linalg.eigvalsh(C)[::-1]
    np.testing.assert_allclose(w[:5], w_all[:5], rtol=1e-7)
    np.testing.assert_allclose(w[5], w_all[5], rtol=1e-6)
    V = V[:, :5]
    np.testing.assert_allclose(V.T @ V, np.eye(5), atol=1e-8)
    np.testing.assert_allclose(C @ V, V * w[:5], atol=1e-5 * w_all[0])


def test_every_exported_name_resolves():
    import importlib

    for name in ("diagnostics", "effective_dim", "enkf", "linalg", "models", "reference"):
        module = importlib.import_module(f"enkf_lab.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], f"enkf_lab.{name}.__all__ names {missing}"


def test_positive_part_clamps():
    M = np.diag([2.0, -3.0, 0.0])
    np.testing.assert_allclose(positive_part(M), np.diag([2.0, 0.0, 0.0]), atol=1e-12)


def test_positive_part_against_eig_reference():
    rng = np.random.default_rng(9)
    for _ in range(15):
        d = int(rng.integers(1, 10))
        M = symmetrize(rng.standard_normal((d, d)))
        w, V = np.linalg.eigh(M)
        want = (V * np.maximum(w, 0)) @ V.T
        np.testing.assert_allclose(positive_part(M), want, atol=1e-10)


@pytest.mark.parametrize("kind", ["sparse_diag", "dense_diag", "dense_full"])
def test_positive_part_factor_reconstructs(kind):
    rng = np.random.default_rng(10)
    d = 9
    if kind == "sparse_diag":
        diag = rng.standard_normal(d)
        M = scipy.sparse.diags(diag, format="csr")
        want = np.diag(np.maximum(diag, 0))
    elif kind == "dense_diag":
        diag = rng.standard_normal(d)
        M = np.diag(diag)
        want = np.diag(np.maximum(diag, 0))
    else:
        M = symmetrize(rng.standard_normal((d, d)))
        want = positive_part(M)
    U, s = positive_part_factor(M)
    np.testing.assert_allclose(factor_matrix((U, s)), want, atol=1e-10)
    assert np.all(s > 0)
    if kind != "dense_full":
        # dense and sparse diagonal input give the same sparse selector
        U_sparse, s_sparse = positive_part_factor(scipy.sparse.diags(diag, format="csr"))
        assert scipy.sparse.issparse(U) and (U != U_sparse).nnz == 0
        assert np.array_equal(s, s_sparse)


def test_positive_part_factor_empty_support():
    U, s = positive_part_factor(np.diag([-1.0, -2.0]))
    assert U.shape == (2, 0) and s.shape == (0,)


def test_condition_number():
    assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)
    with pytest.raises(NotPositiveDefinite):
        condition_number(np.diag([1.0, 0.0]))


def test_is_positive_definite_boundary():
    assert is_positive_definite(np.eye(3))
    assert not is_positive_definite(np.diag([1.0, 1e-15]))
