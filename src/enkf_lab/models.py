"""Signal-observation systems with random coefficients, and the turbulence testbed.

The state model is ``X_{n+1} = A_n X_n + B_n + xi_{n+1}`` with
``xi ~ N(0, Sigma_n)``, observed through ``Y_{n+1} = H_n X_{n+1} + zeta``
with unit observation noise. Coefficients come from a
:class:`CoefficientStream`; the spectrally truncated stochastic
turbulence model (damped advected Fourier modes with a power-law
equilibrium spectrum) is the built-in instance.

All randomness is drawn from counter-based Philox substreams keyed by
``(seed, domain, step[, member])``, so trajectories are bit-reproducible
and noise draws never depend on ensemble size or on program state. For
per-member forecast draws, the K children of one key share its
``SeedSequence`` pool; the member index is mixed into that pool for all
K members in one array pass, and one reused Philox draws from each.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse

from .linalg import positive_part_factor

__all__ = [
    "InvalidParams",
    "InvalidChain",
    "StepCoefficients",
    "CoefficientStream",
    "TurbulenceParams",
    "TruthTrajectory",
    "JumpSpec",
    "substream",
    "build_turbulence",
    "simulate_truth",
    "truth_path",
    "markov_jump_step",
    "sample_noise",
]

# Substream domain tags. Never reorder; reproducibility depends on them.
DOMAIN_TRUTH = 1
DOMAIN_OBS = 2
DOMAIN_JUMP = 3
DOMAIN_FORECAST = 4
DOMAIN_INIT = 5
DOMAIN_TRIAL = 6


class InvalidParams(ValueError):
    """A model parameter violates its constraint."""


class InvalidChain(ValueError):
    """A Markov jump specification is not a valid finite-state chain."""


def _is_index(value) -> bool:
    """Whether ``value`` is an integer: an int or ``np.integer``, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed) -> int:
    """``seed`` as an int; :class:`InvalidParams` naming it unless it is a
    non-negative integer."""
    if not _is_index(seed) or seed < 0:
        raise InvalidParams(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def substream(*key: int) -> np.random.Generator:
    """Counter-based generator keyed by a tuple of non-negative ints."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


# numpy's SeedSequence constants (O'Neill's hash and mix)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _member_normals(key: tuple, out: np.ndarray) -> None:
    """Fill row k of ``out`` (any layout) with the first standard normals of
    the k-th child that ``substream(*key).spawn(K)`` makes.

    The children share their parent's pool, ``SeedSequence(key).pool``;
    only the spawn word k differs. It is mixed into the pool by four more
    hashes, as numpy's ``mix_entropy`` does, and ``generate_state(2,
    uint64)`` follows, both as uint32 array operations over all K rows.
    The hash constant resumes after the parent's ``n + n(n-1) +
    n max(0, L-n)`` hashes, for pool size n and L uint32 key words. One
    Philox is reset per row to the key, counter 0 and an empty buffer,
    which is exactly the state a newly seeded Philox starts in.
    """
    K, m = out.shape
    if m == 0:
        return
    pool = np.random.SeedSequence(key).pool.tolist()
    n = len(pool)
    L = sum(max(1, -(-int(v).bit_length() // 32)) for v in key)
    h = _INIT_A * pow(_MULT_A, n + n * (n - 1) + n * max(0, L - n), _M32 + 1) & _M32
    spawn_word = np.arange(K, dtype=np.uint32)
    mixed = []
    for word in pool:
        v = spawn_word ^ h
        h = (h * _MULT_A) & _M32
        v *= h
        v ^= v >> 16  # hashmix(k)
        v = (_MIX_L * word & _M32) - _MIX_R * v
        mixed.append(v ^ (v >> 16))  # mix(pool word, hashmix(k))
    h = _INIT_B
    words = np.empty((K, 4), dtype=np.uint32)
    for i in range(4):
        v = mixed[i % n] ^ h
        h = (h * _MULT_B) & _M32
        v *= h
        words[:, i] = v ^ (v >> 16)
    bg = np.random.Philox(0)
    gen = np.random.Generator(bg)
    zeros = (0, 0, 0, 0)
    inner = {"counter": zeros, "key": None}
    state = {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for k, member_key in enumerate(words.astype("<u4").view("<u8").tolist()):
        inner["key"] = member_key
        bg.state = state
        out[k] = gen.standard_normal(m)


@dataclass
class StepCoefficients:
    """One step of system coefficients (A, B, Sigma, H).

    ``A`` and ``Sigma`` may be dense arrays or scipy.sparse matrices;
    ``H`` may additionally be None for an unobserved system.
    """

    A: object
    B: np.ndarray
    Sigma: object
    H: object = None

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float).ravel()
        if not scipy.sparse.issparse(self.A):
            self.A = np.asarray(self.A, dtype=float)
        if not scipy.sparse.issparse(self.Sigma):
            self.Sigma = np.asarray(self.Sigma, dtype=float)
        if self.H is not None and not scipy.sparse.issparse(self.H):
            self.H = np.asarray(self.H, dtype=float)
        d = self.B.shape[0]
        if self.A.shape != (d, d):
            raise InvalidParams(f"A has shape {self.A.shape}, expected ({d}, {d})")
        if self.Sigma.shape != (d, d):
            raise InvalidParams(f"Sigma has shape {self.Sigma.shape}, expected ({d}, {d})")
        if self.H is not None and self.H.shape[1] != d:
            raise InvalidParams(f"H has {self.H.shape[1]} columns, expected {d}")


@dataclass
class CoefficientStream:
    """Deterministic map ``(step, seed) -> StepCoefficients``.

    The generator must be pure given the step index and the stream's
    seed, so the same seed reproduces bit-identical coefficients; one
    that draws keys its own substreams from that seed. ``q = 0`` marks an
    unobserved system.
    """

    d: int
    q: int
    generator: Callable[[int, int], StepCoefficients]
    seed: int = 0

    def at(self, n: int) -> StepCoefficients:
        """Step ``n``'s coefficients; :class:`InvalidParams` naming the step
        when their shapes do not fit the stream's ``(d, q)``."""
        c = self.generator(n, self.seed)
        if c.B.shape[0] != self.d:
            raise InvalidParams(f"step {n}: B has length {c.B.shape[0]}, expected d = {self.d}")
        rows = None if c.H is None else c.H.shape[0]
        if rows != (self.q or None):  # H None exactly when q = 0, else q rows
            got = "H is None" if rows is None else f"H has {rows} rows"
            raise InvalidParams(f"step {n}: {got} but the stream has q = {self.q}")
        return c


@dataclass
class JumpSpec:
    """Finite-state Markov chain driving per-mode damping multipliers.

    Attributes
    ----------
    transition : (m, m) array
        Row-stochastic transition matrix.
    multipliers : (m, len(modes)) array
        Finite multiplier for each listed mode's A-block, per chain state.
    modes : sequence of int
        Wavenumbers forming the instability set; only these are scaled.
    init_state : int
        Chain state at step 0, in ``[0, m)``.
    """

    transition: np.ndarray
    multipliers: np.ndarray
    modes: tuple
    init_state: int = 0

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=float)
        self.multipliers = np.atleast_2d(np.asarray(self.multipliers, dtype=float))
        if not all(_is_index(k) for k in self.modes):
            raise InvalidChain(f"modes must be integers, got {self.modes}")
        self.modes = tuple(int(k) for k in self.modes)
        m = self.transition.shape[0]
        if self.transition.shape != (m, m):
            raise InvalidChain("transition matrix must be square")
        if self.multipliers.shape != (m, len(self.modes)):
            raise InvalidChain(
                f"multipliers must be ({m}, {len(self.modes)}), "
                f"got {self.multipliers.shape}"
            )
        rows = self.transition.sum(axis=1)
        # written so that a NaN entry fails: every comparison with NaN is False
        if not (np.all(np.abs(rows - 1.0) <= 1e-12) and np.all(self.transition >= 0)):
            raise InvalidChain("transition rows must be stochastic (sum to 1 within 1e-12)")
        if not np.all(np.isfinite(self.multipliers)):
            raise InvalidChain("multipliers must be finite")
        if not (_is_index(self.init_state) and 0 <= self.init_state < m):
            raise InvalidChain(f"init_state must be an integer in [0, {m}), got {self.init_state!r}")


def markov_jump_step(jump_spec: JumpSpec, state: int, rng) -> tuple[int, np.ndarray]:
    """Advance the jump chain one step.

    Returns the new chain state and the multiplier vector for the modes
    in the instability set (aligned with ``jump_spec.modes``).
    """
    probs = jump_spec.transition[state]
    new_state = int(rng.choice(probs.shape[0], p=probs))
    return new_state, jump_spec.multipliers[new_state].copy()


@dataclass
class TurbulenceParams:
    """Parameters of the truncated turbulence model.

    ``d = 2J + 1`` modes: a scalar mode 0 followed by (cos, sin) pairs for
    wavenumbers 1..J. Mode k is damped at rate
    ``gamma_k = gamma0 + nu_visc * k**alpha`` and forced to the
    equilibrium energy ``E_k = E0 * k**(-beta)``; mode 0 is unforced
    (pure damping), which is what reproduces the published effective
    dimensions of the reference configuration.
    """

    J: int
    alpha: float = 2.0
    beta: float = 5.0 / 3.0
    gamma0: float = 0.01
    nu_visc: float = 0.01
    E0: float = 1.0
    h: float = 0.5
    omega_spec: Optional[Sequence[float]] = None
    r: float = 1.1
    tau: float = 1.0
    rho: float = 0.04
    sigma_obs: Optional[float] = None
    jump_spec: Optional[JumpSpec] = None

    @property
    def d(self) -> int:
        return 2 * self.J + 1

    def gamma(self) -> np.ndarray:
        k = np.arange(self.J + 1, dtype=float)
        return self.gamma0 + self.nu_visc * k**self.alpha

    def mode_sigma(self) -> np.ndarray:
        """Per-wavenumber variance increments over k = 0..J.

        ``0.5 E0 k^-beta (1 - e^{-2 gamma_k h})`` for k >= 1, the variance
        each of the (cos, sin) components of wavenumber k gains per step;
        0 at k = 0, which is unforced.
        """
        k = np.arange(1, self.J + 1, dtype=float)
        out = np.zeros(self.J + 1)
        out[1:] = 0.5 * self.E0 * k ** (-self.beta) * (
            1.0 - np.exp(-2.0 * self.gamma()[1:] * self.h)
        )
        return out

    def ambient(self, per_mode) -> np.ndarray:
        """Per-wavenumber values over k = 0..J laid out on the d state
        components: mode 0 once, then each k >= 1 on its (cos, sin) pair."""
        return np.repeat(per_mode, [1] + [2] * self.J)

    def sigma_diag(self) -> np.ndarray:
        """Diagonal of Sigma over the d state components."""
        return self.ambient(self.mode_sigma())

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "jump_spec" or value is None or np.all(np.isfinite(value)):
                continue
            if np.ndim(value):
                raise InvalidParams(f"{f.name} entries must be finite")
            raise InvalidParams(f"{f.name} must be finite, got {value}")
        if not self.r > 1:
            raise InvalidParams("r must satisfy r > 1")
        if not self.tau > 0:
            raise InvalidParams("tau must satisfy tau > 0")
        if not _is_index(self.J) or self.J < 0:
            raise InvalidParams("J must be a non-negative integer")
        if self.alpha <= 0:
            raise InvalidParams("alpha must satisfy alpha > 0")
        if self.beta < 0:
            raise InvalidParams("beta must satisfy beta >= 0")
        if self.h <= 0:
            raise InvalidParams("h must satisfy h > 0")
        if self.E0 < 0:
            raise InvalidParams("E0 must satisfy E0 >= 0")
        if np.any(self.gamma() <= 0):
            raise InvalidParams(
                "gamma0 + nu_visc * k**alpha must be positive for all k <= J"
            )
        if self.sigma_obs is not None and self.sigma_obs <= 0:
            raise InvalidParams("sigma_obs must satisfy sigma_obs > 0")
        if self.rho <= 0:
            raise InvalidParams("rho must satisfy rho > 0")
        if self.omega_spec is not None and len(self.omega_spec) != self.J + 1:
            raise InvalidParams(
                f"omega_spec must have length J + 1 = {self.J + 1}"
            )
        if self.jump_spec is not None:
            modes = self.jump_spec.modes
            if not all(1 <= k <= self.J for k in modes):
                raise InvalidParams(
                    f"jump_spec.modes must be wavenumbers in 1..J = {self.J}, got {modes}"
                )
            if len(set(modes)) != len(modes):
                raise InvalidParams(f"jump_spec.modes must be distinct, got {modes}")


@dataclass
class TruthTrajectory:
    """Simulated truth and observations under one seed.

    ``states`` has shape (T+1, d) including the initial condition;
    ``observations`` has shape (T, q), observation ``n`` (0-based row)
    pairing with state ``n+1``. None when the system is unobserved.
    """

    states: np.ndarray
    observations: Optional[np.ndarray]


def _turbulence_A(params: TurbulenceParams):
    """Block-diagonal A in CSR form, built from arrays in O(d).

    Mode 0 is a 1x1 damping block; wavenumber k is the 2x2 damped rotation
    ``e^{-gamma_k h} [[cos, -sin], [sin, cos]](omega_k h)`` on rows and
    columns ``2k-1, 2k``. Every block entry is stored, zeros included
    (``e^{-gamma_k h}`` underflows at large k), so nnz = 4J + 1 and the
    entries of wavenumber k are ``data[indptr[2k-1]:indptr[2k+1]]``.
    """
    J, d, h = params.J, params.d, params.h
    scale = np.exp(-params.gamma() * h)
    omega = (
        np.zeros(J + 1)
        if params.omega_spec is None
        else np.asarray(params.omega_spec, dtype=float)
    )
    angle = omega[1:] * h
    c, s = np.cos(angle), np.sin(angle)
    data = np.empty(4 * J + 1)
    data[0] = scale[0]
    blocks = data[1:].reshape(J, 4)  # row-major entries of each 2x2 block
    blocks[:, 0] = scale[1:] * c
    blocks[:, 1] = scale[1:] * -s
    blocks[:, 2] = scale[1:] * s
    blocks[:, 3] = scale[1:] * c
    cols = np.arange(1, d).reshape(J, 2)
    indices = np.concatenate(([0], np.tile(cols, 2).ravel())).astype(np.int32)
    indptr = np.concatenate(([0], np.arange(1, 2 * d, 2))).astype(np.int32)
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(d, d))


def build_turbulence(params: TurbulenceParams) -> CoefficientStream:
    """Coefficient stream for the truncated turbulence model.

    A is block-diagonal (damped rotations), Sigma is diagonal with the
    statistical-equilibrium variance increments, and
    ``H = sqrt((2J+1)/sigma_obs) * I`` when an observation noise variance
    is supplied (else the system is unobserved). With a jump spec, each
    step copies the prebuilt A and scales the blocks of the listed modes
    by the chain's multipliers, O(d) work with no rebuild. Matrices are
    scipy.sparse; dense consumers can densify.
    """
    params.validate()
    d = params.d
    Sigma = scipy.sparse.diags(params.sigma_diag(), format="csr")
    B = np.zeros(d)
    if params.sigma_obs is not None:
        H = scipy.sparse.identity(d, format="csr") * np.sqrt(d / params.sigma_obs)
        q = d
    else:
        H, q = None, 0
    A0 = _turbulence_A(params)
    base = StepCoefficients(A=A0, B=B, Sigma=Sigma, H=H)

    if params.jump_spec is None:

        def generator(_n, _seed):
            return base  # constant-coefficient: same object every step

        return CoefficientStream(d=d, q=q, generator=generator)

    spec = params.jump_spec
    # the latest (step, state) per stream seed; transition i uses its own
    # substream, so a later step continues from there and an earlier one
    # replays from step 0, in memory bounded on any stream length
    latest: dict = {}

    def chain_state(n: int, stream_seed: int) -> np.ndarray:
        i, s = latest.get(stream_seed, (0, spec.init_state))
        if n < i:
            i, s = 0, spec.init_state
        while i < n:
            i += 1
            s, _ = markov_jump_step(spec, s, substream(stream_seed, DOMAIN_JUMP, i))
        latest[stream_seed] = (i, s)
        return spec.multipliers[s]

    # the four entries of each listed wavenumber's block in A0.data
    blocks = [slice(A0.indptr[2 * k - 1], A0.indptr[2 * k + 1]) for k in spec.modes]

    def generator(n, seed):
        A = A0.copy()
        for block, m in zip(blocks, chain_state(n, seed)):
            A.data[block] = m * A0.data[block]
        return StepCoefficients(A=A, B=B, Sigma=Sigma, H=H)

    return CoefficientStream(d=d, q=q, generator=generator)


class _LastValueMemo:
    """``build(key)``, remembered for the most recent key only (by identity).

    A constant stream hands out the same object every step, so it builds
    once; a time-varying stream holds one value, not one per step.
    """

    def __init__(self, build: Callable):
        self._build = build
        self._last = None  # (key, value)

    def __call__(self, key):
        if self._last is None or self._last[0] is not key:
            self._last = (key, self._build(key))
        return self._last[1]


def sample_noise(factor, rng) -> np.ndarray:
    """Draw one (d,) sample of N(0, U diag(s) U.T) given the factor ``(U, s)``."""
    U, s = factor
    if s.shape[0] == 0:
        return np.zeros(U.shape[0])
    return U @ (np.sqrt(s) * rng.standard_normal(s.shape[0]))


def truth_path(stream: CoefficientStream, x0, T: int, seed: int):
    """Iterate ``(X_{n+1}, Y_{n+1})`` for ``n < T``, holding only the current state.

    ``Y`` is None on an unobserved stream. ``seed`` keys the noise. ``T``
    (an integer >= 1, not a bool), the seed and the length and finiteness
    of ``x0`` are checked on the call, not at the first step.
    """
    if not _is_index(T) or T < 1:
        raise InvalidParams(f"T must be >= 1 and an integer, got {T!r}")
    seed = _check_seed(seed)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape[0] != stream.d:
        raise InvalidParams(f"x0 has length {x0.shape[0]}, stream.d = {stream.d}")
    if not np.all(np.isfinite(x0)):
        raise InvalidParams("x0 must be finite")

    def steps(x):
        noise_factor = _LastValueMemo(positive_part_factor)
        for n in range(T):
            coeffs = stream.at(n)
            xi = sample_noise(noise_factor(coeffs.Sigma), substream(seed, DOMAIN_TRUTH, n))
            x = np.asarray(coeffs.A @ x).ravel() + coeffs.B + xi
            y = None
            if stream.q:
                y = np.asarray(coeffs.H @ x).ravel()
                y = y + substream(seed, DOMAIN_OBS, n).standard_normal(stream.q)
            yield x, y

    return steps(x0)


def simulate_truth(stream: CoefficientStream, x0, T: int, seed: int) -> TruthTrajectory:
    """:func:`truth_path` collected into arrays, with ``x0`` as state 0."""
    path = truth_path(stream, x0, T, seed)
    states = np.empty((T + 1, stream.d))
    states[0] = np.ravel(x0)
    obs = np.empty((T, stream.q)) if stream.q else None
    for n, (x, y) in enumerate(path):
        states[n + 1] = x
        if obs is not None:
            obs[n] = y
    return TruthTrajectory(states=states, observations=obs)
