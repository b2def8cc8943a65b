"""Tests for coefficient streams, the turbulence testbed, and truth runs."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from enkf_lab import models
from enkf_lab.enkf import EnkfConfig, EnkfFilter
from enkf_lab.models import (
    DOMAIN_JUMP,
    DOMAIN_OBS,
    CoefficientStream,
    InvalidChain,
    InvalidParams,
    JumpSpec,
    StepCoefficients,
    TurbulenceParams,
    build_turbulence,
    markov_jump_step,
    simulate_truth,
    substream,
    truth_path,
)

from oracles import spawn_normals

SIGMA_11 = 0.009900663346622374  # 0.5 * (1 - exp(-2 * 0.02 * 0.5))


def block_diag_A(params, mults=None):
    """Reference A: one dense block per mode, assembled by block_diag.

    ``mults`` maps a wavenumber to the factor its block is scaled by.
    """
    g = params.gamma()
    h = params.h
    omega = (
        np.zeros(params.J + 1)
        if params.omega_spec is None
        else np.asarray(params.omega_spec, dtype=float)
    )
    blocks = [np.array([[np.exp(-g[0] * h)]])]
    for k in range(1, params.J + 1):
        c, s = np.cos(omega[k] * h), np.sin(omega[k] * h)
        blk = np.exp(-g[k] * h) * np.array([[c, -s], [s, c]])
        if mults and k in mults:
            blk = mults[k] * blk
        blocks.append(blk)
    return scipy.sparse.block_diag(blocks, format="csr")


def assert_same_csr(A, B):
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert A.data.tobytes() == B.data.tobytes()


def test_substream_determinism():
    a = substream(7, 1, 3).standard_normal(5)
    b = substream(7, 1, 3).standard_normal(5)
    assert np.array_equal(a, b)
    c = substream(7, 2, 3).standard_normal(5)
    assert not np.array_equal(a, c)


# member keys of fewer than, exactly and more than the pool size of 4
# uint32 words, the last with a tail word past the pool, and keys with a 0
_KEYS = [(5, 4, 11), (2**33 + 5, 4, 11), (2**33 + 5, 4, 2**32 + 1), (7,), (0, 4, 0)]


@pytest.mark.parametrize("K", [1, 1000])
@pytest.mark.parametrize(
    "key", _KEYS, ids=["3_words", "4_words", "5_words", "1_word", "with_zero"]
)
def test_member_normals_match_numpy(key, K):
    # row k: the k-th child of substream(*key).spawn(K)
    m = 3
    Z = np.empty((K, m))
    models._member_normals(key, Z)
    assert np.array_equal(Z, spawn_normals(key, K, m))


@pytest.mark.parametrize("K", [1, 2, 1000])
@pytest.mark.parametrize("m", [0, 1, 4, 19])
def test_fill_normals_matches_spawned_children(m, K):
    # a fresh Philox per key, counter 0, empty buffer: the children's bits,
    # in a column view as the forecast fills them
    Z = np.empty((m, K)).T
    models._member_normals((5, 4, 11), Z)
    assert np.array_equal(Z, spawn_normals((5, 4, 11), K, m))


def test_params_dimensions_and_gamma():
    p = TurbulenceParams(J=10)
    assert p.d == 21
    g = p.gamma()
    assert g[0] == pytest.approx(0.01)
    assert g[5] == pytest.approx(0.01 + 0.01 * 25)


def test_sigma_diag_values():
    p = TurbulenceParams(J=3)
    s = p.sigma_diag()
    assert s[0] == 0.0  # mode 0 unforced
    assert s[1] == pytest.approx(SIGMA_11, rel=1e-14)
    assert s[2] == s[1]  # cos/sin pair shares the variance
    assert np.all(s[1:] > 0)


def test_sigma_diag_strictly_positive_above_zero():
    for J in (1, 5, 50):
        s = TurbulenceParams(J=J).sigma_diag()
        assert s[0] == 0.0
        assert np.all(s[1:] > 0)


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        (dict(J=-1), "J"),
        (dict(J=2, alpha=0.0), "alpha"),
        (dict(J=2, beta=-0.1), "beta"),
        (dict(J=2, h=0.0), "h"),
        (dict(J=2, E0=-1.0), "E0"),
        (dict(J=2, sigma_obs=0.0), "sigma_obs"),
        (dict(J=2, rho=0.0), "rho"),
        (dict(J=2, omega_spec=[0.0, 1.0]), "omega_spec"),
        (dict(J=2, gamma0=-1.0, nu_visc=0.1), "gamma"),
        (dict(J=2, alpha=float("nan")), "alpha must be finite"),
        (dict(J=float("inf")), "J must be finite"),
        (dict(J=2, sigma_obs=float("inf")), "sigma_obs must be finite"),
        (dict(J=2, omega_spec=[0.0, float("nan"), 1.0]), "omega_spec entries must be finite"),
        (dict(J=2, r=0.5), "r must satisfy r > 1"),
        (dict(J=2, r=1.0), "r must satisfy r > 1"),
        (dict(J=2, tau=0.0), "tau must satisfy tau > 0"),
    ],
)
def test_params_validate_messages(kwargs, msg):
    with pytest.raises(InvalidParams, match=msg):
        TurbulenceParams(**kwargs).validate()


def test_turbulence_A_block_structure():
    p = TurbulenceParams(J=2)
    A = np.asarray(build_turbulence(p).at(0).A.todense())
    g = p.gamma()
    assert A[0, 0] == pytest.approx(np.exp(-g[0] * p.h))
    # omega defaults to zero: blocks are scaled identities
    np.testing.assert_allclose(A[1:3, 1:3], np.exp(-g[1] * p.h) * np.eye(2), atol=1e-15)
    np.testing.assert_allclose(A[3:5, 3:5], np.exp(-g[2] * p.h) * np.eye(2), atol=1e-15)
    assert A[0, 1] == 0.0 and A[1, 3] == 0.0


def test_turbulence_A_rotation_with_omega():
    p = TurbulenceParams(J=1, omega_spec=[0.0, 2.0])
    A = np.asarray(build_turbulence(p).at(0).A.todense())
    blk = A[1:3, 1:3]
    scale = np.exp(-p.gamma()[1] * p.h)
    ang = 2.0 * p.h
    want = scale * np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    np.testing.assert_allclose(blk, want, atol=1e-15)
    # orthogonality up to the damping scale
    np.testing.assert_allclose(blk.T @ blk, scale**2 * np.eye(2), atol=1e-15)


@pytest.mark.parametrize(
    "J,omega",
    [(0, None), (3, None), (3, [0.0, 1.0, 2.0, 3.0]), (50, "random")],
)
def test_turbulence_A_matches_block_diag(J, omega):
    if omega == "random":
        omega = list(np.random.default_rng(0).normal(scale=3.0, size=J + 1))
    p = TurbulenceParams(J=J, omega_spec=omega)
    assert_same_csr(build_turbulence(p).at(0).A, block_diag_A(p))


def test_turbulence_A_keeps_underflowed_blocks():
    # exp(-gamma_k h) is 0.0 for large k; those blocks stay stored
    p = TurbulenceParams(J=5000, omega_spec=np.linspace(0.0, 4.0, 5001))
    A = build_turbulence(p).at(0).A
    assert np.exp(-p.gamma()[-1] * p.h) == 0.0
    assert A.nnz == 4 * p.J + 1
    assert_same_csr(A, block_diag_A(p))


def test_observation_operator_scaling():
    p = TurbulenceParams(J=50, sigma_obs=10.0)
    H = build_turbulence(p).at(0).H
    h00 = float(H[0, 0])
    assert h00 == pytest.approx(3.1780497164141406, rel=1e-14)  # sqrt(101/10)
    dense = np.asarray(H.todense())
    np.testing.assert_allclose(dense, h00 * np.eye(101), atol=0)


def test_unobserved_stream_has_no_H():
    p = TurbulenceParams(J=2)
    stream = build_turbulence(p)
    assert stream.q == 0
    assert stream.at(0).H is None


def test_constant_stream_reuses_coefficients():
    stream = build_turbulence(TurbulenceParams(J=3))
    assert stream.at(0) is stream.at(5)


def test_step_coefficients_accept_lists():
    c = StepCoefficients(A=[[0.5]], B=[0.0], Sigma=[[1.0]])
    assert c.A.shape == (1, 1)


def test_simulate_truth_reproducible():
    stream = build_turbulence(TurbulenceParams(J=4, sigma_obs=1.0))
    t1 = simulate_truth(stream, np.zeros(9), 20, seed=3)
    t2 = simulate_truth(stream, np.zeros(9), 20, seed=3)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.observations, t2.observations)
    t3 = simulate_truth(stream, np.zeros(9), 20, seed=4)
    assert not np.array_equal(t1.states, t3.states)


def test_simulate_truth_T_validation():
    stream = build_turbulence(TurbulenceParams(J=1))
    with pytest.raises(InvalidParams, match="T must be >= 1"):
        simulate_truth(stream, np.zeros(3), 0, seed=0)


@pytest.mark.parametrize("sigma_obs", [2.0, None], ids=["observed", "unobserved"])
def test_simulate_truth_is_the_collected_truth_path(sigma_obs):
    stream = build_turbulence(TurbulenceParams(J=3, sigma_obs=sigma_obs))
    x0 = np.linspace(-1.0, 1.0, stream.d)
    truth = simulate_truth(stream, x0, 7, seed=5)
    steps = list(truth_path(stream, x0, 7, seed=5))
    assert len(steps) == 7
    assert np.array_equal(truth.states[0], x0)
    assert np.array_equal(truth.states[1:], np.array([x for x, _ in steps]))
    if sigma_obs is None:
        assert truth.observations is None
        assert all(y is None for _, y in steps)
    else:
        assert np.array_equal(truth.observations, np.array([y for _, y in steps]))


@pytest.mark.parametrize(
    "T,x0,seed,match",
    [
        (0, np.zeros(3), 0, "T must be >= 1"),
        (2.5, np.zeros(3), 0, "T must be >= 1 and an integer, got 2.5"),
        (True, np.zeros(3), 0, "T must be >= 1 and an integer, got True"),
        (4, np.zeros(4), 0, "x0 has length 4"),
        (4, np.full(3, np.nan), 0, "x0 must be finite"),
        (4, np.zeros(3), 2.7, "seed"),
        (4, np.zeros(3), True, "seed"),
        (4, np.zeros(3), -1, "seed"),
    ],
    ids=[
        "T_zero", "T_float", "T_bool", "x0_length", "x0_nan",
        "seed_float", "seed_bool", "seed_negative",
    ],
)
def test_truth_path_checks_its_input_when_called(T, x0, seed, match):
    stream = build_turbulence(TurbulenceParams(J=1))
    with pytest.raises(InvalidParams, match=match):
        truth_path(stream, x0, T, seed)  # raises before any next()
    with pytest.raises(InvalidParams, match=match):
        simulate_truth(stream, x0, T, seed)


def test_truth_path_takes_a_numpy_integer_T():
    stream = build_turbulence(TurbulenceParams(J=1))
    assert len(list(truth_path(stream, np.zeros(3), np.int64(3), 0))) == 3


@pytest.mark.parametrize("entry", ["truth_path", "filter_step"])
@pytest.mark.parametrize(
    "d, q, bad, match",
    [
        (5, 0, StepCoefficients(A=np.eye(4), B=np.zeros(4), Sigma=np.eye(4)), "B has length 4"),
        (4, 4, StepCoefficients(A=np.eye(4), B=np.zeros(4), Sigma=np.eye(4), H=np.eye(3, 4)),
         "H has 3 rows but the stream has q = 4"),
        (4, 4, StepCoefficients(A=np.eye(4), B=np.zeros(4), Sigma=np.eye(4)),
         "H is None but the stream has q = 4"),
        (4, 0, StepCoefficients(A=np.eye(4), B=np.zeros(4), Sigma=np.eye(4), H=np.eye(4)),
         "H has 4 rows but the stream has q = 0"),
    ],
    ids=["B_length", "H_rows", "H_missing", "H_unexpected"],
)
def test_stream_coefficients_must_fit_its_shape(d, q, bad, match, entry):
    # steps 0 and 1 fit (d, q); step 2's coefficients do not, and both
    # truth and filter stop there with the step named
    good = StepCoefficients(
        A=0.5 * np.eye(d), B=np.zeros(d), Sigma=np.eye(d), H=np.eye(d)[:q] if q else None
    )
    stream = CoefficientStream(d=d, q=q, generator=lambda n, rng: bad if n == 2 else good)
    with pytest.raises(InvalidParams, match=f"step 2: {match}"):
        if entry == "truth_path":
            list(truth_path(stream, np.zeros(d), 3, seed=0))
        else:
            filt = EnkfFilter(stream, EnkfConfig(K=3, p=1, r=1.1, rho=0.04), seed=0)
            for _ in range(3):
                filt.step(np.zeros(q) if q else None)


def test_observation_pairing_without_noise():
    # observation row n is H @ states[n+1] plus the DOMAIN_OBS substream's
    # first q normals, bit for bit
    p = TurbulenceParams(J=2, sigma_obs=2.0)
    stream = build_turbulence(p)
    t = simulate_truth(stream, np.ones(5), 6, seed=1)
    H = stream.at(0).H
    for n in range(6):
        noise = substream(1, DOMAIN_OBS, n).standard_normal(stream.q)
        clean = np.asarray(H @ t.states[n + 1]).ravel()
        assert np.array_equal(t.observations[n], clean + noise)


def test_drift_only_dynamics():
    b = np.array([0.5, -1.0])
    stream = CoefficientStream(
        d=2, q=0,
        generator=lambda n, rng: StepCoefficients(
            A=np.eye(2), B=b, Sigma=np.zeros((2, 2))
        ),
    )
    t = simulate_truth(stream, np.zeros(2), 4, seed=0)
    np.testing.assert_allclose(t.states[4], 4 * b, atol=1e-14)


def test_white_noise_lln():
    # A=0, Sigma=I: states are iid N(0, I), sample covariance near I
    d, T = 3, 10_000
    coeffs = StepCoefficients(A=np.zeros((d, d)), B=np.zeros(d), Sigma=np.eye(d))
    stream = CoefficientStream(d=d, q=0, generator=lambda n, rng: coeffs)
    t = simulate_truth(stream, np.zeros(d), T, seed=0)
    X = t.states[1:]
    C = X.T @ X / T
    assert np.linalg.norm(C - np.eye(d), 2) < 0.1


@pytest.mark.parametrize(
    "transition,multipliers,init_state",
    [
        ([[0.7, 0.2], [0.5, 0.5]], [[1.0], [2.0]], 0),
        ([[np.nan, 0.5], [0.5, 0.5]], [[1.0], [2.0]], 0),
        ([[0.5, 0.5], [0.5, 0.5]], [[1.0], [np.nan]], 0),
        ([[0.5, 0.5], [0.5, 0.5]], [[1.0], [2.0]], -1),
        ([[0.5, 0.5], [0.5, 0.5]], [[1.0], [2.0]], 2),
    ],
    ids=["row_sum_off", "nan_row", "nan_multiplier", "init_state_negative", "init_state_too_large"],
)
def test_jump_spec_validation(transition, multipliers, init_state):
    with pytest.raises(InvalidChain):
        JumpSpec(
            transition=transition, multipliers=multipliers, modes=(1,), init_state=init_state
        )


def test_markov_jump_stationary_frequency():
    # two-state chain; stationary distribution (5/6, 1/6)
    spec = JumpSpec(
        transition=[[0.9, 0.1], [0.5, 0.5]],
        multipliers=[[1.0], [2.0]],
        modes=(1,),
        init_state=0,
    )
    state = 0
    visits = np.zeros(2)
    for n in range(100_000):
        state, mults = markov_jump_step(spec, state, substream(11, 3, n))
        visits[state] += 1
    freq = visits / visits.sum()
    assert abs(freq[0] - 5.0 / 6.0) < 0.02
    assert mults.shape == (1,)


def test_jump_stream_multiplier_scaling():
    spec = JumpSpec(
        transition=[[1.0]],
        multipliers=[[1.1]],
        modes=(1,),
        init_state=0,
    )
    p = TurbulenceParams(J=2, jump_spec=spec)
    A = np.asarray(build_turbulence(p).at(0).A.todense())
    g = p.gamma()
    np.testing.assert_allclose(
        A[1:3, 1:3], 1.1 * np.exp(-g[1] * p.h) * np.eye(2), atol=1e-15
    )
    # unlisted mode unscaled
    np.testing.assert_allclose(A[3:5, 3:5], np.exp(-g[2] * p.h) * np.eye(2), atol=1e-15)


def test_jump_stream_reproducible_per_seed():
    spec = JumpSpec(
        transition=[[0.5, 0.5], [0.5, 0.5]],
        multipliers=[[1.0], [1.5]],
        modes=(1,),
        init_state=0,
    )
    p = TurbulenceParams(J=1, jump_spec=spec)
    s1 = build_turbulence(p)
    s2 = build_turbulence(p)
    seq1 = [float(s1.at(n).A[1, 1]) for n in range(30)]
    seq2 = [float(s2.at(n).A[1, 1]) for n in range(30)]
    assert seq1 == seq2
    assert len(set(seq1)) == 2  # chain actually moves
    # random-access equals sequential access
    s3 = build_turbulence(p)
    assert float(s3.at(17).A[1, 1]) == seq1[17]


def test_jump_stream_matches_block_diag_over_chain_path():
    spec = JumpSpec(
        transition=[[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]],
        multipliers=[[1.0, 0.9], [1.3, 1.1], [0.7, 1.5]],
        modes=(4, 2),
        init_state=1,
    )
    p = TurbulenceParams(J=6, omega_spec=np.linspace(0.0, 3.0, 7), jump_spec=spec)
    stream = build_turbulence(p)
    stream.seed = 5
    state = spec.init_state
    seen = set()
    for n in range(30):
        if n > 0:
            state, _ = markov_jump_step(spec, state, substream(5, DOMAIN_JUMP, n))
        seen.add(state)
        mults = dict(zip(spec.modes, spec.multipliers[state]))
        assert_same_csr(stream.at(n).A, block_diag_A(p, mults))
    assert seen == {0, 1, 2}


def path_list_states(spec, stream_seed, requests):
    """Chain states by the retired path list, which kept every state reached."""
    path = [spec.init_state]
    out = []
    for n in requests:
        while len(path) <= n:
            rng = substream(stream_seed, DOMAIN_JUMP, len(path))
            path.append(markov_jump_step(spec, path[-1], rng)[0])
        out.append(path[n])
    return out


def test_jump_chain_matches_path_list_over_request_order():
    # forward, repeated and backward requests, interleaved over two seeds
    spec = JumpSpec(
        transition=[[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]],
        multipliers=[[1.0, 0.9], [1.3, 1.1], [0.7, 1.5]],
        modes=(4, 2),
        init_state=1,
    )
    p = TurbulenceParams(J=6, jump_spec=spec)
    stream = build_turbulence(p)
    requests = [0, 1, 2, 7, 7, 12, 3, 3, 0, 0, 15, 4, 25, 24, 25, 1]
    for seed in (5, 9):
        want = path_list_states(spec, seed, requests)
        assert len(set(want)) == 3
        for n, state in zip(requests, want):
            for s in (seed, 9 if seed == 5 else 5):  # the other seed moves too
                stream.seed = s
                A = stream.at(n).A
                if s == seed:
                    mults = dict(zip(spec.modes, spec.multipliers[state]))
                    assert_same_csr(A, block_diag_A(p, mults))


def test_jump_chain_memory_bounded(monkeypatch):
    # the per-transition draw is stubbed (an alternating chain), since 1e5
    # Philox draws under tracemalloc take tens of seconds; what is measured
    # is the chain's own bookkeeping
    spec = JumpSpec(
        transition=[[0.5, 0.5], [0.5, 0.5]], multipliers=[[1.0], [1.2]], modes=(1,)
    )
    stream = build_turbulence(TurbulenceParams(J=3, jump_spec=spec))
    monkeypatch.setattr(models, "substream", lambda *key: None)
    monkeypatch.setattr(
        models, "markov_jump_step", lambda spec, state, rng: (1 - state, None)
    )
    stream.at(1)
    tracemalloc.start()
    try:
        stream.at(100_000)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 10_000
    assert stream.at(100_000).A[1, 1] == stream.at(0).A[1, 1]  # even step: state 0


def test_jump_stream_does_not_rebuild_A(monkeypatch):
    spec = JumpSpec(
        transition=[[0.5, 0.5], [0.5, 0.5]], multipliers=[[1.0], [1.2]], modes=(2,)
    )
    stream = build_turbulence(TurbulenceParams(J=40, jump_spec=spec))

    def no_block_diag(*args, **kwargs):
        raise AssertionError("A rebuilt from blocks")

    monkeypatch.setattr(scipy.sparse, "block_diag", no_block_diag)
    for n in (0, 1, 7, 30):
        assert stream.at(n).A.nnz == 4 * 40 + 1


@pytest.mark.parametrize(
    "modes,mults,msg",
    [
        ((0,), [[1.0]], "1..J"),
        ((1, 4), [[1.0, 1.0]], "1..J"),
        ((2, 2), [[1.0, 1.5]], "distinct"),
    ],
    ids=["mode_zero", "mode_above_J", "repeated_mode"],
)
def test_jump_modes_validated(modes, mults, msg):
    spec = JumpSpec(transition=[[1.0]], multipliers=mults, modes=modes)
    with pytest.raises(InvalidParams, match=msg):
        build_turbulence(TurbulenceParams(J=3, jump_spec=spec))
