"""Tests for coefficient streams, the turbulence testbed, and truth runs."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from enkf_lab import models
from enkf_lab.models import (
    DOMAIN_INIT,
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


def _numpy_keys(seqs):
    return np.array(
        [np.random.Philox(q).state["state"]["key"] for q in seqs], dtype=np.uint64
    )


_WORD = st.integers(min_value=0, max_value=2**64)


@settings(deadline=None, max_examples=60)
@given(
    entropy=st.one_of(_WORD, st.tuples(_WORD), st.lists(_WORD, min_size=1, max_size=6).map(tuple)),
    spawn_key=st.lists(_WORD, max_size=3).map(tuple),
    spawned=st.integers(min_value=0, max_value=10**6),
    pool_size=st.sampled_from([4, 5, 8]),
    K=st.integers(min_value=1, max_value=2000),
)
def test_spawn_keys_match_numpy(entropy, spawn_key, spawned, pool_size, K):
    # the vectorised SeedSequence mix gives every child's Philox key, for
    # parents that are themselves children and parents that already spawned
    seq = np.random.SeedSequence(
        entropy, spawn_key=spawn_key, pool_size=pool_size, n_children_spawned=spawned
    )
    rng = np.random.Generator(np.random.Philox(seq))
    got = models._spawn_keys(rng, K)
    assert seq.n_children_spawned == spawned  # read, not advanced
    assert got.dtype == np.uint64 and got.shape == (K, 2)
    assert np.array_equal(got, _numpy_keys(seq.spawn(K)))


@pytest.mark.parametrize("seed", [0, 7, 901000, 2**40 + 5])
def test_substream_keys_match_numpy(seed):
    got = models._substream_keys((seed, DOMAIN_INIT), 1000)
    want = _numpy_keys(np.random.SeedSequence((seed, DOMAIN_INIT, k)) for k in range(1000))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("K", [1, 2, 1000])
@pytest.mark.parametrize("m", [0, 1, 4, 19])
def test_fill_normals_matches_spawned_children(m, K):
    # a fresh Philox per key, counter 0, empty buffer: the children's bits
    rng = substream(5, 4, 11)
    Z = np.empty((K, m))
    models._fill_normals(models._spawn_keys(rng, K), Z)
    assert np.array_equal(Z, spawn_normals(rng, K, m))


@pytest.mark.parametrize(
    "rng",
    [np.random.default_rng(0), np.random.Generator(np.random.Philox(key=5)), None],
    ids=["pcg64", "philox_without_seed_seq", "none"],
)
def test_spawn_keys_need_a_substream(rng):
    with pytest.raises(models.NotASubstream, match="models.substream"):
        models._spawn_keys(rng, 3)
    assert issubclass(models.NotASubstream, TypeError)


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
    "T,x0,match",
    [(0, np.zeros(3), "T must be >= 1"), (4, np.zeros(4), "x0 has length 4")],
    ids=["T_zero", "x0_length"],
)
def test_truth_path_checks_its_input_when_called(T, x0, match):
    stream = build_turbulence(TurbulenceParams(J=1))
    with pytest.raises(InvalidParams, match=match):
        truth_path(stream, x0, T, seed=0)  # raises before any next()


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
