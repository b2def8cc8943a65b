"""Property suites for the matrix inequalities behind the filter analysis.

Each suite runs >= 1000 seeded random instances and returns the worst
signed slack it saw (negative means violation beyond tolerance). The
acceptance tests re-run these functions under their time budgets.
"""

import numpy as np

from enkf_lab.linalg import kalman_update_operator

from oracles import condition_number, loewner_ratio

SLACK = 1e-9


def _rand_pd(rng, d, scale=1.0):
    F = rng.standard_normal((d, d))
    return scale * (F @ F.T / d + 0.1 * np.eye(d))


def _rand_psd(rng, d, rank=None, scale=1.0):
    r = d if rank is None else rank
    F = rng.standard_normal((d, r))
    return scale * (F @ F.T / d)


def _min_eig(M):
    return float(np.linalg.eigvalsh((M + M.T) / 2)[0])


def _sqrt_psd(M):
    w, V = np.linalg.eigh((M + M.T) / 2)
    w = np.maximum(w, 0.0)
    return (V * np.sqrt(w)) @ V.T


def run_concavity_suite(n_trials=1000, seed=100):
    """K(X) + K(X+A) <= 2 K(X + A/2) + slack, random PD X and PSD A."""
    worst = np.inf
    for t in range(n_trials):
        rng = np.random.default_rng((seed, t))
        d = int(rng.integers(1, 9))
        q = int(rng.integers(1, 5))
        X = _rand_pd(rng, d)
        A = _rand_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        H = rng.standard_normal((q, d))
        lhs = kalman_update_operator(X, H) + kalman_update_operator(X + A, H)
        rhs = 2.0 * kalman_update_operator(X + 0.5 * A, H)
        worst = min(worst, _min_eig(rhs - lhs) + SLACK)
    return worst


def run_monotonicity_suite(n_trials=1000, seed=101):
    """X <= Y implies K(X) <= K(Y) + slack."""
    worst = np.inf
    for t in range(n_trials):
        rng = np.random.default_rng((seed, t))
        d = int(rng.integers(1, 9))
        q = int(rng.integers(1, 5))
        X = _rand_pd(rng, d)
        Y = X + _rand_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        H = rng.standard_normal((q, d))
        diff = kalman_update_operator(Y, H) - kalman_update_operator(X, H)
        worst = min(worst, _min_eig(diff) + SLACK)
    return worst


def run_inverse_sandwich_suite(n_trials=1000, seed=102):
    """A <= (B C B.T + D)^{-1} implies B.T A B <= C^{-1} and
    A^{1/2} D A^{1/2} <= I (both with slack)."""
    worst = np.inf
    for t in range(n_trials):
        rng = np.random.default_rng((seed, t))
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        B = rng.standard_normal((n, m))
        C = _rand_pd(rng, m)
        D = _rand_pd(rng, n)
        M = B @ C @ B.T + D
        # A = M^{-1/2} W M^{-1/2} with 0 <= W <= I
        W = _rand_psd(rng, n)
        wmax = float(np.linalg.eigvalsh(W)[-1])
        W = W / (wmax * (1.0 + rng.uniform(0.0, 1.0))) if wmax > 0 else W
        Minv_half = np.linalg.inv(_sqrt_psd(M))
        A = Minv_half @ W @ Minv_half.T
        first = _min_eig(np.linalg.inv(C) - B.T @ A @ B) + SLACK
        Ah = _sqrt_psd(A)
        second = _min_eig(np.eye(n) - Ah @ D @ Ah) + SLACK
        worst = min(worst, first, second)
    return worst


def run_two_sided_congruence_suite(n_trials=1000, seed=103):
    """Congruence scaling in its valid scope.

    The general statement "A >= I implies A B A >= B" fails for
    non-commuting pairs (A = diag(1, 2), B = all-ones is a
    counterexample), so the suite checks the forms the analysis
    actually relies on: commuting pairs in both directions, the
    quadratic-form bound C A C <= C^2 for A <= I, and the implication
    X C X <= X => X <= C^{-1}.
    """
    worst = np.inf
    for t in range(n_trials):
        rng = np.random.default_rng((seed, t))
        d = int(rng.integers(1, 9))
        # commuting pair: both directions of the scaling inequality
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        b = rng.uniform(0.0, 3.0, d)
        B = (Q * b) @ Q.T
        a_big = 1.0 + rng.uniform(0.0, 2.0, d)
        A_big = (Q * a_big) @ Q.T
        lower = _min_eig(A_big @ B @ A_big - B) + SLACK
        a_small = rng.uniform(0.0, 1.0, d)
        A_small = (Q * a_small) @ Q.T
        upper = _min_eig(B - A_small @ B @ A_small) + SLACK
        # C A C <= C^2 for symmetric C and 0 <= A <= I
        C = rng.standard_normal((d, d))
        C = (C + C.T) / 2
        P = _rand_psd(rng, d)
        pmax = float(np.linalg.eigvalsh(P)[-1])
        if pmax > 0:
            P = P / (pmax * (1.0 + rng.uniform(0.0, 1.0)))
        quad = _min_eig(C @ C - C @ P @ C) + SLACK
        # X C X <= X implies X <= C^{-1} (X built to satisfy the premise)
        Cpd = _rand_pd(rng, d)
        W = _rand_psd(rng, d)
        wmax = float(np.linalg.eigvalsh(W)[-1])
        if wmax > 0:
            W = W / (wmax * (1.0 + rng.uniform(0.0, 1.0)))
        Cinv_half = np.linalg.inv(_sqrt_psd(Cpd))
        X = Cinv_half @ W @ Cinv_half.T
        assert _min_eig(X - X @ Cpd @ X) >= -1e-12
        implied = _min_eig(np.linalg.inv(Cpd) - X) + SLACK
        worst = min(worst, lower, upper, quad, implied)
    return worst


def run_ratio_characterization_suite(n_trials=1000, seed=104):
    """loewner_ratio(B, A) equals the whitened spectral norm, certifies
    B <= ratio*A, and ratio <= 1 iff B <= A (with slack)."""
    worst = np.inf
    for t in range(n_trials):
        rng = np.random.default_rng((seed, t))
        d = int(rng.integers(1, 9))
        A = _rand_pd(rng, d)
        B = _rand_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        if t % 2 == 0:
            # force the dominated case half the time
            r0 = loewner_ratio(B, A)
            if r0 > 0:
                B = B * (rng.uniform(0.2, 1.0) / r0)
        ratio = loewner_ratio(B, A)
        Ainv_half = np.linalg.inv(_sqrt_psd(A))
        norm = float(np.linalg.eigvalsh(Ainv_half @ B @ Ainv_half.T)[-1])
        worst = min(worst, SLACK - abs(ratio - norm) / max(1.0, norm))
        worst = min(worst, _min_eig(ratio * A - B) + SLACK)
        dominated = _min_eig(A - B) >= 0.0
        if dominated:
            worst = min(worst, 1.0 + SLACK - ratio)
        if ratio <= 1.0:
            worst = min(worst, _min_eig((1.0 + SLACK) * A - B) + SLACK)
    return worst


def run_condition_domination_suite(n_trials=1000, seed=105):
    """cond(Theta A Theta.T) <= cond(A) for orthonormal-row Theta."""
    worst = np.inf
    for t in range(n_trials):
        rng = np.random.default_rng((seed, t))
        d = int(rng.integers(2, 11))
        p = int(rng.integers(1, d + 1))
        A = _rand_pd(rng, d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, p)))
        Theta = Q.T
        sub = Theta @ A @ Theta.T
        worst = min(
            worst,
            condition_number(A) * (1.0 + SLACK) - condition_number(sub),
        )
    return worst


ALL_SUITES = (
    ("concavity", run_concavity_suite),
    ("monotonicity", run_monotonicity_suite),
    ("inverse_sandwich", run_inverse_sandwich_suite),
    ("two_sided_congruence", run_two_sided_congruence_suite),
    ("ratio_characterization", run_ratio_characterization_suite),
    ("condition_domination", run_condition_domination_suite),
)


def test_concavity_1000_instances():
    assert run_concavity_suite() >= 0


def test_monotonicity_1000_instances():
    assert run_monotonicity_suite() >= 0


def test_inverse_sandwich_1000_instances():
    assert run_inverse_sandwich_suite() >= 0


def test_two_sided_congruence_1000_instances():
    assert run_two_sided_congruence_suite() >= 0


def test_ratio_characterization_1000_instances():
    assert run_ratio_characterization_suite() >= 0


def test_condition_domination_1000_instances():
    assert run_condition_domination_suite() >= 0
