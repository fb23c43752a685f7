import math

import numpy as np
import pytest
from mpmath import mp

from wfgibbs import (
    ChainConfig,
    ConfigurationError,
    UsageError,
    build_truncated_model,
    integrated_autocorrelation,
    oracle_two_level,
    sample_ensemble,
    unitary_flow_check,
)

from conftest import harmonic

mp.dps = 60


def _dd_exp_neg(nodes):
    """Divided differences of exp(-x), allowing repeated (confluent) nodes."""
    xs = sorted(nodes)
    n = len(xs)
    table = [[mp.mpf(0)] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = mp.e ** (-xs[i])
    for width in range(1, n):
        for i in range(n - width):
            j = i + width
            if xs[i] == xs[j]:
                table[i][j] = (-1) ** width * mp.e ** (-xs[i]) / mp.factorial(width)
            else:
                table[i][j] = (table[i + 1][j] - table[i][j - 1]) / (xs[j] - xs[i])
    return table[0][n - 1]


def exact_sphere_variance(energies, off_matrix, beta):
    """Exact Var of c^dag M c over the thermal measure on the unit sphere.

    Valid for Hermitian M with zero diagonal (then the mean vanishes and
    Var = sum_{k<l} 2 |M_kl|^2 E[w_k w_l] with w_k = |c_k|^2). The moduli
    w follow a flat simplex density tilted by exp(-beta <E, w>), whose
    moments are ratios of confluent divided differences of exp.
    """
    off_matrix = np.asarray(off_matrix, dtype=float)
    assert np.max(np.abs(np.diag(off_matrix))) < 1e-6
    s = [mp.mpf(beta) * mp.mpf(float(e - energies[0])) for e in energies]
    denom = _dd_exp_neg(s)
    total = mp.mpf(0)
    n = len(s)
    for k in range(n):
        for l in range(k + 1, n):
            if off_matrix[k, l] == 0.0:
                continue
            ew = _dd_exp_neg(s + [s[k], s[l]]) / denom
            total += 2 * mp.mpf(float(off_matrix[k, l] ** 2)) * ew
    return float(total)


@pytest.fixture(scope="module")
def tm8(harmonic_grid):
    return build_truncated_model(harmonic(), 8, harmonic_grid)


def test_truncated_model_harmonic_structure(harmonic_grid):
    tm = build_truncated_model(harmonic(), 6, harmonic_grid)
    assert np.allclose(tm.energies, np.arange(6) + 0.5, atol=1e-3)
    ladder = np.sqrt((np.arange(5) + 1) / 2.0)
    # eigenvector sign conventions leave the ladder signs arbitrary
    assert np.allclose(np.abs(np.diag(tm.q_matrix, 1)), ladder, atol=1e-4)
    off_ladder = tm.q_matrix - np.diag(np.diag(tm.q_matrix, 1), 1) - np.diag(
        np.diag(tm.q_matrix, -1), -1)
    assert np.max(np.abs(off_ladder)) < 1e-4
    assert np.allclose(tm.q_matrix, tm.q_matrix.T)
    assert np.allclose(tm.p_matrix_imag, -tm.p_matrix_imag.T)
    assert np.allclose(np.abs(np.diag(tm.p_matrix_imag, 1)), ladder, atol=1e-3)


def test_expectations_of_simple_states(tm8):
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    assert tm8.expectations(e0) == (pytest.approx(0.0, abs=1e-9),) * 2
    plus = np.zeros(8, dtype=complex)
    plus[0] = plus[1] = 1 / np.sqrt(2)
    q, p = tm8.expectations(plus)
    assert q == pytest.approx(tm8.q_matrix[0, 1], abs=1e-12)
    assert p == pytest.approx(0.0, abs=1e-12)


def test_chain_config_validation():
    with pytest.raises(ConfigurationError):
        ChainConfig(chain_count=0)
    with pytest.raises(ConfigurationError):
        ChainConfig(burn_in=-1)
    with pytest.raises(ConfigurationError):
        ChainConfig(proposal_scale=0.0)


def test_negative_beta_rejected(tm8):
    with pytest.raises(UsageError):
        sample_ensemble(tm8, -1.0, ChainConfig(chain_count=1, steps_per_chain=10))


def test_bitwise_reproducibility(tm8):
    cfg = ChainConfig(chain_count=3, steps_per_chain=2000, burn_in=500, seed=11)
    a = sample_ensemble(tm8, 2.0, cfg)
    b = sample_ensemble(tm8, 2.0, cfg)
    assert np.array_equal(a.samples, b.samples)
    assert a.acceptance_rate == b.acceptance_rate
    c = sample_ensemble(tm8, 2.0, ChainConfig(chain_count=3, steps_per_chain=2000,
                                              burn_in=500, seed=12))
    assert not np.array_equal(a.samples, c.samples)


def test_acceptance_rate_tuned(tm8):
    cfg = ChainConfig(chain_count=4, steps_per_chain=5000, burn_in=2000, seed=3)
    run = sample_ensemble(tm8, 2.0, cfg)
    assert 0.2 < run.acceptance_rate < 0.6
    assert run.integrated_autocorrelation_time >= 1.0


def test_chain_states_stay_normalized(tm8):
    # the first 4096-step noise block straddles the end of burn-in
    cfg = ChainConfig(chain_count=2, steps_per_chain=5000, burn_in=4000, seed=7,
                      keep_coefficients=True)
    run = sample_ensemble(tm8, 2.0, cfg)
    norms = np.linalg.norm(run.coefficients, axis=2)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    # every retained sample is the quadratic form of its own retained state
    assert np.array_equal(np.stack(tm8.expectations(run.coefficients), axis=-1),
                          run.samples)


def test_engine_matches_step_by_step_replay(tm8):
    # burn-in ends inside the first noise block and is too short to tune sigma
    cfg = ChainConfig(chain_count=1, steps_per_chain=5000, burn_in=150, seed=9)
    run = sample_ensemble(tm8, 2.0, cfg)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    e_shift = tm8.energies - tm8.energies[0]
    c = rng.standard_normal(2 * tm8.n).view(np.complex128)[None]
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    energy = (np.abs(c) ** 2) @ e_shift
    replay = []
    total = cfg.burn_in + cfg.steps_per_chain
    for start in range(0, total, 4096):
        block = min(4096, total - start)
        noise = rng.standard_normal((block, 2 * tm8.n)).view(np.complex128)
        uniforms = rng.random(block)
        for j in range(block):
            prop = c + cfg.proposal_scale * noise[j]
            prop /= np.sqrt(np.sum(prop.real**2 + prop.imag**2, axis=1))[:, None]
            e_prop = (prop.real**2 + prop.imag**2) @ e_shift
            if uniforms[j] < np.exp(-2.0 * max(e_prop[0] - energy[0], 0.0)):
                c, energy = prop, e_prop
            if start + j >= cfg.burn_in:
                replay.append(tm8.expectations(c[0]))
    assert np.array_equal(np.array(replay), run.samples[0])


@pytest.mark.parametrize("beta", [0.0, 1.0, 10.0])
def test_two_level_matches_quadrature_oracle(beta, harmonic_grid):
    tm = build_truncated_model(harmonic(), 2, harmonic_grid)
    oracle = oracle_two_level(tm.energies[0], tm.energies[1], tm.q_matrix, beta,
                              tm.p_matrix_imag)
    cfg = ChainConfig(chain_count=4, steps_per_chain=20_000, burn_in=3000, seed=21)
    run = sample_ensemble(tm, beta, cfg)
    mom = run.moment_summary()
    for key in ("mean_q", "mean_p", "var_q", "var_p"):
        se = max(mom[f"{key}_se"], 1e-4)
        assert abs(mom[key] - oracle[key]) < 5 * se, (key, mom[key], oracle[key], se)


def test_exact_oracle_agrees_with_quadrature(harmonic_grid):
    # two independent oracles for N = 2: sphere quadrature vs divided
    # differences of the tilted simplex measure
    tm = build_truncated_model(harmonic(), 2, harmonic_grid)
    for beta in (0.0, 1.0, 4.0):
        quad = oracle_two_level(tm.energies[0], tm.energies[1], tm.q_matrix, beta)
        exact = exact_sphere_variance(tm.energies, tm.q_matrix, beta)
        assert exact == pytest.approx(quad["var_q"], abs=1e-9)


def test_sampler_matches_exact_variance(tm8):
    beta = 2.0
    exact = exact_sphere_variance(tm8.energies, tm8.q_matrix, beta)
    # anchor computed from the analytic ladder; grid discretization ~1e-5
    assert exact == pytest.approx(0.2582499587, abs=5e-5)
    cfg = ChainConfig(chain_count=4, steps_per_chain=25_000, burn_in=3000, seed=17)
    run = sample_ensemble(tm8, beta, cfg)
    mom = run.moment_summary()
    assert abs(mom["var_q"] - exact) < 5 * mom["var_q_se"]
    assert abs(mom["mean_q"]) < 5 * mom["mean_q_se"] + 1e-4


def test_truncation_converges_from_below(harmonic_grid):
    # Var(<q>) at beta = 2 increases with basis size toward the
    # infinite-basis value (beta w - 1 + exp(-beta w)) / (beta w)^2
    beta, omega = 2.0, 1.0
    exact = {}
    for n in (2, 8, 16, 24):
        tm = build_truncated_model(harmonic(), n, harmonic_grid)
        exact[n] = exact_sphere_variance(tm.energies, tm.q_matrix, beta)
    limit = (beta * omega - 1.0 + math.exp(-beta * omega)) / (beta * omega) ** 2
    assert exact[2] < exact[8] < exact[16] < exact[24] < limit
    assert exact[24] == pytest.approx(0.2758053444, abs=5e-5)
    # N = 16 is already within 2.5% of N = 24
    assert abs(exact[24] - exact[16]) / exact[24] < 0.025


def test_unitary_flow_leaves_moments_invariant(tm8):
    cfg = ChainConfig(chain_count=4, steps_per_chain=8000, burn_in=2000, seed=9,
                      keep_coefficients=True)
    run = sample_ensemble(tm8, 2.0, cfg)
    report = unitary_flow_check(run, tm8, t=0.7)
    for key, entry in report["moments"].items():
        assert abs(entry["diff"]) < 6 * entry["se"] + 1e-10, (key, entry)


def test_unitary_flow_requires_coefficients(tm8):
    run = sample_ensemble(tm8, 2.0, ChainConfig(chain_count=1, steps_per_chain=100))
    with pytest.raises(UsageError):
        unitary_flow_check(run, tm8, t=0.5)


def test_iat_of_white_noise_is_one():
    rng = np.random.default_rng(0)
    tau = integrated_autocorrelation(rng.standard_normal(20_000))
    assert tau == pytest.approx(1.0, abs=0.15)
    assert integrated_autocorrelation(np.ones(100)) == 1.0


def test_iat_of_correlated_series_is_large():
    rng = np.random.default_rng(1)
    x = np.zeros(20_000)
    for i in range(1, len(x)):  # AR(1), rho = 0.95: tau = (1+rho)/(1-rho) = 39
        x[i] = 0.95 * x[i - 1] + rng.standard_normal()
    tau = integrated_autocorrelation(x)
    assert 25 < tau < 55
