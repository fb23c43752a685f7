"""Acceptance suite: one test (one pass/fail line under pytest -v) per
criterion. Criteria 2 and 5 are marked xfail(strict) in their literally
stated form — the stated inequality/target contradicts the variational
structure of the model and the exact truncated-ensemble measure — and each
is accompanied by a green companion test asserting the correct statement.
"""

import time

import numpy as np
import pytest

from wfgibbs import (
    ChainConfig,
    build_truncated_model,
    build_two_state,
    canonical_atoms,
    effective_potential,
    exact_moments,
    lowest_eigenpairs,
    sample_ensemble,
    table_for_betas,
    two_state_curve,
)
from wfgibbs.constrain import solve_lambda
from wfgibbs.lattice import assemble_hamiltonian
from wfgibbs.thermal import bin_masses

from conftest import (DOUBLE_WELL_MASSES, DOUBLE_WELL_REFERENCE, double_well,
                      exact_sphere_variance, harmonic, inner_product, momentum_expectation,
                      retained_states, two_state_coherent, unitary_flow_check)


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_golden_doublet_values(two_state_models):
    start = time.perf_counter()
    worst = 0.0
    for mass in DOUBLE_WELL_MASSES:
        ts = two_state_models[mass]
        ref = DOUBLE_WELL_REFERENCE[mass]
        for got, want in ((ts.e1, ref["e1"]), (ts.e2, ref["e2"]), (ts.d, ref["d"])):
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    report(1, worst < 5e-4 and elapsed < 30.0,
           f"12 reference values, worst relative error {worst:.2e}, {elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the exact curves lie BELOW the two-state arc: the arc is the "
    "constrained minimum over a two-dimensional subspace, so the full "
    "minimization can only do better (lower); the stated ordering is "
    "unattainable. See test_criterion_2_companion for the correct ordering.",
)
def test_criterion_2_stated_exact_above_arc(dw_tables):
    for mass in DOUBLE_WELL_MASSES:
        table = dw_tables[mass]
        ts = table.doublet
        u = table.q / ts.d
        rescaled = (table.v_eff - ts.mean_level) / (0.5 * ts.splitting)
        arc = -np.sqrt(1.0 - u**2)
        interior = np.abs(u) < 0.999
        assert np.all(rescaled[interior] > arc[interior] + 1e-12)


def test_criterion_2_companion_exact_below_arc_gap_shrinks(two_state_models, dw_grid):
    # variational ordering: exact <= arc, equality at q = 0; and the
    # two-state approximation improves (gap at q/d = 0.5 shrinks) with m
    gaps = []
    for mass in DOUBLE_WELL_MASSES:
        ts = two_state_models[mass]
        q = np.array([0.0, 0.5 * ts.d])
        table = effective_potential(ts, q, dw_grid)
        rescaled = (table.v_eff - ts.mean_level) / (0.5 * ts.splitting)
        arc = -np.sqrt(1.0 - (q / ts.d) ** 2)
        assert rescaled[0] == pytest.approx(arc[0], abs=1e-9)  # touch at q = 0
        assert rescaled[1] <= arc[1] + 1e-12
        gaps.append(arc[1] - rescaled[1])
    ok = all(a > b > 0 for a, b in zip(gaps, gaps[1:]))
    report(2, ok, f"exact below arc; gaps at q/d=0.5 by mass: "
                  f"{[f'{g:.2e}' for g in gaps]}")


def test_criterion_3_harmonic_closed_forms(harmonic_grid):
    start = time.perf_counter()
    op = assemble_hamiltonian(harmonic(), harmonic_grid)
    worst_v = worst_l = 0.0
    for q in np.linspace(-3.0, 3.0, 13):
        cs = solve_lambda(op, float(q))
        worst_v = max(worst_v, abs(cs.v_eff - (0.5 + 0.5 * q**2)))
        worst_l = max(worst_l, abs(cs.lam + q))
    elapsed = time.perf_counter() - start
    report(3, worst_v < 1e-6 and worst_l < 1e-6 and elapsed < 5.0,
           f"|v_eff err| {worst_v:.2e}, |lambda err| {worst_l:.2e}, {elapsed:.1f}s")


def test_criterion_4_two_state_asymptotes(two_state_models):
    ts = two_state_models[0.2]
    t = np.array([0.01, 100.0])
    betas = 2.0 / (t * ts.splitting)
    curve = two_state_curve(ts, betas)
    cold, hot = curve.delta_q_over_d
    ok_hot = abs(hot - 1.0 / np.sqrt(3.0)) < 1e-3
    ok_cold = abs(cold - np.sqrt(0.01)) / np.sqrt(0.01) < 0.05
    report(4, ok_hot and ok_cold,
           f"dq/d(T=100)={hot:.6f} vs 1/sqrt(3)={1/np.sqrt(3):.6f}; "
           f"dq/d(T=0.01)={cold:.6f} vs sqrt(T)=0.1")


@pytest.fixture(scope="module")
def harmonic_run_n24(harmonic_grid):
    tm = build_truncated_model(harmonic(), 24, harmonic_grid)
    cfg = ChainConfig(chain_count=4, steps_per_chain=200_000, burn_in=10_000, seed=1)
    start = time.perf_counter()
    run = sample_ensemble(tm, 2.0, cfg)
    return tm, run, time.perf_counter() - start


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the Gaussian law Var(q)=1/(beta m w^2) for the harmonic "
    "oscillator holds only in the beta*w -> infinity limit of the "
    "truncated-sphere ensemble; at beta=2 the exact variance of the "
    "measure being sampled is 0.2758 (N=24), not 0.5. The sampler is "
    "correct — see test_criterion_5_companion.",
)
def test_criterion_5_stated_harmonic_gaussian_law(harmonic_run_n24):
    tm, run, elapsed = harmonic_run_n24
    mom = run.moment_summary()
    assert elapsed < 60.0
    assert abs(mom["mean_q"]) < 3 * mom["mean_q_se"]
    assert abs(mom["mean_p"]) < 3 * mom["mean_p_se"]
    assert abs(mom["var_q"] - 0.5) < 3 * mom["var_q_se"]
    assert abs(mom["var_p"] - 0.5) < 3 * mom["var_p_se"]


def test_criterion_5_companion_exact_ensemble_variance(harmonic_run_n24):
    # same run, judged against the exact variance of the sampled measure
    # (confluent divided differences over the tilted simplex of moduli)
    tm, run, elapsed = harmonic_run_n24
    mom = run.moment_summary()
    var_q = exact_sphere_variance(tm.energies, tm.q_matrix, 2.0)
    # |P_kl| = |A_kl|, so the same formula applies to the momentum form
    var_p = exact_sphere_variance(tm.energies, np.abs(tm.p_matrix_imag), 2.0)
    ok = (elapsed < 60.0
          and abs(mom["mean_q"]) < 3 * mom["mean_q_se"]
          and abs(mom["mean_p"]) < 3 * mom["mean_p_se"]
          and abs(mom["var_q"] - var_q) < 3 * mom["var_q_se"]
          and abs(mom["var_p"] - var_p) < 3 * mom["var_p_se"])
    report(5, ok,
           f"var_q {mom['var_q']:.5f} vs exact {var_q:.5f} "
           f"(se {mom['var_q_se']:.1e}); var_p {mom['var_p']:.5f} vs "
           f"exact {var_p:.5f}; {elapsed:.1f}s")


def two_level_quadrature(tm, beta: float, n_w: int = 400, n_theta: int = 512) -> dict:
    """Exact moments of (<q>, <p>) for a two-level model, by quadrature.

    The sphere of C^2 is parametrized by the excited-level weight
    w = |c_2|^2 (uniform on [0, 1] under the round measure) and the
    relative phase theta (uniform); the thermal density is
    exp(-beta (e2 - e1) w). Gauss-Legendre in w and a trapezoid rule in
    theta (spectrally accurate for the periodic integrand) give moments
    to ~1e-10.
    """
    assert tm.n == 2
    q, a12 = tm.q_matrix, tm.p_matrix_imag[0, 1]
    nodes, wts = np.polynomial.legendre.leggauss(n_w)
    w = 0.5 * (nodes + 1.0)
    ww = 0.5 * wts
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)

    dens = np.exp(-beta * (tm.energies[1] - tm.energies[0]) * w)
    z = np.sum(dens * ww)

    w2, t2 = np.meshgrid(w, theta, indexing="ij")
    cross = 2.0 * np.sqrt(w2 * (1.0 - w2))
    qv = q[0, 0] * (1 - w2) + q[1, 1] * w2 + q[0, 1] * cross * np.cos(t2)
    pv = -a12 * cross * np.sin(t2)

    weight = (dens * ww)[:, None] / (z * n_theta)

    def mom(arr, k):
        return float(np.sum(weight * arr**k))

    mean_q, mean_p = mom(qv, 1), mom(pv, 1)
    return {
        "mean_q": mean_q,
        "mean_p": mean_p,
        "var_q": mom(qv, 2) - mean_q**2,
        "var_p": mom(pv, 2) - mean_p**2,
    }


def test_criterion_6_two_level_oracle_equivalence(harmonic_grid):
    tm = build_truncated_model(harmonic(), 2, harmonic_grid)
    all_ok, details = True, []
    for beta in (0.0, 1.0, 10.0):
        oracle = two_level_quadrature(tm, beta)
        cfg = ChainConfig(chain_count=4, steps_per_chain=30_000, burn_in=3000,
                          seed=42)
        mom = sample_ensemble(tm, beta, cfg).moment_summary()
        for key in ("mean_q", "mean_p", "var_q", "var_p"):
            se = max(mom[f"{key}_se"], 1e-6)
            if abs(mom[key] - oracle[key]) >= 3 * se:
                all_ok = False
                details.append(f"beta={beta} {key}: {mom[key]:.5f} vs "
                               f"{oracle[key]:.5f} (se {se:.1e})")
        if beta == 0.0:
            uniform = tm.q_matrix[0, 1] ** 2 / 3.0
            if abs(oracle["var_q"] - uniform) > 1e-9:
                all_ok = False
                details.append("beta=0 oracle disagrees with Q12^2/3")
    report(6, all_ok, "all moments within 3 s.e. at beta in {0, 1, 10}"
           if all_ok else "; ".join(details))


def test_criterion_7_low_temperature_marginal(dw_grid):
    mp = double_well(0.2)
    ts = build_two_state(mp, dw_grid)
    beta = 20.0 / ts.splitting
    tm = build_truncated_model(mp, 8, dw_grid)
    cfg = ChainConfig(chain_count=8, steps_per_chain=125_000, burn_in=10_000, seed=2)
    run = sample_ensemble(tm, beta, cfg)
    q = run.q
    assert len(q) >= 1_000_000

    span = 1.05 * float(np.max(np.abs(q)))
    bins = np.linspace(-span, span, 102)
    hist, _ = np.histogram(q, bins=bins)
    table = table_for_betas(ts, [beta], n_q=121, grid=dw_grid)
    model_mass = bin_masses(table, beta, bins)
    tv = 0.5 * float(np.abs(hist / hist.sum() - model_mass).sum())
    report(7, tv < 0.05,
           f"total variation {tv:.4f} < 0.05 with {len(q)} samples, "
           f"beta*(E2-E1)=20")


def test_criterion_8_canonical_contrast(dw_grid, two_state_models):
    mp = double_well(0.2)
    ts = two_state_models[0.2]
    beta = 1.0 / ts.splitting
    # both sides on the same 24 levels: the atoms and the exact law of the
    # wave-function ensemble (measured delta_q/d = 0.378)
    tm = build_truncated_model(mp, 24, dw_grid)
    atoms = canonical_atoms(tm, beta)
    delta_q = np.sqrt(exact_moments(tm, beta)["var_q"])
    ok = np.max(np.abs(atoms.positions)) < 1e-8 and delta_q > 0.1 * ts.d
    report(8, ok,
           f"canonical max|q_k| = {np.max(np.abs(atoms.positions)):.1e}; "
           f"ensemble delta_q/d = {delta_q / ts.d:.3f} > 0.1")


def test_criterion_9_structural_invariants(dw_tables, two_state_models, dw_grid):
    checks = {}

    table = dw_tables[0.5]
    checks["V_eff convex"] = bool(np.all(np.diff(table.v_eff, 2) > -1e-9))
    checks["lambda monotone"] = bool(np.all(np.diff(table.lam) < 0))
    grad = np.gradient(table.v_eff, table.q)
    checks["envelope dV/dq = -lambda"] = bool(
        np.max(np.abs(grad[5:-5] + table.lam[5:-5])) < 2e-3)

    ts = two_state_models[0.5]
    psi = two_state_coherent(ts, 0.4 * ts.d, 0.8)
    checks["coherent-state closure"] = (
        abs(inner_product(psi, psi, dw_grid) - 1.0) < 1e-9
        and abs(inner_product(psi, dw_grid.x * psi, dw_grid) - 0.4 * ts.d) < 1e-8
        and abs(momentum_expectation(psi, dw_grid, 1.0) - 0.8) < 1e-4)

    pairs = lowest_eigenpairs(assemble_hamiltonian(double_well(0.5), dw_grid), 6)
    phis = np.stack([p.wavefunction for p in pairs])
    gram = dw_grid.dx * (phis @ phis.T)
    checks["orthonormality"] = bool(np.max(np.abs(gram - np.eye(6))) < 1e-8)

    tm = build_truncated_model(double_well(0.5), 8, dw_grid)
    cfg = ChainConfig(chain_count=4, steps_per_chain=10_000, burn_in=2000, seed=19)
    run, states = retained_states(tm, 2.0, cfg)
    flow = unitary_flow_check(run, states, tm, t=0.9, hbar=1.0)
    checks["unitary-flow invariance"] = all(
        abs(e["diff"]) < 6 * e["se"] + 1e-10 for e in flow["moments"].values())

    failed = [k for k, v in checks.items() if not v]
    report(9, not failed,
           "all structural invariants hold" if not failed
           else f"failed: {failed}")
