import dataclasses
from collections import Counter

import numpy as np
import pytest

from wfgibbs import (
    GridSpec,
    ModelParams,
    QuarticDoubleWell,
    SolverError,
    Tilted,
    UsageError,
    build_two_state,
    effective_potential,
    fluctuation_curve,
)
from wfgibbs import constrain, spectra
from wfgibbs.constrain import default_grid, lambda_walk_table, solve_lambda
from wfgibbs.lattice import assemble_hamiltonian, position_element, tilt_hamiltonian
from wfgibbs.spectra import lowest_eigenpairs, tilt_response

from conftest import (DOUBLE_WELL_MASSES, coherent_state, double_well, harmonic, inner_product,
                      momentum_expectation)


def test_symmetric_zero_target_shortcut(dw_grid):
    cs = solve_lambda(assemble_hamiltonian(double_well(0.5), dw_grid), 0.0)
    assert cs.lam == 0.0
    assert cs.v_eff == cs.ground_energy
    assert cs.constraint_residual < 1e-10


@pytest.mark.parametrize("q", [0.5, -0.7, 1.3])
def test_harmonic_multiplier_closed_form(q, harmonic_grid):
    # for V = m w^2 x^2 / 2 the exact multiplier is -m w^2 q and the
    # effective potential is hbar w / 2 + m w^2 q^2 / 2
    cs = solve_lambda(assemble_hamiltonian(harmonic(), harmonic_grid), q)
    assert cs.lam == pytest.approx(-q, abs=1e-5)
    assert cs.v_eff == pytest.approx(0.5 + 0.5 * q**2, abs=1e-5)


def test_constraint_residual_within_tolerance(dw_grid):
    op = assemble_hamiltonian(double_well(0.2), dw_grid)
    for q in (0.3, 0.9):
        cs = solve_lambda(op, q)
        assert cs.constraint_residual <= 1e-8 * max(1.0, abs(q))
        measured = position_element(cs.wavefunction, cs.wavefunction, dw_grid)
        assert measured == pytest.approx(q, abs=1.1e-8)


def test_unreachable_target_raises(monkeypatch):
    # the hard walls at +-6 stop <q> short of 10: Newton stalls and stops
    solves = counted_k1_solves(monkeypatch)
    grid = GridSpec(-6.0, 6.0, 301)
    with pytest.raises(SolverError, match="stalls .* short of"):
        solve_lambda(assemble_hamiltonian(double_well(0.5), grid), 10.0)
    assert len(solves) < 30


@pytest.mark.parametrize("potential", ["mirrored", "tilted"])
def test_unreachable_table_node_raises(potential):
    # a table with a hole is not V_eff: a node beyond the hard walls at +-6
    # raises, on the solved side of a mirrored problem and on the second,
    # lower side of a tilted one
    grid = GridSpec(-6.0, 6.0, 301)
    if potential == "mirrored":
        mp, q_grid = double_well(0.5), [-10.0, 0.0, 10.0]
    else:
        mp, q_grid = ModelParams(0.5, 1.0, Tilted(QuarticDoubleWell(1.0, 1.5), 0.05)), [-10.0, 1.0]
    ts = build_two_state(mp, grid)
    with pytest.raises(SolverError, match="stalls .* short of -?10.0"):
        effective_potential(ts, q_grid, grid)


@pytest.mark.parametrize("q_target", [0.6, np.float64(0.6)], ids=["float", "numpy"])
def test_zero_susceptibility_is_a_stall(q_target, monkeypatch):
    # a zero slope gives no Newton step: before the root is bracketed that
    # is the stall SolverError, not a ZeroDivisionError or a divide warning
    response = constrain.tilt_response

    def flat(op, ground):
        return (0.0, *response(op, ground)[1:])

    monkeypatch.setattr(constrain, "tilt_response", flat)
    grid = GridSpec(-6.0, 6.0, 301)
    with pytest.raises(SolverError, match="stalls .* short of 0.6") as err:
        solve_lambda(assemble_hamiltonian(double_well(0.5), grid), q_target)
    assert err.value.residual == pytest.approx(0.6)


def test_newton_step_cap_raises(dw_grid, monkeypatch):
    monkeypatch.setattr(constrain, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(SolverError, match="Newton steps") as err:
        solve_lambda(assemble_hamiltonian(double_well(0.5), dw_grid), 0.9)
    assert err.value.residual > 1e-8


def _ground_q(op, lam):
    phi = lowest_eigenpairs(tilt_hamiltonian(op, lam), 1)[0].wavefunction
    return position_element(phi, phi, op.grid)


@pytest.mark.parametrize("mass, lam", [(0.2, 0.0), (0.5, 0.3), (1.5, -0.02), (1.5, 2.0)])
def test_susceptibility_matches_central_difference(mass, lam, dw_grid):
    op = assemble_hamiltonian(double_well(mass), dw_grid)
    tilted = tilt_hamiltonian(op, lam)
    chi = tilt_response(tilted, lowest_eigenpairs(tilted, 1)[0])[0]
    h = 1e-4 * max(abs(lam), 0.01)
    central = (_ground_q(op, lam + h) - _ground_q(op, lam - h)) / (2.0 * h)
    assert chi < 0
    assert chi == pytest.approx(central, rel=1e-4)


@pytest.mark.parametrize("mass, omega, lam", [(1.0, 1.0, 0.0), (1.0, 1.0, -2.0), (2.0, 0.5, 0.7)])
def test_harmonic_susceptibility_closed_form(mass, omega, lam, harmonic_grid):
    # H + lambda q shifts the oscillator by -lambda / (m w^2), so
    # dq/dlambda = -1 / (m w^2) at every lambda
    tilted = tilt_hamiltonian(assemble_hamiltonian(harmonic(mass, omega), harmonic_grid), lam)
    chi = tilt_response(tilted, lowest_eigenpairs(tilted, 1)[0])[0]
    assert chi == pytest.approx(-1.0 / (mass * omega**2), rel=1e-5)


@pytest.mark.parametrize("mass", [0.2, 0.5])
def test_eigensolves_per_constrained_point(mass, two_state_models, dw_grid, monkeypatch):
    k1_solves, fallbacks = [], []
    solve = constrain.lowest_eigenpairs

    def counted(op, k, *args, **kwargs):
        pairs = solve(op, k, *args, **kwargs)
        if k == 1:
            k1_solves.append(k)
            if pairs[0].work["lapack_fallbacks"] == 1:
                fallbacks.append(k)
        return pairs

    monkeypatch.setattr(constrain, "lowest_eigenpairs", counted)
    ts = two_state_models[mass]
    q = np.linspace(-0.995 * ts.d, 0.995 * ts.d, 21)
    table = effective_potential(ts, q, dw_grid)
    assert len(table.q) == len(q)
    # measured 1.57 (m=0.2) and 1.67 (m=0.5) k=1 solves per point; the
    # bound leaves a margin of about 1.2
    assert len(k1_solves) / len(q) <= 2
    # the table metadata records the same counts: every solve starts warm,
    # the untilted one from the doublet's even state, so the only cold
    # solves are fallbacks; measured 4.76 and 5.24 dptsv factorizations
    # per point
    assert table.meta["eigensolves"] == len(k1_solves)
    assert table.meta["lapack_fallbacks"] == len(fallbacks) <= len(k1_solves)
    assert len(k1_solves) <= table.meta["factorizations"] <= 6 * len(q)


WORK_KEYS = ["eigensolves", "lapack_fallbacks", "factorizations", "factorized_rows"]


def counted_work(monkeypatch):
    """Counter that grows, as a table is built, by every dptsv solve and its
    rows, every k=1 eigensolve made in constrain and every one of those
    given a start that ran the cold solve."""
    seen = Counter()
    solve, eigenpairs = spectra._solve, constrain.lowest_eigenpairs

    def counted_solve(diagonal, off_diagonal, rhs):
        seen.update(factorizations=1, factorized_rows=len(diagonal))
        return solve(diagonal, off_diagonal, rhs)

    def counted_eigenpairs(op, k, *args, **kwargs):
        pairs = eigenpairs(op, k, *args, **kwargs)
        if k == 1:
            cold = pairs[0].work["lapack_fallbacks"] == 1
            seen.update(eigensolves=1, lapack_fallbacks=int(cold))
        return pairs

    monkeypatch.setattr(spectra, "_solve", counted_solve)
    monkeypatch.setattr(constrain, "lowest_eigenpairs", counted_eigenpairs)
    return seen


@pytest.mark.parametrize("build", ["mirrored", "two_sided", "walk", "walk_falling_back"])
def test_table_work_record_is_exact(build, monkeypatch):
    # the table's meta counts every solve made for it, in a fixed key order,
    # on one side and mirrored, on both sides of an asymmetric grid, on free
    # nodes, and with every warm start falling back to the cold solve
    grid = GridSpec(-6.0, 6.0, 801) if build == "mirrored" else GridSpec(-6.0, 7.0, 1001)
    ts = build_two_state(double_well(0.5), grid)
    if build == "walk_falling_back":
        # one step, then a return without a certified roundoff residual
        monkeypatch.setattr(spectra, "MAX_INVERSE_STEPS", 1)
    seen = counted_work(monkeypatch)
    if build.startswith("walk"):
        table = lambda_walk_table(ts, 2.0, 21, grid)
    else:
        table = effective_potential(ts, np.linspace(-0.99 * ts.d, 0.99 * ts.d, 21), grid)
    assert list(table.meta)[-4:] == WORK_KEYS
    assert [table.meta[k] for k in WORK_KEYS] == [seen[k] for k in WORK_KEYS]
    assert seen["factorizations"] >= seen["eigensolves"] > 0
    if build == "walk_falling_back":
        assert seen["lapack_fallbacks"] == seen["eigensolves"]


def test_extrapolated_start_is_the_polynomial_through_the_last_nodes():
    # _lagrange is exact on a quadratic, for scalar and vector values: three
    # nodes reproduce it, two give the line through them, one gives itself
    rng = np.random.default_rng(0)
    a, b, c = rng.normal(size=(3, 50))

    def phi(lam):
        return a + b * lam + c * lam**2

    known = [(lam, phi(lam)) for lam in (0.0, -0.02, -0.05)]
    assert np.allclose(constrain._lagrange(known, -0.08), phi(-0.08), rtol=0, atol=1e-14)
    line = phi(-0.05) + (phi(-0.05) - phi(-0.02)) / (-0.05 + 0.02) * (-0.08 + 0.05)
    assert np.allclose(constrain._lagrange(known[1:], -0.08), line, rtol=0, atol=1e-14)
    assert np.array_equal(constrain._lagrange(known[2:], -0.08), known[2][1])
    lam_of_q = [(q, 0.3 - 1.2 * q + 0.7 * q**2) for q in (0.0, 0.1, 0.25)]
    assert constrain._lagrange(lam_of_q, 0.4) == pytest.approx(0.3 - 0.48 + 0.112, abs=1e-15)
    assert constrain._lagrange(lam_of_q[2:], 0.4) == lam_of_q[2][1]
    # the start is used only while its correction to the last phi is below
    # half of that phi in norm
    near = constrain._lagrange(known, -0.08)
    assert constrain._perturbed(known[2][1], near) is near
    assert constrain._perturbed(known[2][1], constrain._lagrange(known, 10.0)) is known[2][1]


def test_fluct_preset_table_work(two_state_models, dw_grid, monkeypatch):
    # the fluct preset at m = 0.2: 163 free nodes on the widened 7141-point
    # grid; each node's first eigensolve starts from the ground state
    # extrapolated through the last three nodes (measured 315 dptsv
    # factorizations, 3.8 per eigensolve)
    from wfgibbs.thermal import table_for_betas

    ts = two_state_models[0.2]
    betas = 2.0 / (np.logspace(-2, 2, 60) * ts.splitting)
    table = table_for_betas(ts, betas, 161, dw_grid)
    assert table.meta["grid"]["n_points"] == 7141 and len(table.q) == 163
    assert table.meta["eigensolves"] == 82
    assert table.meta["lapack_fallbacks"] == 0
    assert table.meta["factorizations"] <= 4 * table.meta["eigensolves"]
    # each warm solve factors the window of its start (measured 1058560
    # rows, 47% of the whole grid's), and the table is that of whole-grid
    # solves
    monkeypatch.setattr(spectra, "WINDOW_SHARE", 0.0)
    whole = table_for_betas(ts, betas, 161, dw_grid)
    assert whole.meta["factorized_rows"] == 7141 * whole.meta["factorizations"]
    assert table.meta["factorized_rows"] < 0.55 * whole.meta["factorized_rows"]
    assert {k: whole.meta[k] for k in ("eigensolves", "lapack_fallbacks", "factorizations")} \
        == {k: table.meta[k] for k in ("eigensolves", "lapack_fallbacks", "factorizations")}
    for column in ("q", "v_eff", "lam"):
        assert np.allclose(getattr(table, column), getattr(whole, column), rtol=1e-13, atol=1e-13)


NEWTON_CASES = [(0.2, 0.3), (0.5, 0.9), (1.5, -1.2)]


def _newton_step_starts(mass, q_target, grid):
    """(the tilted operator one Newton step from a multiplier 10% past the
    root, the ground state phi there, the first-order start
    u + dlam dphi/dlambda, and the tilt response's tangent)."""
    op = assemble_hamiltonian(double_well(mass), grid)
    lam = 1.1 * solve_lambda(op, q_target).lam
    tilted = tilt_hamiltonian(op, lam)
    pair = lowest_eigenpairs(tilted, 1)[0]
    phi = pair.wavefunction
    chi, tangent, _ = tilt_response(tilted, pair)
    step = -(position_element(phi, phi, grid) - q_target) / chi
    target = tilt_hamiltonian(op, lam + step)
    return target, phi, constrain._first_order(phi, step, tangent), tangent


@pytest.mark.parametrize("mass, q_target", NEWTON_CASES)
def test_newton_first_order_start_is_closer(mass, q_target, dw_grid):
    # the first-order start lies closer to the ground state at the new
    # multiplier than u itself (measured 13-150 times), and the warm solve
    # from it takes no more factorizations (measured 2, 3 and 3 against 3,
    # 4 and 3: at m=1.5 the first-order start's second residual, 6.1e-8,
    # is just above that operator's roundoff floor of 3.3e-8)
    target, phi, first_order, tangent = _newton_step_starts(mass, q_target, dw_grid)
    exact = lowest_eigenpairs(target, 1)[0].wavefunction
    assert first_order is not phi  # a perturbation, not the guarded fallback

    def distance(v):
        return np.linalg.norm(v / np.linalg.norm(v) - exact / np.linalg.norm(exact))

    assert distance(first_order) < 0.1 * distance(phi)
    warm = lowest_eigenpairs(target, 1, start=first_order)[0]
    plain = lowest_eigenpairs(target, 1, start=phi)[0]
    assert warm.work["lapack_fallbacks"] == plain.work["lapack_fallbacks"] == 0
    assert warm.work["factorizations"] <= plain.work["factorizations"]
    # a correction as large as the state itself is not used
    assert constrain._first_order(phi, 1.0 / np.linalg.norm(tangent), tangent) is phi


def test_newton_first_order_starts_save_factorizations(dw_grid):
    # over the three cases the first-order starts take fewer factorizations
    # than the plain ones (measured 8 against 10)
    warm = plain = 0
    for mass, q_target in NEWTON_CASES:
        target, phi, first_order, _ = _newton_step_starts(mass, q_target, dw_grid)
        warm += lowest_eigenpairs(target, 1, start=first_order)[0].work["factorizations"]
        plain += lowest_eigenpairs(target, 1, start=phi)[0].work["factorizations"]
    assert warm < plain


def test_certified_warm_solve_factors_no_more(dw_grid):
    # m=0.2, q=0.3: the first-order start's residuals run 2.2e-4, then
    # 1.9e-8, below the roundoff floor 2.5e-7, whose shift the second
    # factorization certifies; the step from it (residual 5.6e-11) halves
    # that and is returned without a third factorization
    target, _, first_order, _ = _newton_step_starts(0.2, 0.3, dw_grid)
    warm = lowest_eigenpairs(target, 1, start=first_order)[0]
    assert warm.work["lapack_fallbacks"] == 0
    assert warm.work["factorizations"] == 2
    assert warm.residual <= 0.5 * spectra.SHIFT_FLOOR * target.norm_estimate


@pytest.mark.parametrize("mass", [0.2, 1.5])
def test_quadratic_prediction_saves_newton_steps(mass, two_state_models, dw_grid, monkeypatch):
    # the veff preset's 81 nodes: a prescribed node's lambda extrapolated
    # through the last three nodes leaves one Newton step at 21 (m=0.2) and
    # 17 (m=1.5) of the 40 solved nodes, against 6 and 5 by the secant
    steps = []
    solve = constrain.solve_lambda

    def counted(*args, **kwargs):
        cs = solve(*args, **kwargs)
        steps.append(cs.work["eigensolves"] - 1)
        return cs

    monkeypatch.setattr(constrain, "solve_lambda", counted)
    ts = two_state_models[mass]
    q = np.linspace(-0.995 * ts.d, 0.995 * ts.d, 81)
    effective_potential(ts, q, dw_grid)
    assert len(steps) == 40
    assert steps.count(1) >= 15


def test_mirrored_table_has_exact_parity(two_state_models, dw_grid):
    # a symmetric q grid is solved on q > 0 and mirrored; the q column is the
    # grid as given, although linspace is not bitwise odd
    ts = two_state_models[0.5]
    q = np.linspace(-0.995 * ts.d, 0.995 * ts.d, 21)
    table = effective_potential(ts, q, dw_grid)
    assert np.array_equal(table.q, q)
    assert np.array_equal(table.v_eff, table.v_eff[::-1])
    assert np.array_equal(table.lam, -table.lam[::-1])


@pytest.mark.parametrize("mass", DOUBLE_WELL_MASSES)
def test_table_is_convex_and_symmetric(mass, dw_tables):
    table = dw_tables[mass]
    second = np.diff(table.v_eff, 2)
    assert np.all(second > -1e-9)
    assert np.allclose(table.v_eff, table.v_eff[::-1], atol=1e-7)
    assert np.allclose(table.lam, -table.lam[::-1], atol=1e-6)


def test_multiplier_is_minus_gradient(dw_tables):
    table = dw_tables[0.5]
    grad = np.gradient(table.v_eff, table.q)
    # central differences on the interior, away from the steep endpoints
    inner = slice(5, -5)
    assert np.allclose(-grad[inner], table.lam[inner], atol=2e-3)


def test_minimum_at_zero_equals_ground_energy(dw_tables, two_state_models):
    for m, table in dw_tables.items():
        i = np.argmin(np.abs(table.q))
        assert table.v_eff[i] == pytest.approx(two_state_models[m].e1, abs=1e-9)
        assert np.argmin(table.v_eff) == i


def test_q_grid_validation(two_state_models, dw_grid):
    ts = two_state_models[0.5]
    with pytest.raises(UsageError):
        effective_potential(ts, [], dw_grid)
    with pytest.raises(UsageError):
        effective_potential(ts, [0.5, 0.5, 1.0], dw_grid)


def test_interpolation_matches_nodes(dw_tables):
    table = dw_tables[0.2]
    assert np.allclose(table.interpolate(table.q), table.v_eff)


def test_coherent_state_expectations(dw_grid):
    mp = double_well(0.5)
    cs = solve_lambda(assemble_hamiltonian(mp, dw_grid), 0.6)
    psi = coherent_state(cs, 1.7, mp, dw_grid)
    # the phase leaves <q> at the constrained state's, to the root tolerance
    assert inner_product(psi, dw_grid.x * psi, dw_grid).real == pytest.approx(0.6, abs=1e-8)
    assert momentum_expectation(psi, dw_grid, 1.0) == pytest.approx(1.7, abs=1e-4)


def test_default_grid_choices():
    g = default_grid(double_well(0.5))
    assert (g.x_min, g.x_max, g.n_points) == (-6.0, 6.0, 4001)
    g = default_grid(harmonic())
    assert (g.x_min, g.x_max, g.n_points) == (-10.0, 10.0, 4001)


# --- free nodes by lambda walk ------------------------------------------------


def counted_k1_solves(monkeypatch):
    """List that grows by one per k=1 eigensolve made in constrain."""
    calls = []
    solve = constrain.lowest_eigenpairs

    def counted(op, k, *args, **kwargs):
        if k == 1:
            calls.append(k)
        return solve(op, k, *args, **kwargs)

    monkeypatch.setattr(constrain, "lowest_eigenpairs", counted)
    return calls


WALK_CASES = {
    # name: (model, grid, q_max, n_q, eigensolves per node at most)
    "double_well_0.2": (double_well(0.2), GridSpec(-8.0, 8.0, 2001), 4.0, 81, 0.7),
    "double_well_1.5": (double_well(1.5), GridSpec(-8.0, 8.0, 2001), 4.0, 81, 0.7),
    "tilted": (ModelParams(0.5, 1.0, Tilted(QuarticDoubleWell(1.0, 1.5), 0.05)),
               GridSpec(-8.0, 8.0, 2001), 4.0, 81, 1.3),
    "harmonic": (harmonic(), GridSpec(-10.0, 10.0, 2001), 6.0, 61, 1.3),
}


@pytest.mark.parametrize("name", sorted(WALK_CASES))
def test_walk_nodes_cover_range_with_bounded_gaps(name, monkeypatch):
    mp, grid, q_max, n_q, per_node = WALK_CASES[name]
    solves = counted_k1_solves(monkeypatch)
    table = lambda_walk_table(build_two_state(mp, grid), q_max, n_q, grid)
    h = 2.0 * q_max / (n_q - 1)
    assert table.q[0] <= -q_max and table.q[-1] >= q_max
    assert np.all(np.diff(table.q) > 0) and np.max(np.diff(table.q)) <= 1.5 * h
    assert np.all(np.diff(table.lam) < 0)
    # V_eff is convex on the walked nodes too
    secant = np.diff(table.v_eff) / np.diff(table.q)
    assert np.all(np.diff(secant) > -1e-9)
    # measured 0.49 (the mirrored walks: double wells, harmonic) and 0.99
    # (tilted) k=1 solves per node
    assert table.meta["eigensolves"] == len(solves) <= per_node * len(table.q)
    assert 0 <= table.meta["lapack_fallbacks"] <= len(solves)
    assert table.meta["failed_points"] == []


def test_walk_nodes_are_exact_hellmann_feynman_nodes():
    # harmonic: every (q, V, lambda) node lies on V = 1/2 + q^2/2, lambda = -q
    grid = GridSpec(-10.0, 10.0, 4001)
    table = lambda_walk_table(build_two_state(harmonic(), grid), 3.0, 31, grid)
    assert np.max(np.abs(table.v_eff - (0.5 + 0.5 * table.q**2))) < 1e-5
    assert np.max(np.abs(table.lam + table.q)) < 1e-5


def test_walk_table_of_symmetric_well_has_exact_parity(two_state_models, dw_grid):
    ts = two_state_models[0.5]
    table = lambda_walk_table(ts, 3.0, 61, dw_grid)
    assert len(table.q) % 2 == 1 and table.q[len(table.q) // 2] == 0.0
    assert np.array_equal(table.q, -table.q[::-1])
    assert np.array_equal(table.v_eff, table.v_eff[::-1])
    assert np.array_equal(table.lam, -table.lam[::-1])
    # the centre node is the warm ground state refined from ts.phi1: its
    # energy is the Rayleigh quotient of phi1, which the bisected e1 misses
    # by about 2e-11
    op = assemble_hamiltonian(ts.model, dw_grid)
    u = ts.phi1 / np.linalg.norm(ts.phi1)
    assert table.v_eff[len(table.q) // 2] == pytest.approx(u @ op.apply(u), abs=1e-12)
    curve = fluctuation_curve(table, [5.0, 50.0])
    assert np.all(np.abs(curve.mean_q) < 1e-15)


def test_walk_curve_matches_fine_root_solved_reference():
    # the fluct preset's temperature range on a coarser grid; the reference
    # solves 641 prescribed nodes by root finding (measured 2.2e-6)
    from wfgibbs.thermal import required_q_range, table_for_betas

    mp, grid = double_well(0.2), GridSpec(-6.0, 6.0, 1201)
    ts = build_two_state(mp, grid)
    betas = 2.0 / (np.logspace(-2, 2, 13) * ts.splitting)
    table = table_for_betas(ts, betas, 161, grid)
    q_max = max(required_q_range(mp, b) for b in betas)
    reference = effective_potential(ts, np.linspace(-q_max, q_max, 641),
                                    GridSpec.from_dict(table.meta["grid"]))
    walked = fluctuation_curve(table, betas).delta_q_over_d
    exact = fluctuation_curve(reference, betas).delta_q_over_d
    assert np.max(np.abs(walked / exact - 1.0)) < 1e-5


def test_walk_to_unreachable_range_raises(monkeypatch):
    # the hard walls at +-6 stop <q> short of 10: the walk stalls and stops
    solves = counted_k1_solves(monkeypatch)
    grid = GridSpec(-6.0, 6.0, 301)
    ts = build_two_state(double_well(0.5), grid)
    with pytest.raises(SolverError, match="stalls .* short of"):
        lambda_walk_table(ts, 10.0, 41, grid)
    assert len(solves) < 200


def test_overshooting_steps_are_halved(dw_grid):
    # a splitting 1e3 times too large aims the first step 1e3 times too far;
    # Newton on the exact slope brings it back, and every gap stays within 1.5 h
    ts = build_two_state(double_well(0.5), dw_grid)
    table = lambda_walk_table(dataclasses.replace(ts, e2=ts.e1 + 1e3 * ts.splitting), 3.0, 61,
                              dw_grid)
    assert np.max(np.diff(table.q)) <= 1.5 * 0.1
    assert table.q[-1] >= 3.0
    assert table.meta["eigensolves"] > len(table.q) // 2 + 1


def test_walk_newton_step_cap_raises(dw_grid, monkeypatch):
    ts = build_two_state(double_well(0.5), dw_grid)
    # the same first step as above, with no Newton correction allowed
    monkeypatch.setattr(constrain, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(SolverError, match="Newton steps"):
        lambda_walk_table(dataclasses.replace(ts, e2=ts.e1 + 1e3 * ts.splitting), 3.0, 61,
                          dw_grid)


def test_walk_rejects_bad_range(two_state_models, dw_grid):
    for q_max, n_q in ((0.0, 41), (np.inf, 41), (1.0, 1)):
        with pytest.raises(UsageError):
            lambda_walk_table(two_state_models[0.5], q_max, n_q, dw_grid)
