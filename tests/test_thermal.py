import json
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

from wfgibbs import (
    ConfigurationError,
    CoverageError,
    EffectivePotentialTable,
    GridSpec,
    Harmonic,
    ModelParams,
    Polynomial,
    QuarticDoubleWell,
    SolverError,
    Tilted,
    UsageError,
    build_truncated_model,
    build_two_state,
    canonical_atoms,
    default_grid,
    effective_potential,
    fluctuation_curve,
    table_for_betas,
    two_state_curve,
)
from wfgibbs.cli import load_config
from wfgibbs.thermal import Q_RANGE_MARGIN, bin_masses, required_q_range

from conftest import DOUBLE_WELL_MASSES, double_well, harmonic


@pytest.fixture(scope="module")
def harmonic_table(harmonic_grid):
    # V_eff = 1/2 + q^2/2 exactly; tabulated wide enough for beta >= 1
    q = np.linspace(-6.0, 6.0, 49)
    return effective_potential(build_two_state(harmonic(), harmonic_grid), q, harmonic_grid)


def test_marginal_is_normalized_and_even(dw_tables):
    # bins over the table's range hold all of the marginal, mirrored on the
    # mirrored table of the symmetric well
    table = dw_tables[0.5]
    edges = np.linspace(table.q[0], table.q[-1], 52)
    mass = bin_masses(table, 20.0, edges)
    assert mass.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(mass, mass[::-1], rtol=1e-12, atol=0.0)
    assert np.all(mass > 0)


def test_marginal_narrows_as_temperature_drops(dw_tables):
    # V_eff is convex with its minimum at q = 0, so the marginal is unimodal
    # there and its width shrinks with cooling
    table = dw_tables[0.2]
    edges = np.linspace(table.q[0], table.q[-1], 402)
    centres = 0.5 * (edges[1:] + edges[:-1])

    def width(beta):
        mass = bin_masses(table, beta, edges)
        return np.sqrt(mass @ centres**2 - (mass @ centres) ** 2)

    assert centres[np.argmax(bin_masses(table, 50.0, edges))] == pytest.approx(
        0.0, abs=edges[1] - edges[0])
    assert width(200.0) < width(50.0) < width(20.0)


def test_marginal_rejects_bad_beta(dw_tables):
    for beta in (0.0, np.inf):
        with pytest.raises(UsageError):
            bin_masses(dw_tables[0.2], beta, [-0.1, 0.0, 0.1])


def test_bin_masses_match_gaussian_cdf():
    # exact harmonic V_eff = 1/2 + q^2/2 on the fine nodes: the marginal is
    # the normal law with variance 1/beta (bin_masses never reads the doublet)
    beta = 2.0
    q = np.linspace(-6.0, 6.0, 4001)
    doublet = build_two_state(harmonic(), GridSpec(-10.0, 10.0, 801))
    table = EffectivePotentialTable(q, 0.5 + 0.5 * q**2, -q, doublet)
    edges = np.linspace(-2.0, 2.5, 31)
    expected = np.diff(ndtr(edges * np.sqrt(beta)))
    assert np.max(np.abs(bin_masses(table, beta, edges) - expected)) < 1e-12
    assert bin_masses(table, beta, [-7.0, 0.0, 7.0]).sum() == pytest.approx(1.0, abs=1e-12)


def test_harmonic_dispersions_are_gaussian(harmonic_table):
    # exp(-beta q^2 / 2) marginal: delta_q = 1/sqrt(beta); delta_p likewise
    betas = np.array([2.0, 4.0, 8.0])
    curve = fluctuation_curve(harmonic_table, betas)
    assert np.allclose(curve.delta_q, 1.0 / np.sqrt(betas), rtol=1e-10)
    assert np.allclose(curve.delta_p, 1.0 / np.sqrt(betas), rtol=1e-12)
    assert np.allclose(curve.mean_q, 0.0, atol=1e-10)


def test_interpolation_is_hermite_on_exact_slopes(harmonic_table):
    # between the 49 nodes the cubic on the nodes' values and slopes -lambda
    # is off from 1/2 + q^2/2 by the nodes' own error (measured 7.8e-7; the
    # chords miss by 7.8e-3), and it keeps the end values outside the range
    qq = np.linspace(-6.0, 6.0, 2001)
    assert np.max(np.abs(harmonic_table.interpolate(qq) - (0.5 + 0.5 * qq**2))) < 1e-6
    assert np.array_equal(harmonic_table.interpolate([-7.0, 7.0]),
                          harmonic_table.v_eff[[0, -1]])


def test_one_node_table_interpolates_to_its_value(harmonic_grid):
    table = effective_potential(build_two_state(harmonic(), harmonic_grid), [0.5], harmonic_grid)
    assert np.array_equal(table.interpolate([-1.0, 0.5, 2.0]), np.full(3, table.v_eff[0]))


def test_two_state_low_temperature_asymptote(two_state_models):
    # on the arc, delta_q/d -> sqrt(t) as the rescaled temperature t -> 0
    ts = two_state_models[0.5]
    t = np.array([1e-4, 4e-4])
    betas = 2.0 / (t * ts.splitting)
    curve = two_state_curve(ts, betas)
    assert np.allclose(curve.delta_q_over_d, np.sqrt(t), rtol=2e-2)


def test_two_state_high_temperature_asymptote(two_state_models):
    # beta -> 0 gives a uniform density on [-d, d]: delta_q/d -> 1/sqrt(3)
    ts = two_state_models[0.5]
    betas = 2.0 / (np.array([1e3, 1e4]) * ts.splitting)
    curve = two_state_curve(ts, betas)
    assert np.allclose(curve.delta_q_over_d, 1.0 / np.sqrt(3.0), rtol=1e-3)


def test_fluctuations_increase_with_temperature(two_state_models):
    ts = two_state_models[1.0]
    t = np.logspace(-2, 2, 25)
    betas = 2.0 / (t * ts.splitting)
    curve = two_state_curve(ts, betas)
    assert np.all(np.diff(curve.delta_q_over_d) > 0)
    assert curve.delta_q_over_d[0] > 0
    assert curve.delta_q_over_d[-1] < 1.0 / np.sqrt(3.0) + 1e-3


def test_coverage_error_names_beta(dw_tables):
    # the exact table only spans |q| <= 0.995 d; a hot ensemble spills out
    with pytest.raises(CoverageError) as err:
        fluctuation_curve(dw_tables[0.2], [0.05])
    assert err.value.beta == pytest.approx(0.05)
    # of several betas too hot for it, the first in the given order
    for betas in ([50.0, 0.05, 0.01], [50.0, 0.01, 0.05]):
        with pytest.raises(CoverageError) as err:
            fluctuation_curve(dw_tables[0.2], betas)
        assert err.value.beta == betas[1]


def _gauss_curve(cuts, law, betas, points):
    """(mean_q, delta_q) under exp(-beta V) by the points-point
    Gauss-Legendre rule on each interval between cuts in a variable s,
    law(s) giving (q, V, dq/ds)."""
    x, w = np.polynomial.legendre.leggauss(points)
    half = 0.5 * np.diff(cuts)[:, None]
    s = (0.5 * (cuts[1:] + cuts[:-1])[:, None] + half * x).ravel()
    q, v, jacobian = law(s)
    weights = (half * w).ravel() * jacobian
    mean_q, delta_q = [], []
    for beta in betas:
        dens = weights * np.exp(-beta * (v - v.min()))
        m1, m2 = dens @ q / dens.sum(), dens @ q**2 / dens.sum()
        mean_q.append(m1)
        delta_q.append(np.sqrt(max(m2 - m1**2, 0.0)))
    return np.array(mean_q), np.array(delta_q)


def _hermite_law(table):
    return lambda s: (s, table.interpolate(s), 1.0)


def _trapezoid_curve(table, betas, n_points=200001):
    """(mean_q, delta_q) by the trapezoid rule on n_points of the table's
    own interpolate over its range."""
    qq = np.linspace(table.q[0], table.q[-1], n_points)
    v = table.interpolate(qq)
    mean_q, delta_q = [], []
    for beta in betas:
        dens = np.exp(-beta * (v - v.min()))
        dens = dens / np.trapezoid(dens, qq)
        m1 = np.trapezoid(dens * qq, qq)
        m2 = np.trapezoid(dens * qq**2, qq)
        mean_q.append(m1)
        delta_q.append(np.sqrt(max(m2 - m1**2, 0.0)))
    return np.array(mean_q), np.array(delta_q)


def test_curve_quadrature_matches_fine_trapezoid_of_the_interpolant(two_state_models,
                                                                     dw_grid):
    # the Gauss rule on each segment integrates the table's own Hermite
    # interpolant, as fluct builds it at its default n_q: over its range
    # against a fine trapezoid (measured 2.5e-11, the trapezoid's error),
    # and over |q| <= d against a 24-point rule on 8 pieces of each
    # segment cut at +-d
    ts = two_state_models[0.5]
    betas = 2.0 / (np.logspace(-2, 2, 9) * ts.splitting)
    full = table_for_betas(ts, betas, 161, dw_grid)
    curve = fluctuation_curve(full, betas)
    mean_q, delta_q = _trapezoid_curve(full, betas)
    assert np.max(np.abs(curve.mean_q - mean_q)) < 1e-9
    assert np.max(np.abs(curve.delta_q / delta_q - 1.0)) < 1e-9
    assert np.array_equal(curve.delta_q_over_d, curve.delta_q / ts.d)

    restricted = fluctuation_curve(full, betas, restricted=True)
    cuts = np.concatenate([[-ts.d], full.q[np.abs(full.q) < ts.d], [ts.d]])
    fine = np.linspace(cuts[:-1], cuts[1:], 9, axis=1)[:, :-1].ravel()
    mean_q, delta_q = _gauss_curve(np.append(fine, ts.d), _hermite_law(full), betas, 24)
    assert np.max(np.abs(restricted.mean_q - mean_q)) < 1e-9
    assert np.max(np.abs(restricted.delta_q / delta_q - 1.0)) < 1e-9


def test_restricted_curve_of_a_table_inside_d_is_the_full_curve(dw_tables):
    # the exact table spans only |q| <= 0.995 d: cut at its own ends, the
    # restricted curve is the full one, coverage check included
    table = dw_tables[0.5]
    betas = [500.0, 2000.0]
    restricted = fluctuation_curve(table, betas, restricted=True)
    full = fluctuation_curve(table, betas)
    assert np.array_equal(restricted.delta_q, full.delta_q)
    assert np.array_equal(restricted.mean_q, full.mean_q)
    with pytest.raises(CoverageError) as err:
        fluctuation_curve(table, [0.05], restricted=True)
    assert err.value.beta == pytest.approx(0.05)


def test_two_state_curve_matches_fine_angle_rule(two_state_models):
    # the arc in the angle theta, q = d sin theta: 64 segments of the
    # 6-point rule against 4096 of a 12-point rule (measured 1e-15)
    ts = two_state_models[0.5]
    betas = 2.0 / (np.logspace(-2, 2, 9) * ts.splitting)
    curve = two_state_curve(ts, betas)
    mean_q, delta_q = _gauss_curve(
        np.linspace(-0.5 * np.pi, 0.5 * np.pi, 4097),
        lambda t: (ts.d * np.sin(t), -0.5 * ts.splitting * np.cos(t), ts.d * np.cos(t)),
        betas, 12)
    assert np.max(np.abs(curve.mean_q - mean_q)) < 1e-13 * ts.d
    assert np.max(np.abs(curve.delta_q / delta_q - 1.0)) < 1e-13
    assert curve.delta_q_over_d[0] == pytest.approx(0.1, rel=5e-2)


def test_coarse_table_curve_refines_itself(two_state_models, dw_grid):
    # 11 target nodes over the fluct range at m = 0.2: the 6-point rule on
    # the table's segments is off by 9.1e-3 at the coldest beta, and the
    # curve halves them until it agrees with itself (3 halvings, 6e-13 off a
    # 24-point rule)
    ts = two_state_models[0.2]
    betas = 2.0 / (np.logspace(-2, 2, 60) * ts.splitting)
    table = table_for_betas(ts, betas, 11, dw_grid)
    curve = fluctuation_curve(table, betas)
    _, delta_q = _gauss_curve(table.q, _hermite_law(table), betas, 24)
    assert np.max(np.abs(curve.delta_q / delta_q - 1.0)) < 1e-9


def test_curve_rule_that_cannot_agree_with_itself_raises(harmonic_table):
    # a density 3e-4 wide on segments of 0.25: eight halvings leave it
    # unresolved, and the error names the beta
    with pytest.raises(SolverError, match="half as many at beta=10000000.0"):
        fluctuation_curve(harmonic_table, [2.0, 1e7])


def _mpmath_q_range(model, beta):
    """Largest |x| where V - min V reaches the float Q_RANGE_MARGIN / beta,
    for V the float coefficients of model, at 60 digits."""
    with mpmath.workdps(60):
        c = [mpmath.mpf(float(x)) for x in
             np.polynomial.Polynomial(model.potential.power_series(model.mass)).trim().coef]
        dc = [k * c[k] for k in range(1, len(c))]
        tiny = mpmath.mpf(10) ** -40  # imaginary part of a real root
        critical = [mpmath.re(r) for r in mpmath.polyroots(dc[::-1], maxsteps=200, extraprec=200)
                    if abs(mpmath.im(r)) < tiny]
        level = (min(mpmath.polyval(c[::-1], x) for x in critical)
                 + mpmath.mpf(Q_RANGE_MARGIN / beta))
        roots = mpmath.polyroots(([c[0] - level] + c[1:])[::-1], maxsteps=400, extraprec=400)
        return float(max(abs(mpmath.re(r)) for r in roots if abs(mpmath.im(r)) < tiny))


@pytest.mark.parametrize("beta", [1e8, 1e12, 1e16, 1e20])
@pytest.mark.parametrize("potential", ["symmetric", "tilted"])
def test_required_q_range_at_a_nearly_double_crossing(potential, beta):
    # at a huge beta the crossing lies within sqrt(25 / (beta V''/2)) of a
    # well's floor, a nearly double root of V - min V - 25/beta, which
    # companion-matrix roots split by sqrt(eps) (1.5000000517 for the
    # symmetric well at 1e16, against 1.5000000167)
    well = QuarticDoubleWell(1.0, 1.5)
    model = ModelParams(0.5, 1.0, well if potential == "symmetric" else Tilted(well, 0.05))
    assert required_q_range(model, beta) == pytest.approx(_mpmath_q_range(model, beta), rel=1e-12)
    if potential == "symmetric":
        exact = np.sqrt(2.25 + np.sqrt(Q_RANGE_MARGIN / beta))
        assert required_q_range(model, beta) == pytest.approx(exact, rel=1e-15)


def test_required_q_range_of_preset_betas_is_exact():
    # the smallest beta of each fluct mass, the canonical beta and the
    # sample_dw beta: within 2 ulp of the 60-digit crossing
    cases = []
    for mass in DOUBLE_WELL_MASSES:
        model = double_well(mass)
        ts = build_two_state(model, default_grid(model))
        cases += [(model, 2.0 / (100.0 * ts.splitting)), (model, 1.0)]
    cases.append((double_well(0.2), 13.675730546881546))
    for model, beta in cases:
        assert required_q_range(model, beta) == pytest.approx(_mpmath_q_range(model, beta),
                                                              rel=4.5e-16, abs=0.0)


def test_required_q_range_harmonic_scaling():
    # solves beta * m w^2 q^2 / 2 = margin: q = sqrt(2 margin / beta)
    for beta in (1.0, 4.0):
        q = required_q_range(harmonic(), beta)
        assert q == pytest.approx(np.sqrt(50.0 / beta), rel=1e-6)


def test_required_q_range_rejects_bad_beta():
    for beta in (0.0, np.inf):
        with pytest.raises(UsageError):
            required_q_range(harmonic(), beta)


def test_required_q_range_is_exact():
    # wells at +-0.8: (x^2 - 0.64)^2 = 25 / 200 at x^2 = 0.64 + sqrt(0.125),
    # with no grid node at the minimum to shift min V
    mp = ModelParams(0.2, 1.0, QuarticDoubleWell(1.0, 0.8))
    assert required_q_range(mp, 200.0) == pytest.approx(np.sqrt(0.64 + np.sqrt(0.125)),
                                                        rel=1e-12)
    # a tilted oscillator x^2/2 + s x rises by (x + s)^2 / 2 from its minimum at -s
    tilted = ModelParams(1.0, 1.0, Tilted(Harmonic(1.0), 0.3))
    assert required_q_range(tilted, 2.0) == pytest.approx(0.3 + np.sqrt(25.0), rel=1e-12)


@pytest.mark.parametrize("coefficients", [(1.0,), (0.0, 1.0), (0.0, 0.0, 0.0, 1.0),
                                          (0.0, 0.0, -1.0), (0.0, 0.0, 0.0)],
                         ids=["constant", "linear", "cubic", "inverted", "zero"])
def test_required_q_range_needs_a_confining_potential(coefficients):
    mp = ModelParams(1.0, 1.0, Polynomial(coefficients))
    with pytest.raises(CoverageError):
        required_q_range(mp, 1.0)


def test_required_q_range_measures_from_global_minimum():
    # wells at +-0.8 with barrier 0.41: at beta = 200 the range must reach
    # past the wells, and the table built on it must cover the marginal
    mp = ModelParams(0.2, 1.0, QuarticDoubleWell(1.0, 0.8))
    assert required_q_range(mp, 200.0) > 0.8
    grid = default_grid(mp)
    table = table_for_betas(build_two_state(mp, grid), [200.0], n_q=41, grid=grid)
    curve = fluctuation_curve(table, [200.0])
    assert curve.delta_q[0] > 0


def test_required_q_range_crossing_outside_default_grid():
    # the fluct preset's hottest temperature, T = 100 at m = 0.2: V - min V
    # = w0 (x^2 - x0^2)^2 - v0 reaches 25 / beta past the default grid's edge
    mp = double_well(0.2)
    grid = default_grid(mp)
    beta = 2.0 / (100.0 * build_two_state(mp, grid).splitting)
    v0 = float(mp.potential.evaluate(grid.x, mp.mass).min())
    exact = np.sqrt(1.5**2 + np.sqrt((Q_RANGE_MARGIN / beta + v0) / 1.0))
    q = required_q_range(mp, beta)
    assert q > grid.x_max
    assert q == pytest.approx(exact, rel=1e-8)


def test_table_for_betas_sizes_range_by_smallest_beta():
    grid = GridSpec(-6.0, 6.0, 1201)
    ts = build_two_state(double_well(0.2), grid)
    betas = [5.0, 0.05, 1.0]
    table = table_for_betas(ts, betas, n_q=41, grid=grid)
    hottest = table_for_betas(ts, [min(betas)], n_q=41, grid=grid)
    assert table.meta["grid"] == hottest.meta["grid"]
    assert np.array_equal(table.q, hottest.q)
    assert np.array_equal(table.v_eff, hottest.v_eff)
    assert np.array_equal(table.lam, hottest.lam)


def test_table_for_betas_covers_requested_range():
    mp = double_well(0.2)
    grid = default_grid(mp)
    table = table_for_betas(build_two_state(mp, grid), [1.0], n_q=21, grid=grid)
    need = required_q_range(mp, 1.0)
    assert table.q[0] <= -need and table.q[-1] >= need
    assert table.meta["failed_points"] == []
    # and the resulting curve clears the coverage check
    curve = fluctuation_curve(table, [1.0])
    assert curve.delta_q[0] > 0


@pytest.mark.parametrize("grid, beta, n_points", [
    (GridSpec(-5.0, 10.0, 1501), 1.0, 2216),  # widened to q_max + 4 = 11.07
    # not widened past x_max = 7: 100 * 14 / 11.2 = 125 exactly, which is
    # 125.00000000000001 in floating point and must not gain an interval
    (GridSpec(-4.2, 7.0, 101), 10.0, 126),
])
def test_widened_grid_keeps_the_spacing_of_an_asymmetric_grid(grid, beta, n_points):
    table = table_for_betas(build_two_state(harmonic(), grid), [beta], n_q=41, grid=grid)
    wide = GridSpec.from_dict(table.meta["grid"])
    assert wide.is_symmetric and wide.n_points == n_points
    assert wide.x_max == max(grid.x_max, required_q_range(harmonic(), beta) + 4.0)
    assert grid.dx * (1.0 - 1.0 / wide.n_points) < wide.dx <= grid.dx * (1.0 + 1e-12)


# widened grid points of every table the presets build: fluct per mass and
# the marginal validation of the sample preset
PRESET_WIDENED_POINTS = {("fluct", 0.2): 7141, ("fluct", 0.5): 5727, ("fluct", 1.0): 4721,
                         ("fluct", 1.5): 4258, ("marginal", None): 4001}


def test_preset_widened_grids_are_unchanged():
    # the marginal table is not widened at all: its interval count is an
    # exact integer, (4001 - 1) * 12 / 12, which ceil must not round up
    seen = set()
    for preset in sorted((Path(__file__).parents[1] / "configs").glob("*.json")):
        cfg, sections = load_config(preset), json.loads(preset.read_text())
        grid, pot = cfg["grid"], cfg["model"].potential
        cases = []
        if "fluct" in sections:
            t = np.logspace(np.log10(cfg["fluct"]["t_min"]), np.log10(cfg["fluct"]["t_max"]),
                            cfg["fluct"]["n_t"])
            for mass in cfg["fluct"]["masses"]:
                ts = build_two_state(ModelParams(mass, cfg["model"].hbar, pot), grid)
                cases.append((("fluct", mass), ts, 2.0 / (t * ts.splitting)))
        if cfg["sample"]["validate"] == "marginal":
            ts = build_two_state(cfg["model"], grid)
            cases.append((("marginal", None), ts, [cfg["sample"]["beta"]]))
        for key, ts, betas in cases:
            table = table_for_betas(ts, betas, 41, grid)
            assert table.meta["grid"]["n_points"] == PRESET_WIDENED_POINTS[key], (preset, key)
            seen.add(key)
    assert seen == set(PRESET_WIDENED_POINTS)


def test_canonical_atoms_basic(dw_grid):
    atoms = canonical_atoms(build_truncated_model(double_well(0.5), 16, dw_grid), beta=2.0)
    assert atoms.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(atoms.weights[:-1] >= atoms.weights[1:])
    # every eigenstate of a symmetric well has <q> = 0: zero dispersion
    assert np.max(np.abs(atoms.positions)) < 1e-9
    assert atoms.dispersion() < 1e-9


def test_canonical_truncation_guard(dw_grid):
    tm = build_truncated_model(double_well(0.5), 4, dw_grid)
    with pytest.raises(ConfigurationError, match="too small at beta"):
        canonical_atoms(tm, beta=0.1)
    with pytest.raises(UsageError):
        build_truncated_model(double_well(0.5), 0, dw_grid)
    for beta in (np.inf, np.nan):
        with pytest.raises(UsageError):
            canonical_atoms(tm, beta=beta)


def test_canonical_partition_function(harmonic_grid):
    # Z = sum e^(-beta (k + 1/2)) for the harmonic ladder
    beta = 2.0
    atoms = canonical_atoms(build_truncated_model(harmonic(), 20, harmonic_grid), beta=beta)
    exact = np.exp(-beta * 0.5) / (1.0 - np.exp(-beta))
    assert atoms.z == pytest.approx(exact, rel=1e-4)
