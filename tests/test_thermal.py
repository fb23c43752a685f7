import json
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from wfgibbs import (
    CoverageError,
    EffectivePotentialTable,
    GridSpec,
    Harmonic,
    ModelParams,
    Polynomial,
    QuarticDoubleWell,
    Tilted,
    TruncationError,
    UsageError,
    build_truncated_model,
    build_two_state,
    canonical_atoms,
    default_grid,
    effective_potential,
    fluctuation_curve,
    position_marginal,
    required_q_range,
    table_for_betas,
    two_state_table,
)
from wfgibbs.cli import load_config
from wfgibbs.thermal import Q_RANGE_MARGIN, bin_masses

from conftest import double_well, harmonic


@pytest.fixture(scope="module")
def harmonic_table(harmonic_grid):
    # V_eff = 1/2 + q^2/2 exactly; tabulated wide enough for beta >= 1
    q = np.linspace(-6.0, 6.0, 49)
    return effective_potential(build_two_state(harmonic(), harmonic_grid), q, harmonic_grid)


def test_marginal_is_normalized_and_even(dw_tables):
    qq, dens = position_marginal(dw_tables[0.5], beta=20.0)
    assert np.trapezoid(dens, qq) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(dens, dens[::-1], rtol=1e-8)
    assert np.all(dens >= 0)


def test_marginal_narrows_as_temperature_drops(dw_tables):
    # V_eff is convex with its minimum at q = 0, so the marginal is unimodal
    # there and its width shrinks with cooling
    table = dw_tables[0.2]

    def width(beta):
        qq, dens = position_marginal(table, beta)
        m1 = np.trapezoid(dens * qq, qq)
        m2 = np.trapezoid(dens * qq**2, qq)
        return np.sqrt(m2 - m1**2)

    qq, dens = position_marginal(table, beta=50.0)
    assert qq[np.argmax(dens)] == pytest.approx(0.0, abs=qq[1] - qq[0])
    assert width(200.0) < width(50.0) < width(20.0)


def test_marginal_rejects_bad_beta(dw_tables):
    for beta in (0.0, np.inf):
        with pytest.raises(UsageError):
            position_marginal(dw_tables[0.2], beta=beta)


def test_bin_masses_match_gaussian_cdf():
    # exact harmonic V_eff = 1/2 + q^2/2 on the fine nodes: the marginal is
    # the normal law with variance 1/beta
    beta = 2.0
    q = np.linspace(-6.0, 6.0, 4001)
    table = EffectivePotentialTable(q, 0.5 + 0.5 * q**2, -q)
    edges = np.linspace(-2.0, 2.5, 31)
    expected = np.diff(ndtr(edges * np.sqrt(beta)))
    assert np.max(np.abs(bin_masses(table, beta, edges) - expected)) < 1e-6
    assert bin_masses(table, beta, [-7.0, 0.0, 7.0]).sum() == pytest.approx(1.0, abs=1e-12)


def test_harmonic_dispersions_are_gaussian(harmonic_table):
    # exp(-beta q^2 / 2) marginal: delta_q = 1/sqrt(beta); delta_p likewise
    betas = np.array([2.0, 4.0, 8.0])
    curve = fluctuation_curve(harmonic_table, betas)
    assert np.allclose(curve.delta_q, 1.0 / np.sqrt(betas), rtol=1e-4)
    assert np.allclose(curve.delta_p, 1.0 / np.sqrt(betas), rtol=1e-12)
    assert np.allclose(curve.mean_q, 0.0, atol=1e-10)


def test_two_state_low_temperature_asymptote(two_state_models):
    # on the arc, delta_q/d -> sqrt(t) as the rescaled temperature t -> 0
    table = two_state_table(two_state_models[0.5])
    t = np.array([1e-4, 4e-4])
    betas = 2.0 / (t * (table.meta["e2"] - table.meta["e1"]))
    curve = fluctuation_curve(table, betas, n_fine=20001)
    assert np.allclose(curve.rescaled_temperature, t, rtol=1e-12)
    assert np.allclose(curve.delta_q_over_d, np.sqrt(t), rtol=2e-2)


def test_two_state_high_temperature_asymptote(two_state_models):
    # beta -> 0 gives a uniform density on [-d, d]: delta_q/d -> 1/sqrt(3)
    table = two_state_table(two_state_models[0.5])
    betas = 2.0 / (np.array([1e3, 1e4]) * (table.meta["e2"] - table.meta["e1"]))
    curve = fluctuation_curve(table, betas)
    assert np.allclose(curve.delta_q_over_d, 1.0 / np.sqrt(3.0), rtol=1e-3)


def test_fluctuations_increase_with_temperature(two_state_models):
    table = two_state_table(two_state_models[1.0])
    t = np.logspace(-2, 2, 25)
    betas = 2.0 / (t * (table.meta["e2"] - table.meta["e1"]))
    curve = fluctuation_curve(table, betas)
    assert np.all(np.diff(curve.delta_q_over_d) > 0)
    assert curve.delta_q_over_d[0] > 0
    assert curve.delta_q_over_d[-1] < 1.0 / np.sqrt(3.0) + 1e-3


def test_coverage_error_names_beta(dw_tables):
    # the exact table only spans |q| <= 0.995 d; a hot ensemble spills out
    with pytest.raises(CoverageError) as err:
        fluctuation_curve(dw_tables[0.2], [0.05])
    assert err.value.beta == pytest.approx(0.05)


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


# widened grid points of every table the presets build: fluct per mass,
# canonical at beta = 1 and the marginal validation of the sample preset
PRESET_WIDENED_POINTS = {("fluct", 0.2): 7141, ("fluct", 0.5): 5727, ("fluct", 1.0): 4721,
                         ("fluct", 1.5): 4258, ("canonical", None): 4463,
                         ("marginal", None): 4001}


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
        ts = build_two_state(cfg["model"], grid)
        if "canonical" in sections:
            cases.append((("canonical", None), ts, [cfg["canonical"]["beta"]]))
        if cfg["sample"]["validate"] == "marginal":
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
    with pytest.raises(TruncationError):
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
