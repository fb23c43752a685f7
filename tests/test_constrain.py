import numpy as np
import pytest

from wfgibbs import (
    GridSpec,
    SolverError,
    UnreachableTargetError,
    UsageError,
    effective_potential,
    momentum_expectation,
    position_element,
    solve_lambda,
)
from wfgibbs import constrain
from wfgibbs.constrain import MAX_ROOT_STEPS, coherent_state, decreasing_root, default_grid

from conftest import DOUBLE_WELL_MASSES, double_well, harmonic


def test_symmetric_zero_target_shortcut(dw_grid):
    cs = solve_lambda(double_well(0.5), 0.0, grid=dw_grid)
    assert cs.lam == 0.0
    assert cs.v_eff == cs.ground_energy
    assert cs.constraint_residual < 1e-10


@pytest.mark.parametrize("q", [0.5, -0.7, 1.3])
def test_harmonic_multiplier_closed_form(q, harmonic_grid):
    # for V = m w^2 x^2 / 2 the exact multiplier is -m w^2 q and the
    # effective potential is hbar w / 2 + m w^2 q^2 / 2
    cs = solve_lambda(harmonic(), q, grid=harmonic_grid)
    assert cs.lam == pytest.approx(-q, abs=1e-5)
    assert cs.v_eff == pytest.approx(0.5 + 0.5 * q**2, abs=1e-5)


def test_constraint_residual_within_tolerance(dw_grid):
    mp = double_well(0.2)
    for q in (0.3, 0.9):
        cs = solve_lambda(mp, q, grid=dw_grid)
        assert cs.constraint_residual <= 1e-8 * max(1.0, abs(q))
        measured = position_element(cs.wavefunction, cs.wavefunction, dw_grid)
        assert measured == pytest.approx(q, abs=1.1e-8)


def test_unreachable_target_raises():
    grid = GridSpec(-6.0, 6.0, 301)
    with pytest.raises(UnreachableTargetError):
        solve_lambda(double_well(0.5), 10.0, grid=grid)


def test_decreasing_root_steep_tanh():
    x, fx = decreasing_root(lambda x: -np.tanh(1e6 * (x - 0.3)), -1.0, 1.0, 1e-12)
    assert abs(fx) <= 1e-12
    assert x == pytest.approx(0.3, abs=1e-15)


def test_decreasing_root_without_sign_change_is_unreachable():
    with pytest.raises(UnreachableTargetError) as err:
        decreasing_root(lambda x: 1.0 + np.exp(-x), -1.0, 1.0, 1e-12)
    assert err.value.residual == pytest.approx(1.0)


def test_decreasing_root_step_cap():
    calls = []

    def step(x):
        calls.append(x)
        return 1.0 if x < 0.3 else -1.0

    with pytest.raises(SolverError) as err:
        decreasing_root(step, -1.0, 1.0, 0.0)
    assert not isinstance(err.value, UnreachableTargetError)
    assert err.value.residual == 1.0
    assert len(calls) == 2 + MAX_ROOT_STEPS


@pytest.mark.parametrize("mass", [0.2, 0.5])
def test_eigensolves_per_constrained_point(mass, two_state_models, dw_grid, monkeypatch):
    k1_solves, fallbacks = [], []
    solve = constrain.lowest_eigenpairs

    def counted(op, k, *args, **kwargs):
        pairs = solve(op, k, *args, **kwargs)
        if k == 1:
            k1_solves.append(k)
            if kwargs.get("start") is not None and pairs[0].method == "lapack":
                fallbacks.append(k)
        return pairs

    monkeypatch.setattr(constrain, "lowest_eigenpairs", counted)
    d = two_state_models[mass].d
    q = np.linspace(-0.995 * d, 0.995 * d, 21)
    table = effective_potential(double_well(mass), q, grid=dw_grid)
    assert len(table.q) == len(q)
    # measured 7.05 (m=0.2) and 7.48 (m=0.5) k=1 solves per point; the
    # bound leaves a margin of 1.5
    assert len(k1_solves) / len(q) <= 9
    # the table metadata records the same counts
    assert table.meta["eigensolves"] == len(k1_solves)
    assert table.meta["lapack_fallbacks"] == len(fallbacks) <= len(k1_solves)


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


def test_q_grid_validation(dw_grid):
    mp = double_well(0.5)
    with pytest.raises(UsageError):
        effective_potential(mp, [], grid=dw_grid)
    with pytest.raises(UsageError):
        effective_potential(mp, [0.5, 0.5, 1.0], grid=dw_grid)


def test_interpolation_matches_nodes(dw_tables):
    table = dw_tables[0.2]
    assert np.allclose(table.interpolate(table.q), table.v_eff)


def test_coherent_state_expectations(dw_grid):
    mp = double_well(0.5)
    cs = solve_lambda(mp, 0.6, grid=dw_grid)
    state = coherent_state(cs, 1.7, mp, dw_grid)
    assert state.q == 0.6
    assert momentum_expectation(state.psi, dw_grid, 1.0) == pytest.approx(1.7, abs=1e-4)


def test_default_grid_choices():
    g = default_grid(double_well(0.5))
    assert (g.x_min, g.x_max, g.n_points) == (-6.0, 6.0, 4001)
    g = default_grid(harmonic())
    assert (g.x_min, g.x_max, g.n_points) == (-10.0, 10.0, 4001)
