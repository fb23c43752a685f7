import numpy as np
import pytest

from wfgibbs import (
    ConfigurationError,
    GridSpec,
    Harmonic,
    ModelParams,
    Polynomial,
    QuarticDoubleWell,
    Tilted,
    UsageError,
    lowest_eigenpairs,
)
from wfgibbs.lattice import assemble_hamiltonian, position_element

from conftest import double_well, harmonic, momentum_expectation


def test_make_grid_arithmetic_progression():
    grid = GridSpec(-6.0, 6.0, 5)
    assert np.allclose(grid.x, [-6.0, -3.0, 0.0, 3.0, 6.0])
    assert grid.dx == 3.0


def test_make_grid_fine_spacing():
    assert GridSpec(-6.0, 6.0, 4001).dx == pytest.approx(0.003)


def test_degenerate_interval_rejected():
    with pytest.raises(ConfigurationError):
        GridSpec(0.0, 0.0, 10)


def test_too_few_points_rejected():
    with pytest.raises(ConfigurationError):
        GridSpec(-1.0, 1.0, 2)


def test_quartic_barrier_height():
    pot = QuarticDoubleWell(1.0, 1.5)
    assert pot.evaluate(0.0, 1.0) == pytest.approx(5.0625)


def test_quartic_minima_are_zero():
    pot = QuarticDoubleWell(1.0, 1.5)
    assert pot.evaluate(np.array([-1.5, 1.5]), 1.0) == pytest.approx([0.0, 0.0])


def test_zero_tilt_is_identity():
    base = Harmonic(1.0)
    tilted = Tilted(base, 0.0)
    x = np.linspace(-3, 3, 11)
    assert np.array_equal(tilted.evaluate(x, 1.0), base.evaluate(x, 1.0))


def test_tilted_adds_linear_term():
    pot = Tilted(QuarticDoubleWell(1.0, 1.5), 0.25)
    x = np.linspace(-2, 2, 9)
    expected = QuarticDoubleWell(1.0, 1.5).evaluate(x, 1.0) + 0.25 * x
    assert np.allclose(pot.evaluate(x, 1.0), expected)


@pytest.mark.parametrize("pot, closed_form", [
    (Harmonic(2.0), lambda x, m: 2.0 * m * x**2),
    (QuarticDoubleWell(1.0, 1.5), lambda x, m: (x**2 - 2.25) ** 2),
    (Polynomial((0.3, -1.0, 0.0, 0.5, 0.25)), lambda x, m: 0.3 - x + 0.5 * x**3 + 0.25 * x**4),
    (Tilted(QuarticDoubleWell(0.5, 0.8), 0.25), lambda x, m: 0.5 * (x**2 - 0.64) ** 2 + 0.25 * x),
    (Tilted(Polynomial((1.0,)), -0.5), lambda x, m: 1.0 - 0.5 * x),
], ids=["harmonic", "double_well", "polynomial", "tilted_well", "tilted_constant"])
def test_power_series_is_the_potential(pot, closed_form):
    # evaluate is the polynomial of power_series, so both are held to the
    # closed form of each potential
    x = np.linspace(-3, 3, 61)
    for mass in (0.2, 1.5):
        assert np.allclose(pot.evaluate(x, mass), closed_form(x, mass), rtol=1e-13, atol=1e-13)
        series = np.polynomial.polynomial.polyval(x, pot.power_series(mass))
        assert np.array_equal(series, pot.evaluate(x, mass))


def test_tilted_nesting_rejected():
    inner = Tilted(Harmonic(1.0), 0.1)
    with pytest.raises(ConfigurationError):
        Tilted(inner, 0.2)


def test_symmetric_potentials_are_even():
    x = np.linspace(-5, 5, 201)
    for pot in (Harmonic(2.0), QuarticDoubleWell(1.0, 1.5), Polynomial((1.0, 0.0, 0.5))):
        v = pot.evaluate(x, 1.0)
        assert pot.is_symmetric
        assert np.max(np.abs(v - v[::-1])) < 1e-12 * np.max(np.abs(v))


def test_symmetry_is_read_from_the_power_series():
    # every odd coefficient zero: a tilt that cancels an odd term is even
    assert Tilted(Polynomial((0.0, -0.25, 1.0)), 0.25).is_symmetric
    assert Tilted(Harmonic(1.0), 0.0).is_symmetric
    for pot in (Tilted(QuarticDoubleWell(1.0, 1.5), 0.1), Tilted(Harmonic(1.0), 1e-300),
                Polynomial((0.0, 0.0, 1.0, 1e-3))):
        assert not pot.is_symmetric


def test_invalid_potential_parameters():
    with pytest.raises(ConfigurationError):
        Harmonic(-1.0)
    with pytest.raises(ConfigurationError):
        QuarticDoubleWell(0.0, 1.5)
    with pytest.raises(ConfigurationError):
        ModelParams(-1.0, 1.0, Harmonic(1.0))
    # every parameter is finite: an infinite mass would drop the kinetic term
    for bad in (np.inf, np.nan):
        for build in (lambda v: ModelParams(v, 1.0, Harmonic(1.0)),
                      lambda v: ModelParams(1.0, v, Harmonic(1.0)),
                      Harmonic,
                      lambda v: QuarticDoubleWell(v, 1.5),
                      lambda v: QuarticDoubleWell(1.0, v),
                      lambda v: Polynomial((0.0, 0.0, v)),
                      lambda v: Tilted(Harmonic(1.0), v),
                      lambda v: GridSpec(-v, 1.0, 11),
                      lambda v: GridSpec(-1.0, v, 11)):
            with pytest.raises(ConfigurationError):
                build(bad)


def test_free_particle_stencil():
    mp = ModelParams(1.0, 1.0, Polynomial((0.0,)))
    op = assemble_hamiltonian(mp, GridSpec(-1.0, 1.0, 3))  # dx = 1
    assert np.allclose(op.diagonal, 1.0)
    assert np.allclose(op.off_diagonal, -0.5)


def test_operator_is_shared_symmetric():
    op = assemble_hamiltonian(harmonic(), GridSpec(-5, 5, 101))
    assert np.all(op.off_diagonal == op.off_diagonal[0])


def test_harmonic_ground_energy():
    op = assemble_hamiltonian(harmonic(), GridSpec(-10.0, 10.0, 2001))
    pair = lowest_eigenpairs(op, 1)[0]
    assert pair.energy == pytest.approx(0.5, abs=1e-4)


def test_discretization_is_second_order():
    # ground-state error vs the analytic harmonic spectrum over three grids
    errors, spacings = [], []
    for n in (251, 501, 1001):
        grid = GridSpec(-10.0, 10.0, n)
        pair = lowest_eigenpairs(assemble_hamiltonian(harmonic(), grid), 1)[0]
        errors.append(abs(pair.energy - 0.5))
        spacings.append(grid.dx)
    slope = np.polyfit(np.log(spacings), np.log(errors), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_position_element_even_state_parity(harmonic_grid):
    op = assemble_hamiltonian(harmonic(), harmonic_grid)
    phi0 = lowest_eigenpairs(op, 1)[0].wavefunction
    assert abs(position_element(phi0, phi0, harmonic_grid)) < 1e-10


def test_position_element_golden_dipole(dw_grid):
    op = assemble_hamiltonian(double_well(0.2), dw_grid)
    pairs = lowest_eigenpairs(op, 2)
    d = abs(position_element(pairs[0].wavefunction, pairs[1].wavefunction, dw_grid))
    assert d == pytest.approx(1.158335, rel=5e-4)


def test_position_element_harmonic_ladder(harmonic_grid):
    op = assemble_hamiltonian(harmonic(), harmonic_grid)
    pairs = lowest_eigenpairs(op, 2)
    d = abs(position_element(pairs[0].wavefunction, pairs[1].wavefunction, harmonic_grid))
    assert d == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-5)


def test_position_element_symmetric_in_arguments(dw_grid):
    op = assemble_hamiltonian(double_well(0.5), dw_grid)
    pairs = lowest_eigenpairs(op, 2)
    a, b = pairs[0].wavefunction, pairs[1].wavefunction
    assert position_element(a, b, dw_grid) == position_element(b, a, dw_grid)


def test_position_element_grid_mismatch(dw_grid):
    with pytest.raises(UsageError):
        position_element(np.ones(10), np.ones(10), dw_grid)


def test_position_element_rejects_a_complex_wavefunction(harmonic_grid):
    # every wavefunction the library computes is real; a complex one is not
    # cast in silence
    phi = np.ones(harmonic_grid.n_points)
    with pytest.raises(UsageError, match="real"):
        position_element(phi, 1j * phi, harmonic_grid)
    with pytest.raises(UsageError, match="real"):
        position_element(phi.astype(complex), phi, harmonic_grid)


def test_momentum_of_real_state_vanishes(harmonic_grid):
    op = assemble_hamiltonian(harmonic(), harmonic_grid)
    phi = lowest_eigenpairs(op, 1)[0].wavefunction
    assert momentum_expectation(phi, harmonic_grid, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_momentum_phase_gradient(harmonic_grid):
    op = assemble_hamiltonian(harmonic(), harmonic_grid)
    phi = lowest_eigenpairs(op, 1)[0].wavefunction
    x = harmonic_grid.x
    psi = np.exp(1j * 0.7 * x) * phi
    assert momentum_expectation(psi, harmonic_grid, 1.0) == pytest.approx(0.7, abs=1e-4)


def test_momentum_conjugation_flips_sign(harmonic_grid):
    op = assemble_hamiltonian(harmonic(), harmonic_grid)
    phi = lowest_eigenpairs(op, 1)[0].wavefunction
    x = harmonic_grid.x
    psi = np.exp(1j * 0.4 * x) * phi
    p = momentum_expectation(psi, harmonic_grid, 1.0)
    assert momentum_expectation(np.conj(psi), harmonic_grid, 1.0) == pytest.approx(-p, abs=1e-12)


def test_momentum_rejects_unnormalized(harmonic_grid):
    op = assemble_hamiltonian(harmonic(), harmonic_grid)
    phi = lowest_eigenpairs(op, 1)[0].wavefunction
    with pytest.raises(UsageError):
        momentum_expectation(2.0 * phi, harmonic_grid, 1.0)


def test_grid_arrays_are_cached_and_read_only():
    grid = GridSpec(-6.0, 6.0, 401)
    x = grid.x
    assert grid.x is x
    assert np.array_equal(x, np.linspace(-6.0, 6.0, 401))
    with pytest.raises(ValueError):
        x[0] = 1.0
