import functools
import math

import numpy as np
import pytest
from mpmath import mp

from wfgibbs import (
    CoherentState,
    GridSpec,
    Harmonic,
    ModelParams,
    QuarticDoubleWell,
    UsageError,
    build_two_state,
    effective_potential,
)
from wfgibbs.lattice import _check_same_grid

# Reference doublet values for the quartic double well with hbar = 1,
# w0 = 1, x0 = 1.5 (independent high-accuracy eigensolves; these are the
# regression targets for the default grid).
DOUBLE_WELL_REFERENCE = {
    0.2: {"e1": 3.415753, "e2": 4.877688, "d": 1.158335},
    0.5: {"e1": 2.582908, "e2": 2.865508, "d": 1.268715},
    1.0: {"e1": 1.970442, "e2": 2.012262, "d": 1.353385},
    1.5: {"e1": 1.64383345, "e2": 1.65329839, "d": 1.38670188},
}

DOUBLE_WELL_MASSES = sorted(DOUBLE_WELL_REFERENCE)


def double_well(mass: float) -> ModelParams:
    return ModelParams(mass, 1.0, QuarticDoubleWell(1.0, 1.5))


def harmonic(mass: float = 1.0, omega: float = 1.0) -> ModelParams:
    return ModelParams(mass, 1.0, Harmonic(omega))


def inner_product(a, b, grid: GridSpec) -> complex:
    """Trapezoid inner product <a, b> on the grid."""
    _check_same_grid(a, b, grid)
    return np.sum(np.conj(a) * b * grid.weights)


def momentum_expectation(psi, grid: GridSpec, hbar: float) -> float:
    """<psi, p psi> with p = -i hbar d/dx (central differences).

    psi must be normalized on the grid; the imaginary residue of the
    quadratic form is verified to be below 1e-10 and discarded.
    """
    psi = np.asarray(psi)
    norm = np.real(inner_product(psi, psi, grid))
    if abs(norm - 1.0) > 1e-6:
        raise UsageError(f"momentum_expectation requires a normalized state, |psi|^2 = {norm}")
    dx = grid.dx
    # interior central differences; the Dirichlet tails make the boundary
    # contribution negligible
    deriv = np.zeros_like(psi)
    deriv[1:-1] = (psi[2:] - psi[:-2]) / (2.0 * dx)
    val = np.sum(np.conj(psi) * (-1j * hbar) * deriv) * dx
    if abs(val.imag) > 1e-10:
        raise UsageError(f"momentum expectation has imaginary residue {val.imag}")
    return float(val.real)


def coherent_state(cs, p: float, model: ModelParams, grid: GridSpec) -> CoherentState:
    """exp(i p x / hbar) times the constrained ground state cs."""
    psi = np.exp(1j * p * grid.x / model.hbar) * cs.wavefunction
    return CoherentState(cs.q_target, p, psi)


@pytest.fixture(scope="session")
def dw_grid():
    return GridSpec(-6.0, 6.0, 4001)


@pytest.fixture(scope="session")
def two_state_models(dw_grid):
    """Lowest-doublet reductions for the four reference masses."""
    return {m: build_two_state(double_well(m), dw_grid) for m in DOUBLE_WELL_MASSES}


@pytest.fixture(scope="session")
def dw_tables(two_state_models, dw_grid):
    """Exact effective-potential tables on |q/d| <= 0.995, 41 points."""
    tables = {}
    for m, ts in two_state_models.items():
        q = np.linspace(-0.995 * ts.d, 0.995 * ts.d, 41)
        tables[m] = effective_potential(ts, q, dw_grid)
    return tables


@pytest.fixture(scope="session")
def harmonic_grid():
    return GridSpec(-10.0, 10.0, 4001)


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


@functools.lru_cache
def _pair_moments(energies: tuple, beta: float) -> dict:
    """E[w_k w_l], k < l, under the thermal measure of the truncation.

    The recursive table loses about log10(2 / h) digits per order at node
    spacing h, so the working precision grows with N and with 1 / h.
    """
    gaps = np.diff(np.sort(beta * (np.asarray(energies) - energies[0])))
    h = min(gaps[gaps > 0], default=2.0)
    with mp.workdps(int(30 + (len(energies) + 2) * max(0.0, math.log10(2.0 / h)))):
        s = [mp.mpf(beta) * mp.mpf(e - energies[0]) for e in energies]
        denom = _dd_exp_neg(s)
        return {(k, l): _dd_exp_neg(s + [s[k], s[l]]) / denom
                for k in range(len(s)) for l in range(k + 1, len(s))}


def exact_sphere_variance(energies, off_matrix, beta):
    """Exact Var of c^dag M c over the thermal measure on the unit sphere.

    Valid for Hermitian M with zero diagonal (then the mean vanishes and
    Var = sum_{k<l} 2 |M_kl|^2 E[w_k w_l] with w_k = |c_k|^2). The moduli
    w follow a flat simplex density tilted by exp(-beta <E, w>), whose
    moments are ratios of confluent divided differences of exp.
    """
    off_matrix = np.asarray(off_matrix, dtype=float)
    assert np.max(np.abs(np.diag(off_matrix))) < 1e-6
    ew = _pair_moments(tuple(map(float, energies)), float(beta))
    total = sum(2 * mp.mpf(float(off_matrix[k, l] ** 2)) * v for (k, l), v in ew.items())
    return float(total)
