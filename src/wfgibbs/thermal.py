"""Thermal statistics of expectation values.

The low-temperature density of (<q>, <p>) factorizes into a Gaussian
momentum marginal with variance m/beta and a position marginal
proportional to exp(-beta V_eff(q)). This module computes moments and
fluctuation curves from an effective-potential table, and the canonical
ensemble comparator whose position distribution is a sum of point atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constrain import EffectivePotentialTable, lambda_walk_table
from .errors import CoverageError, TruncationError, UsageError
from .lattice import GridSpec, ModelParams
from .sampling import TruncatedModel
from .twostate import TwoStateModel

BOUNDARY_TAIL = 1e-8  # coverage criterion: tail density / peak density
# beta (V - min V) at the ends of required_q_range: exp(-25) ~ 1.4e-11 lies
# below BOUNDARY_TAIL
Q_RANGE_MARGIN = 25.0


@dataclass(frozen=True)
class ThermalCurve:
    """Fluctuations of <q> versus temperature, with rescaled axes."""

    beta: np.ndarray
    rescaled_temperature: np.ndarray
    mean_q: np.ndarray
    delta_q: np.ndarray
    delta_q_over_d: np.ndarray
    delta_p: np.ndarray


@dataclass(frozen=True)
class CanonicalAtoms:
    """Point atoms (weight, q_k) of the canonical expectation distribution."""

    weights: np.ndarray
    positions: np.ndarray
    z: float

    def dispersion(self) -> float:
        mean = float(np.sum(self.weights * self.positions))
        second = float(np.sum(self.weights * self.positions**2))
        return float(np.sqrt(max(second - mean**2, 0.0)))


def position_marginal(table: EffectivePotentialTable, beta: float,
                      n_fine: int = 4001):
    """Normalized density of <q>, exp(-beta V_eff), on a refined grid over
    the table's range.

    Interpolation is piecewise-linear in V_eff, not in the density, which
    preserves convexity and positivity.
    """
    if not 0 < beta < np.inf:
        raise UsageError(f"beta must be positive and finite, got {beta}")
    if len(table.q) < 2:
        raise UsageError("effective-potential table needs at least two points")
    qq = np.linspace(table.q[0], table.q[-1], n_fine)
    v = table.interpolate(qq)
    dens = np.exp(-beta * (v - v.min()))
    return qq, dens / np.trapezoid(dens, qq)


def bin_masses(table: EffectivePotentialTable, beta: float, edges) -> np.ndarray:
    """Probability of each bin between consecutive edges under the marginal.

    The cumulative trapezoid integral of position_marginal is interpolated
    at the edges, so mass outside the table's range counts as zero.
    """
    qq, dens = position_marginal(table, beta)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(qq))])
    return np.diff(np.interp(edges, qq, cdf))


def _check_coverage(table, beta, qq, dens):
    if table.bounded_support:
        return
    tail = max(dens[0], dens[-1]) / dens.max()
    if tail > BOUNDARY_TAIL:
        raise CoverageError(
            f"table range [{qq[0]}, {qq[-1]}] too narrow at beta={beta}: "
            f"boundary density {tail:.2e} of peak exceeds {BOUNDARY_TAIL}",
            beta=beta,
        )


def fluctuation_curve(table: EffectivePotentialTable, betas,
                      n_fine: int = 4001) -> ThermalCurve:
    """Mean and dispersion of <q> at each beta, by trapezoid quadrature.

    The Gaussian momentum dispersion sqrt(m/beta) is reported alongside.
    Raises CoverageError naming the offending beta when the table does not
    contain the thermally relevant range (skipped for tables with
    intrinsically bounded support, e.g. the two-state arc on [-d, d]).
    """
    betas = np.asarray(betas, dtype=float)
    meta = table.meta
    mass = meta["model"]["mass"]
    splitting = meta["e2"] - meta["e1"]
    d = meta["d"]

    mean_q, delta_q = [], []
    for beta in betas:
        qq, dens = position_marginal(table, beta, n_fine)
        _check_coverage(table, beta, qq, dens)
        m1 = np.trapezoid(dens * qq, qq)
        m2 = np.trapezoid(dens * qq**2, qq)
        mean_q.append(m1)
        delta_q.append(np.sqrt(max(m2 - m1**2, 0.0)))

    mean_q = np.asarray(mean_q)
    delta_q = np.asarray(delta_q)
    return ThermalCurve(
        beta=betas,
        rescaled_temperature=2.0 / (betas * splitting),
        mean_q=mean_q,
        delta_q=delta_q,
        delta_q_over_d=delta_q / d,
        delta_p=np.sqrt(mass / betas),
    )


def required_q_range(mp: ModelParams, beta: float) -> float:
    """Half-range where exp(-beta (V - min V)) drops below the coverage criterion.

    Uses the bare potential as a proxy for V_eff (they agree far from the
    wells, where the ground state of the tilted problem is semiclassical).
    Every potential is a polynomial, so both steps are exact: min V is taken
    over the real roots of V', at x0, and the largest |x| of the real roots
    of V - min V - Q_RANGE_MARGIN / beta is returned. A potential that does not
    confine (degree below 2, odd degree or a negative leading coefficient)
    covers no beta.
    """
    if not 0 < beta < np.inf:
        raise UsageError(f"beta must be positive and finite, got {beta}")
    v = np.polynomial.Polynomial(mp.potential.power_series(mp.mass)).trim()
    if v.degree() < 2 or v.degree() % 2 or v.coef[-1] < 0:
        raise CoverageError(f"potential does not confine; cannot cover beta={beta}", beta=beta)
    critical = v.deriv().roots().real
    x0 = critical[np.argmin(v(critical))]
    roots = (v - v(x0) - Q_RANGE_MARGIN / beta).roots()
    # a crossing lies on each side of x0, so the range is at least |x0|; a
    # root nearly double (at a huge beta) comes out with a small imaginary part
    real = roots.real[np.abs(roots.imag) <= 1e-6 * (1 + np.abs(roots))]
    return float(np.max(np.abs(np.append(real, x0))))


def table_for_betas(ts: TwoStateModel, betas, n_q: int,
                    grid: GridSpec) -> EffectivePotentialTable:
    """V_eff table of ts.model wide enough for every requested beta.

    The nodes come from lambda_walk_table over [-q_max, q_max], q_max the
    required_q_range of the smallest beta (it grows as beta falls), at
    target spacing 2 q_max / (n_q - 1). The
    spatial grid is widened with them to the symmetric [-half, half], half =
    max(-x_min, x_max, q_max + 4), at the spacing of grid (rounded down to
    fit a whole number of intervals), so the tilted ground states stay away
    from the hard walls. ts, the lowest doublet, anchors the table as in
    lambda_walk_table: its even state warm-starts the untilted solve on the
    widened grid.
    """
    q_max = required_q_range(ts.model, float(np.min(betas)))
    half = float(max(-grid.x_min, grid.x_max, q_max + 4.0))
    intervals = (grid.n_points - 1) * (2.0 * half) / (grid.x_max - grid.x_min)
    # an exact integer ratio computed a hair above it must not add an interval
    wide = GridSpec(-half, half, int(np.ceil(intervals - 1e-9)) + 1)
    return lambda_walk_table(ts, q_max, n_q, wide)


def canonical_atoms(tm: TruncatedModel, beta: float) -> CanonicalAtoms:
    """Boltzmann-weighted atoms (e^(-beta E_k)/Z, <phi_k, q phi_k>) of the
    k_max = tm.n levels of a truncated model.

    Requires e^(-beta (E_kmax - E_1)) < 1e-10 so the truncation remainder
    is negligible.
    """
    if not 0 < beta < np.inf:
        raise UsageError(f"beta must be positive and finite, got {beta}")
    energies = tm.energies
    rel = np.exp(-beta * (energies - energies[0]))
    if rel[-1] >= 1e-10:
        raise TruncationError(
            f"k_max={tm.n} too small at beta={beta}: top-level weight "
            f"{rel[-1]:.2e} >= 1e-10; increase k_max"
        )
    weights = rel / rel.sum()
    z = float(np.exp(-beta * energies[0]) * rel.sum())
    return CanonicalAtoms(weights, np.diag(tm.q_matrix), z)
