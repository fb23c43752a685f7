"""Thermal statistics of expectation values.

The low-temperature density of (<q>, <p>) factorizes into a Gaussian
momentum marginal with variance m/beta and a position marginal
proportional to exp(-beta V_eff(q)). This module computes moments and
fluctuation curves from an effective-potential table, the V_eff law of
the paper, interpolated between nodes by the table (cubic Hermite on the
exact slopes -lambda); the exact law of the N-level measure is sampling's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constrain import EffectivePotentialTable, lambda_walk_table
from .errors import CoverageError, UsageError
from .lattice import GridSpec, ModelParams
from .twostate import TwoStateModel

BOUNDARY_TAIL = 1e-8  # coverage criterion: tail density / peak density
# beta (V - min V) at the ends of required_q_range: exp(-25) ~ 1.4e-11 lies
# below BOUNDARY_TAIL
Q_RANGE_MARGIN = 25.0
FINE_POINTS = 4001  # points of position_marginal's grid
GAUSS_POINTS = 6  # of fluctuation_curve's Gauss-Legendre rule on each table segment
MAX_GRID_POINTS = 1 << 20  # of a widened grid: 8 MiB per grid vector


@dataclass(frozen=True)
class ThermalCurve:
    """Fluctuations of <q> versus temperature, with rescaled axes."""

    beta: np.ndarray
    rescaled_temperature: np.ndarray
    mean_q: np.ndarray
    delta_q: np.ndarray
    delta_q_over_d: np.ndarray
    delta_p: np.ndarray


def _check_beta(beta: float) -> None:
    if not 0 < beta < np.inf:
        raise UsageError(f"beta must be positive and finite, got {beta}")


def position_marginal(table: EffectivePotentialTable, beta: float):
    """Normalized density of <q>, exp(-beta V_eff), on a grid of FINE_POINTS
    points over the table's range: V_eff is the table's interpolate, not the
    density, which preserves convexity and positivity, and the
    normalization is the trapezoid rule."""
    if len(table.q) < 2:
        raise UsageError("effective-potential table needs at least two points")
    _check_beta(beta)
    qq = np.linspace(table.q[0], table.q[-1], FINE_POINTS)
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


def fluctuation_curve(table: EffectivePotentialTable, betas) -> ThermalCurve:
    """Mean and dispersion of <q> at each beta under exp(-beta V_eff), V_eff
    the table's interpolate, by the GAUSS_POINTS-point Gauss-Legendre rule
    on each segment between table nodes; the three forms (1, q, q^2) are
    weighted once per curve and each beta costs one exponential.

    The Gaussian momentum dispersion sqrt(m/beta) is reported alongside.
    Raises CoverageError naming the first beta, in the given order, at which
    the density at the table's ends exceeds BOUNDARY_TAIL of its peak
    (skipped for tables with intrinsically bounded support, e.g. the
    two-state arc on [-d, d]).
    """
    q = table.q
    if len(q) < 2:
        raise UsageError("effective-potential table needs at least two points")
    betas = np.asarray(betas, dtype=float)
    x, w = np.polynomial.legendre.leggauss(GAUSS_POINTS)
    half = 0.5 * np.diff(q)[:, None]
    points = (0.5 * (q[:-1] + q[1:])[:, None] + half * x).ravel()
    forms = (half * w).ravel() * np.array([np.ones_like(points), points, points**2])
    v = table.interpolate(points)
    low = min(v.min(), table.v_eff.min())
    excess, edge = v - low, min(table.v_eff[0], table.v_eff[-1]) - low
    mean_q, delta_q = np.empty(len(betas)), np.empty(len(betas))
    for i, beta in enumerate(betas):
        _check_beta(beta)
        tail = np.exp(-beta * edge)
        if not table.bounded_support and tail > BOUNDARY_TAIL:
            raise CoverageError(f"table range [{q[0]}, {q[-1]}] too narrow at beta={beta}: "
                                f"boundary density {tail:.2e} of peak exceeds {BOUNDARY_TAIL}",
                                beta=beta)
        m0, m1, m2 = forms @ np.exp(-beta * excess)
        mean_q[i] = m1 / m0
        delta_q[i] = np.sqrt(max(m2 / m0 - mean_q[i] ** 2, 0.0))

    doublet = table.doublet
    return ThermalCurve(
        beta=betas,
        rescaled_temperature=2.0 / (betas * doublet.splitting),
        mean_q=mean_q,
        delta_q=delta_q,
        delta_q_over_d=delta_q / doublet.d,
        delta_p=np.sqrt(doublet.model.mass / betas),
    )


def required_q_range(mp: ModelParams, beta: float) -> float:
    """Half-range where exp(-beta (V - min V)) drops below the coverage criterion.

    Uses the bare potential as a proxy for V_eff (they agree far from the
    wells, where the ground state of the tilted problem is semiclassical).
    Every potential is a polynomial, so both steps are exact: min V is taken
    over the real roots of V', and the largest |x| where V - min V reaches
    Q_RANGE_MARGIN / beta is returned, found on each side by bisection on
    the sign of that difference evaluated in exact rational arithmetic,
    which a nearly double crossing (at a huge beta) does not disturb. A
    potential that does not confine (degree below 2, odd degree or a
    negative leading coefficient) covers no beta, nor does any potential a
    beta so small that Q_RANGE_MARGIN / beta overflows.
    """
    _check_beta(beta)
    v = np.polynomial.Polynomial(mp.potential.power_series(mp.mass)).trim()
    if v.degree() < 2 or v.degree() % 2 or v.coef[-1] < 0:
        raise CoverageError(f"potential does not confine; cannot cover beta={beta}", beta=beta)
    margin = Q_RANGE_MARGIN / beta
    if not np.isfinite(margin):
        raise CoverageError(f"{Q_RANGE_MARGIN}/beta is not finite; cannot cover beta={beta}",
                            beta=beta)
    ratios = [float(c).as_integer_ratio() for c in v.coef[::-1]]
    scale = max(den for _, den in ratios)  # a power of 2, as every den
    coef = [num * (scale // den) for num, den in ratios]

    def exact(x):
        # V(n / d) scale d^deg = sum_k coef_k n^k d^(deg - k), by Horner
        n, d = float(x).as_integer_ratio()
        value, power = coef[0], 1
        for c in coef[1:]:
            power *= d
            value = value * n + c * power
        return Fraction(value, scale * power)

    critical = v.deriv().roots().real
    level = min(map(exact, critical)) + Fraction(margin)
    # V is monotone between critical points, so beyond the outermost one
    # below the level V crosses it once on each side
    below = [x for x in critical if exact(x) < level]
    return max(_crossing(exact, level, max(below), 1.0),
               -_crossing(exact, level, min(below), -1.0))


def _crossing(value, level, inside, step):
    """The first float past inside, along the sign of step, where value
    reaches level; value is below level at inside and crosses it once past
    it. Steps doubling outward bracket the crossing, and bisection closes
    the bracket to adjacent floats."""
    while value(inside + step) < level:
        inside, step = inside + step, 2.0 * step
    outside = inside + step
    while (mid := 0.5 * (inside + outside)) not in (inside, outside):
        if value(mid) < level:
            inside = mid
        else:
            outside = mid
    return float(outside)


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
    widened grid. A widened grid of more than MAX_GRID_POINTS points covers
    no beta: CoverageError names the smallest one before any is allocated.
    """
    beta = float(np.min(betas))
    q_max = required_q_range(ts.model, beta)
    half = float(max(-grid.x_min, grid.x_max, q_max + 4.0))
    intervals = (grid.n_points - 1) * (2.0 * half) / (grid.x_max - grid.x_min)
    # an exact integer ratio computed a hair above it must not add an interval
    points = np.ceil(intervals - 1e-9) + 1
    if not points <= MAX_GRID_POINTS:
        raise CoverageError(f"covering beta={beta} needs a grid of {points:.3g} points on "
                            f"[{-half:.3g}, {half:.3g}], over the bound {MAX_GRID_POINTS}",
                            beta=beta)
    return lambda_walk_table(ts, q_max, n_q, GridSpec(-half, half, int(points)))
