"""Thermal statistics of expectation values.

The low-temperature density of (<q>, <p>) factorizes into a Gaussian
momentum marginal with variance m/beta and a position marginal
proportional to exp(-beta V_eff(q)). Each integral of exp(-beta V) here
is one rule, _gauss, on intervals between ascending cuts: of a table's
V_eff (cubic Hermite on the exact slopes -lambda) or of the closed-form
two-state arc; the exact law of the N-level measure is sampling's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constrain import EffectivePotentialTable, lambda_walk_table
from .errors import CoverageError, SolverError, UsageError
from .lattice import GridSpec, ModelParams
from .twostate import TwoStateModel

BOUNDARY_TAIL = 1e-8  # coverage criterion: tail density / peak density
# beta (V - min V) at the ends of required_q_range: exp(-25) ~ 1.4e-11 lies
# below BOUNDARY_TAIL
Q_RANGE_MARGIN = 25.0
GAUSS_POINTS = 6  # of the Gauss-Legendre rule on each interval between cuts
CURVE_RTOL = 1e-9  # agreement of delta_q between a curve's rule and its halving
MAX_HALVINGS = 8  # of a curve's intervals before its rule is given up
ARC_SEGMENTS = 64  # of the two-state arc's angle on [-pi/2, pi/2]
MAX_GRID_POINTS = 1 << 20  # of a widened grid: 8 MiB per grid vector


@dataclass(frozen=True)
class ThermalCurve:
    """Fluctuations of <q> versus temperature, with rescaled axes, and the
    quadrature's self-check: the rules evaluated, each on twice the
    intervals of the last, and the largest relative change of delta_q over
    beta between the last two."""

    beta: np.ndarray
    mean_q: np.ndarray
    delta_q: np.ndarray
    delta_q_over_d: np.ndarray
    delta_p: np.ndarray
    evaluations: int
    agreement: float


def _check_beta(beta: float) -> None:
    if not 0 < beta < np.inf:
        raise UsageError(f"beta must be positive and finite, got {beta}")


def _check_table(table: EffectivePotentialTable) -> None:
    if len(table.q) < 2:
        raise UsageError("effective-potential table needs at least two points")


def _gauss(cuts):
    """Nodes and weights of the GAUSS_POINTS-point Gauss-Legendre rule on
    each interval between ascending cuts, one row per interval."""
    x, w = np.polynomial.legendre.leggauss(GAUSS_POINTS)
    half = 0.5 * np.diff(cuts)[:, None]
    return 0.5 * (cuts[:-1] + cuts[1:])[:, None] + half * x, half * w


def bin_masses(table: EffectivePotentialTable, beta: float, edges) -> np.ndarray:
    """Probability of each bin between consecutive ascending edges under
    exp(-beta V_eff), V_eff the table's interpolate, normalized over the
    table's range: the rule on the table's nodes merged with the edges, so
    mass outside the table's range counts as zero."""
    _check_table(table)
    _check_beta(beta)
    edges = np.clip(np.asarray(edges, dtype=float), table.q[0], table.q[-1])
    cuts = np.union1d(table.q, edges)
    nodes, weights = _gauss(cuts)
    v = table.interpolate(nodes)
    cdf = np.cumsum(np.r_[0.0, (weights * np.exp(-beta * (v - v.min()))).sum(axis=1)])
    return np.diff(cdf[np.searchsorted(cuts, edges)]) / cdf[-1]


def _curve(doublet: TwoStateModel, betas, cuts, law, floor, ends=np.inf) -> ThermalCurve:
    """Mean and dispersion of q at each beta under exp(-beta V), by the rule
    on cuts in a variable s, law(s) giving (q, V, dq/ds), with V shifted by
    min(V, floor); halved until delta_q agrees with the last rule to
    CURVE_RTOL at every beta, the coarser of the two, or SolverError after
    MAX_HALVINGS halvings. CoverageError names the first beta, in the given
    order, at which exp(-beta (ends - floor)) exceeds BOUNDARY_TAIL."""
    betas = np.asarray(betas, dtype=float)
    for beta in betas:
        _check_beta(beta)
        if (tail := np.exp(-beta * (ends - floor))) > BOUNDARY_TAIL:
            raise CoverageError(f"table range [{cuts[0]}, {cuts[-1]}] too narrow at beta={beta}: "
                                f"boundary density {tail:.2e} of peak exceeds {BOUNDARY_TAIL}",
                                beta=beta)
    curve = np.full((2, len(betas)), np.nan)  # which no rule agrees with
    for evaluations in range(1, MAX_HALVINGS + 2):
        nodes, weights = _gauss(cuts)
        q, v, jacobian = law(nodes.ravel())
        forms = (weights.ravel() * jacobian) * np.array([np.ones_like(q), q, q**2])
        excess = v - min(v.min(), floor)
        m0, m1, m2 = np.reshape([forms @ np.exp(-beta * excess) for beta in betas], (-1, 3)).T
        finer = m1 / m0, np.sqrt(np.maximum(m2 / m0 - (m1 / m0) ** 2, 0.0))
        change = np.abs(finer[1] - curve[1])
        moved = ~(change <= CURVE_RTOL * finer[1])  # nan never agrees
        if not moved.any():
            break
        curve, cuts = finer, np.sort(np.r_[cuts, 0.5 * (cuts[1:] + cuts[:-1])])
    else:
        raise SolverError(f"delta_q is off by more than {CURVE_RTOL} of itself from half as many "
                          f"at beta={betas[moved][0]}, after {MAX_HALVINGS} halvings")
    mean_q, delta_q = curve
    return ThermalCurve(
        beta=betas,
        mean_q=mean_q,
        delta_q=delta_q,
        delta_q_over_d=delta_q / doublet.d,
        delta_p=np.sqrt(doublet.model.mass / betas),
        evaluations=evaluations,
        # a delta_q of 0 that did not change agrees exactly
        agreement=float(np.max(np.divide(change, finer[1], out=np.zeros_like(change),
                                         where=change > 0), initial=0.0)),
    )


def fluctuation_curve(table: EffectivePotentialTable, betas, *,
                      restricted: bool = False) -> ThermalCurve:
    """_curve of the table's interpolate V_eff on its segments, with
    restricted cut at +-d (the doublet's d), or at the table's ends where it
    falls short of them, which must then hold the density to BOUNDARY_TAIL
    as the whole table must; sqrt(m/beta) is the momentum dispersion."""
    _check_table(table)
    q, v, d = table.q, table.v_eff, table.doublet.d
    lo, hi = (max(-d, q[0]), min(d, q[-1])) if restricted else (q[0], q[-1])
    cuts = np.concatenate([[lo], q[(lo < q) & (q < hi)], [hi]])
    ends = np.inf if restricted and (lo, hi) == (-d, d) else min(v[0], v[-1])
    return _curve(table.doublet, betas, cuts, lambda s: (s, table.interpolate(s), 1.0),
                  v.min(), ends)


def two_state_curve(ts: TwoStateModel, betas) -> ThermalCurve:
    """_curve of the closed-form two-state arc on ARC_SEGMENTS equal
    segments of theta in [-pi/2, pi/2], q = d sin theta (twice twostate's
    mixing angle): V_eff less the mean level is -(E2 - E1)/2 cos theta,
    smooth, where in q the arc's slope diverges at +-d."""
    half = 0.5 * ts.splitting
    theta = np.linspace(-0.5 * np.pi, 0.5 * np.pi, ARC_SEGMENTS + 1)
    return _curve(ts, betas, theta,
                  lambda t: (ts.d * np.sin(t), -half * np.cos(t), ts.d * np.cos(t)), -half)


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
