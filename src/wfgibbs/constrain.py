"""Constrained ground states and the effective potential.

For a target position expectation q the ground state of the tilted
Hamiltonian H + lambda*q is solved self-consistently: the multiplier
lambda(q) is the root of g(lambda) = <phi_lambda, q phi_lambda> - q, which
is strictly decreasing in lambda. The effective potential is

    V_eff(q) = E0_lambda(q) - lambda(q) * q,

a Legendre-type transform of the concave map lambda -> E0_lambda; it is
convex with dV_eff/dq = -lambda(q). Generalized coherent states are
exp(i p x / hbar) * phi_lambda(q)(x).

Where the q nodes are prescribed (effective_potential), each is a root in
lambda. Where they are free (lambda_walk_table), no root is needed: by
Hellmann-Feynman every tilted ground state is itself an exact node
(q(lambda), E0(lambda) - lambda q(lambda)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, UnreachableTargetError, UsageError
from .lattice import (
    GridSpec,
    ModelParams,
    QuarticDoubleWell,
    TridiagonalOperator,
    assemble_hamiltonian,
    position_element,
    tilt_hamiltonian,
)
from .spectra import lowest_eigenpairs

DEFAULT_ROOT_TOL_SCALE = 1e-8
MAX_BRACKET_DOUBLINGS = 60
MAX_ROOT_STEPS = 200
MAX_STEP_HALVINGS = 40
MAX_WALK_STEPS_PER_NODE = 8  # a lambda walk takes at most this many steps per n_q

def default_grid(mp: ModelParams) -> GridSpec:
    """Grid wide and fine enough for the low-lying states of the model.

    For the quartic double well with x0 = 1.5 this is [-6, 6] with 4001
    points; wavefunction tails there are below 1e-12 for all studied masses.
    """
    pot = mp.potential
    half = max(6.0, 4.0 * pot.x0) if isinstance(pot, QuarticDoubleWell) else 10.0
    return GridSpec(-half, half, 4001)


@dataclass(frozen=True)
class ConstrainedState:
    """Self-consistent record (q, lambda(q), ground energy, wavefunction),
    with the number of k=1 eigensolves the root took and how many of the
    warm-started ones fell back to a cold LAPACK solve."""

    q_target: float
    lam: float
    ground_energy: float
    v_eff: float
    wavefunction: np.ndarray
    constraint_residual: float
    eigensolves: int
    lapack_fallbacks: int


@dataclass(frozen=True)
class CoherentState:
    q: float
    p: float
    psi: np.ndarray


@dataclass
class EffectivePotentialTable:
    """Sampled V_eff(q) with the doublet metadata used for rescaling."""

    q: np.ndarray
    v_eff: np.ndarray
    lam: np.ndarray
    meta: dict = field(default_factory=dict)
    bounded_support: bool = False

    def interpolate(self, qq):
        """Piecewise-linear V_eff between table nodes."""
        return np.interp(qq, self.q, self.v_eff)


def decreasing_root(f, lo: float, hi: float, ftol: float):
    """(x, f(x)) with |f(x)| <= ftol for a strictly decreasing f.

    The bracket [lo, hi] is widened geometrically until f(lo) >= 0 >= f(hi),
    then narrowed by Illinois regula falsi (Dowell & Jarratt 1971): the
    secant root of the bracket ends, with the value kept at a stale end
    halved, and the midpoint whenever the secant point leaves the bracket.
    """
    width, doublings = 0.5 * (hi - lo), 0
    f_lo, f_hi = f(lo), f(hi)
    while f_lo < 0 or f_hi > 0:
        if doublings == MAX_BRACKET_DOUBLINGS:
            raise UnreachableTargetError(
                f"root not bracketed after {MAX_BRACKET_DOUBLINGS} doublings "
                f"(grid too narrow?)", residual=min(abs(f_lo), abs(f_hi)))
        # the end on the wrong side of the root becomes the other end
        if f_lo < 0:
            hi, f_hi, lo = lo, f_lo, lo - width
            f_lo = f(lo)
        else:
            lo, f_lo, hi = hi, f_hi, hi + width
            f_hi = f(hi)
        width *= 2.0
        doublings += 1
    if abs(f_lo) <= ftol:
        return lo, f_lo
    if abs(f_hi) <= ftol:
        return hi, f_hi

    best, kept = min(abs(f_lo), abs(f_hi)), 0
    for _ in range(MAX_ROOT_STEPS):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= ftol:
            return x, fx
        best = min(best, abs(fx))
        if fx > 0:
            lo, f_lo = x, fx
            if kept > 0:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept < 0:
                f_lo *= 0.5
            kept = -1
    raise SolverError(f"root not within ftol={ftol} after {MAX_ROOT_STEPS} steps",
                      residual=best)


def solve_lambda(mp: ModelParams, q_target: float, grid: GridSpec,
                 bracket_center: float = 0.0, op: TridiagonalOperator | None = None,
                 bracket_width: float = 1.0, start: np.ndarray | None = None) -> ConstrainedState:
    """Find lambda such that the tilted ground state has <q> = q_target.

    g(lambda) = <q>_lambda - q_target is strictly decreasing, so the
    bracketed root of decreasing_root, opened at bracket_center +-
    bracket_width, always converges. Newton is deliberately avoided: g is
    extremely steep near lambda = 0 when the tunneling splitting is small.
    Each eigensolve is warm-started from the cached ground state with the
    nearest multiplier, or from start (e.g. the previous point's state)
    before any is cached.
    """
    if op is None:
        op = assemble_hamiltonian(mp, grid)

    pairs = {}
    solves = fallbacks = 0

    def g(lam):
        nonlocal solves, fallbacks
        near = min(pairs, key=lambda cached: abs(cached - lam), default=None)
        seed = start if near is None else pairs[near].wavefunction
        pair = pairs[lam] = lowest_eigenpairs(tilt_hamiltonian(op, lam), 1, start=seed)[0]
        solves += 1
        if seed is not None and pair.method == "lapack":
            fallbacks += 1
        return position_element(pair.wavefunction, pair.wavefunction, grid) - q_target

    # symmetric potential at q = 0: lambda = 0 by parity, skip the stiff
    # root-finding region entirely
    if q_target == 0.0 and mp.potential.is_symmetric:
        lam, resid = 0.0, g(0.0)
    else:
        lam, resid = decreasing_root(g, bracket_center - bracket_width,
                                     bracket_center + bracket_width,
                                     DEFAULT_ROOT_TOL_SCALE * max(1.0, abs(q_target)))
    pair = pairs[lam]
    return ConstrainedState(q_target, lam, pair.energy, pair.energy - lam * q_target,
                            pair.wavefunction, abs(resid), solves, fallbacks)


def _doublet(op: TridiagonalOperator):
    """The two lowest eigenpairs of op and their (e1, e2, |<phi_1, q phi_2>|)."""
    pairs = lowest_eigenpairs(op, 2)
    return pairs, (pairs[0].energy, pairs[1].energy,
                   abs(position_element(pairs[0].wavefunction, pairs[1].wavefunction, op.grid)))


def effective_potential(mp: ModelParams, q_grid, grid: GridSpec,
                        doublet: tuple | None = None) -> EffectivePotentialTable:
    """Tabulate V_eff over an ascending q grid.

    Continuation: each point's root bracket is centred on the multiplier
    extrapolated from the last two points, lambda_prev + dlambda_prev, with
    half-width |dlambda_prev| (1 at the first point), and its eigensolves
    start from the previous point's ground state. Points whose solve fails
    are recorded in the metadata and excluded from the table. doublet, the
    (e1, e2, d) of the lowest doublet on the same grid when the caller has
    already solved it, is stored as given; otherwise it is solved here.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    if len(q_grid) == 0:
        raise UsageError("empty q grid")
    if np.any(np.diff(q_grid) <= 0):
        raise UsageError("q grid must be strictly ascending")
    op = assemble_hamiltonian(mp, grid)
    e1, e2, d = _doublet(op)[1] if doublet is None else doublet

    qs, vs, ls, failed = [], [], [], []
    prev_lam, dlam, start = 0.0, 0.0, None
    eigensolves = fallbacks = 0
    for qt in q_grid:
        try:
            cs = solve_lambda(mp, qt, grid=grid, bracket_center=prev_lam + dlam,
                              op=op, bracket_width=abs(dlam) or 1.0, start=start)
        except SolverError as exc:
            failed.append({"q": float(qt), "error": str(exc)})
            continue
        if qs:
            dlam = cs.lam - prev_lam
        prev_lam, start = cs.lam, cs.wavefunction
        eigensolves += cs.eigensolves
        fallbacks += cs.lapack_fallbacks
        qs.append(cs.q_target)
        vs.append(cs.v_eff)
        ls.append(cs.lam)

    meta = {
        "e1": e1,
        "e2": e2,
        "d": d,
        "model": mp.to_dict(),
        "grid": grid.to_dict(),
        "root_tol_scale": DEFAULT_ROOT_TOL_SCALE,
        "failed_points": failed,
        "eigensolves": eigensolves,
        "lapack_fallbacks": fallbacks,
    }
    return EffectivePotentialTable(np.asarray(qs), np.asarray(vs), np.asarray(ls), meta)


def lambda_walk_table(mp: ModelParams, q_max: float, n_q: int, grid: GridSpec,
                      doublet: tuple | None = None) -> EffectivePotentialTable:
    """Tabulate V_eff on free nodes covering [-q_max, q_max], with no root
    finding.

    lambda is walked by continuation from 0, one ground state of H + lambda q
    per node, each warm-started from the previous node's. Each step is aimed
    at dq = h = 2 q_max / (n_q - 1) along the last secant dq/dlambda (the
    two-level susceptibility -2 d^2 / (e2 - e1) before the first) and halved
    while |dq| > 1.5 h, so no gap exceeds 1.5 h; a walk ends at its first
    node past q_max. A symmetric potential on a symmetric grid is walked on
    lambda <= 0 only and mirrored, (q, V, lambda) -> (-q, V, -lambda), about
    the exact node (0, E0, 0). doublet is as in effective_potential. A walk
    that stalls or exceeds its step bounds raises SolverError.
    """
    if not 0 < q_max < np.inf or n_q < 2:
        raise UsageError(f"need 0 < q_max < inf and n_q >= 2, got {q_max}, {n_q}")
    op = assemble_hamiltonian(mp, grid)
    if doublet is None:
        pairs, doublet = _doublet(op)
        ground, eigensolves = pairs[0], 0
    else:
        ground, eigensolves = lowest_eigenpairs(op, 1)[0], 1
    e1, e2, d = doublet
    h = 2.0 * q_max / (n_q - 1)
    mirror = mp.potential.is_symmetric and grid.is_symmetric
    q0 = 0.0 if mirror else position_element(ground.wavefunction, ground.wavefunction, grid)
    fallbacks = 0

    def walk(direction):
        """Nodes (q, V, lambda) from q0 out past direction * q_max."""
        nonlocal eigensolves, fallbacks
        lam, q, state = 0.0, q0, ground.wavefunction
        slope = -2.0 * d**2 / (e2 - e1)
        nodes = []
        while direction * q < q_max:
            if len(nodes) >= MAX_WALK_STEPS_PER_NODE * n_q:
                raise SolverError(f"lambda walk passed {len(nodes)} nodes at q={q} "
                                  f"without reaching |q| = {q_max}")
            step = direction * h / slope
            for _ in range(MAX_STEP_HALVINGS + 1):
                pair = lowest_eigenpairs(tilt_hamiltonian(op, lam + step), 1, start=state)[0]
                eigensolves += 1
                fallbacks += pair.method == "lapack"
                q_new = position_element(pair.wavefunction, pair.wavefunction, grid)
                dq = q_new - q
                if abs(dq) <= 1.5 * h:
                    break
                step *= 0.5
            else:
                raise SolverError(f"lambda step at q={q} still moves q by {dq:.3g} "
                                  f"> 1.5 h after {MAX_STEP_HALVINGS} halvings")
            if not direction * dq > 0:
                raise UnreachableTargetError(
                    f"<q> stalls at {q} short of |q| = {q_max} (grid too narrow?)")
            slope = dq / step
            lam, q, state = lam + step, q_new, pair.wavefunction
            nodes.append((q, pair.energy - lam * q, lam))
        return nodes

    up = walk(1.0)
    down = [(-q, v, -lam) for q, v, lam in up] if mirror else walk(-1.0)
    q, v, lam = np.array(down[::-1] + [(q0, ground.energy, 0.0)] + up).T
    meta = {
        "e1": e1,
        "e2": e2,
        "d": d,
        "model": mp.to_dict(),
        "grid": grid.to_dict(),
        "failed_points": [],
        "eigensolves": eigensolves,
        "lapack_fallbacks": fallbacks,
    }
    return EffectivePotentialTable(q, v, lam, meta)


def coherent_state(cs: ConstrainedState, p: float, mp: ModelParams,
                   grid: GridSpec) -> CoherentState:
    """exp(i p x / hbar) times the constrained ground state."""
    psi = np.exp(1j * p * grid.x / mp.hbar) * cs.wavefunction
    return CoherentState(cs.q_target, p, psi)

