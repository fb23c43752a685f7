"""Analytic two-level reduction of the symmetric double well.

Restricting the constrained minimization to the lowest tunneling doublet
(phi_1 even, phi_2 odd, energies E1 < E2, dipole d = <phi_1, q phi_2>)
gives the closed-form effective potential

    V_eff(q) = (E2 + E1)/2 - (E2 - E1)/2 * sqrt(1 - (q/d)^2),  |q| <= d.

Constrained states are parametrized in the energy eigenbasis by
theta = arcsin(q/d)/2 with coefficients (cos theta, sin theta), which
satisfies both the position constraint 2 a1 a2 d = q and the energy
identity a1^2 E1 + a2^2 E2 = V_eff(q). The arc's slope diverges at +-d,
so its thermal law, thermal.two_state_curve, integrates in the angle 2 theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .lattice import GridSpec, ModelParams, assemble_hamiltonian, position_element
from .spectra import lowest_eigenpairs


@dataclass(frozen=True)
class TwoStateModel:
    """The lowest doublet of model on grid: the one record of (e1, e2, d)
    that every V_eff table is anchored on and rescaled by."""

    e1: float
    e2: float
    d: float
    phi1: np.ndarray
    phi2: np.ndarray
    grid: GridSpec
    model: ModelParams

    @property
    def splitting(self) -> float:
        return self.e2 - self.e1

    @property
    def mean_level(self) -> float:
        return 0.5 * (self.e1 + self.e2)


def two_state_from_pairs(mp: ModelParams, grid: GridSpec, pairs) -> TwoStateModel:
    """The doublet of the two lowest eigenpairs of mp on grid.

    d is stored positive; the sign ambiguity of phi_2 is absorbed by
    flipping it so that <phi_1, q phi_2> > 0.
    """
    phi1, phi2 = pairs[0].wavefunction, pairs[1].wavefunction
    d = position_element(phi1, phi2, grid)
    if d < 0:
        phi2 = -phi2
        d = -d
    return TwoStateModel(pairs[0].energy, pairs[1].energy, d, phi1, phi2, grid, mp)


def build_two_state(mp: ModelParams, grid: GridSpec) -> TwoStateModel:
    """Solve the lowest doublet and its dipole matrix element."""
    return two_state_from_pairs(mp, grid, lowest_eigenpairs(assemble_hamiltonian(mp, grid), 2))


def _check_domain(ts: TwoStateModel, q) -> None:
    q_max = float(np.max(np.abs(q), initial=0.0))
    if q_max > ts.d * (1.0 + 1e-12):
        raise UsageError(f"|q|={q_max} exceeds the dipole d={ts.d}")


def two_state_veff(ts: TwoStateModel, q):
    """Closed-form effective potential on [-d, d], at a q or an array of them."""
    _check_domain(ts, q)
    u = np.minimum(1.0, np.abs(q) / ts.d)
    return ts.mean_level - 0.5 * ts.splitting * np.sqrt(1.0 - u * u)


def rescale(ts: TwoStateModel, v_eff, q):
    """(q/d, (v - mean)/half-splitting): positions and energies in the
    doublet's units."""
    return np.asarray(q) / ts.d, (np.asarray(v_eff) - ts.mean_level) / (0.5 * ts.splitting)
