"""Spatial discretization and one-dimensional lattice Hamiltonians.

A Hamiltonian H = p^2/2m + V(q) is discretized with second-order central
finite differences on a uniform grid with Dirichlet (hard-wall) boundaries,
giving a real symmetric tridiagonal operator. The walls sit one step outside
the grid, at x_min - dx and x_max + dx, where every wavefunction vanishes.
The one inner product on grid vectors is the one H is symmetric in,
<a, b> = dx sum_i a_i b_i: the trapezoid rule on [x_min - dx, x_max + dx],
so quadrature and discretization share the same O(dx^2) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import ConfigurationError, UsageError


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid on [x_min, x_max] with n_points nodes."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not -np.inf < self.x_min < self.x_max < np.inf:
            raise ConfigurationError(
                f"degenerate or unbounded interval [{self.x_min}, {self.x_max}]"
            )
        if self.n_points < 3:
            raise ConfigurationError(f"n_points={self.n_points} < 3")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def is_symmetric(self) -> bool:
        return abs(self.x_min + self.x_max) < 1e-12 * (self.x_max - self.x_min)

    @cached_property
    def x(self) -> np.ndarray:
        """The grid nodes, computed once per grid and read-only."""
        x = np.linspace(self.x_min, self.x_max, self.n_points)
        x.flags.writeable = False
        return x

    def to_dict(self) -> dict:
        return {"x_min": self.x_min, "x_max": self.x_max, "n_points": self.n_points}

    @staticmethod
    def from_dict(d: dict) -> "GridSpec":
        return GridSpec(float(d["x_min"]), float(d["x_max"]), int(d["n_points"]))


# --- potentials -------------------------------------------------------------
# Every potential is a polynomial in x, defined once by power_series(mass), its
# coefficients lowest order first; its values and its parity derive from them.


class _PowerSeries:
    """A potential given by power_series(mass) alone."""

    def evaluate(self, x, mass):
        # bit for bit numpy.polynomial's polyval, without importing that package
        return np.polyval(self.power_series(mass)[::-1], x)

    @property
    def is_symmetric(self) -> bool:
        """Even in x: every odd coefficient is zero (the mass only scales them)."""
        return all(c == 0.0 for c in self.power_series(1.0)[1::2])


@dataclass(frozen=True)
class Harmonic(_PowerSeries):
    """V(x) = m omega^2 x^2 / 2 (the mass enters through ModelParams)."""

    omega: float

    def __post_init__(self):
        if not 0 < self.omega < np.inf:
            raise ConfigurationError(f"harmonic requires 0 < omega < inf, got {self.omega}")

    def power_series(self, mass):
        return (0.0, 0.0, 0.5 * mass * self.omega**2)

    def to_dict(self):
        return {"type": "harmonic", "omega": self.omega}


@dataclass(frozen=True)
class QuarticDoubleWell(_PowerSeries):
    """V(x) = w0 (x^2 - x0^2)^2: symmetric wells at +-x0, barrier w0*x0^4."""

    w0: float
    x0: float

    def __post_init__(self):
        if not (0 < self.w0 < np.inf and 0 < self.x0 < np.inf):
            raise ConfigurationError(
                f"quartic double well requires finite w0 > 0 and x0 > 0, got "
                f"w0={self.w0}, x0={self.x0}"
            )

    def power_series(self, mass):
        return (self.w0 * self.x0**4, 0.0, -2.0 * self.w0 * self.x0**2, 0.0, self.w0)

    def to_dict(self):
        return {"type": "quartic_double_well", "w0": self.w0, "x0": self.x0}


@dataclass(frozen=True)
class Polynomial(_PowerSeries):
    """V(x) = sum_k coefficients[k] x^k."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if len(self.coefficients) == 0 or not np.all(np.isfinite(self.coefficients)):
            raise ConfigurationError(
                f"polynomial potential needs finite coefficients, got {self.coefficients}")

    def power_series(self, mass):
        return self.coefficients

    def to_dict(self):
        return {"type": "polynomial", "coefficients": list(self.coefficients)}


@dataclass(frozen=True)
class Tilted(_PowerSeries):
    """base(x) + strength * x; at most one level of nesting."""

    base: Union[Harmonic, QuarticDoubleWell, Polynomial]
    strength: float

    def __post_init__(self):
        if isinstance(self.base, Tilted):
            raise ConfigurationError("tilted potentials cannot nest")
        if not np.isfinite(self.strength):
            raise ConfigurationError(f"tilt strength must be finite, got {self.strength}")

    def power_series(self, mass):
        c = self.base.power_series(mass) + (0.0, 0.0)
        return (c[0], c[1] + self.strength) + c[2:]

    def to_dict(self):
        return {"type": "tilted", "base": self.base.to_dict(), "strength": self.strength}


PotentialSpec = Union[Harmonic, QuarticDoubleWell, Polynomial, Tilted]

_POTENTIAL_TYPES = {
    "harmonic": lambda d: Harmonic(float(d["omega"])),
    "quartic_double_well": lambda d: QuarticDoubleWell(float(d["w0"]), float(d["x0"])),
    "polynomial": lambda d: Polynomial(tuple(d["coefficients"])),
    "tilted": lambda d: Tilted(potential_from_dict(d["base"]), float(d["strength"])),
}


def potential_from_dict(d: dict) -> PotentialSpec:
    try:
        kind = d["type"]
        factory = _POTENTIAL_TYPES[kind]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"unknown potential spec {d!r}") from exc
    return factory(d)


@dataclass(frozen=True)
class ModelParams:
    """Mass, hbar, and the potential; every Hamiltonian derives from this."""

    mass: float
    hbar: float
    potential: PotentialSpec

    def __post_init__(self):
        if not 0 < self.mass < np.inf:
            raise ConfigurationError(f"mass must be positive and finite, got {self.mass}")
        if not 0 < self.hbar < np.inf:
            raise ConfigurationError(f"hbar must be positive and finite, got {self.hbar}")

    def to_dict(self):
        return {
            "mass": self.mass,
            "hbar": self.hbar,
            "potential": self.potential.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelParams":
        return ModelParams(
            float(d["mass"]), float(d["hbar"]), potential_from_dict(d["potential"])
        )


# --- Hamiltonian assembly ---------------------------------------------------


@dataclass(frozen=True)
class TridiagonalOperator:
    """Real symmetric tridiagonal image of H on a grid."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    grid: GridSpec

    @property
    def n(self) -> int:
        return len(self.diagonal)

    @cached_property
    def norm_estimate(self) -> float:
        """Infinity-norm bound, used to scale residual tolerances."""
        return float(np.max(np.abs(self.diagonal)) + 2 * np.max(np.abs(self.off_diagonal)))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product H @ vec."""
        return tridiagonal_product(self.diagonal, self.off_diagonal, vec)


def tridiagonal_product(diagonal: np.ndarray, off_diagonal: np.ndarray,
                        vec: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix (diagonal, off_diagonal) times vec."""
    out = diagonal * vec
    out[:-1] += off_diagonal * vec[1:]
    out[1:] += off_diagonal * vec[:-1]
    return out


def assemble_hamiltonian(mp: ModelParams, grid: GridSpec) -> TridiagonalOperator:
    """Central-difference discretization of p^2/2m + V with hard walls."""
    t = mp.hbar**2 / (2.0 * mp.mass * grid.dx**2)
    diagonal = 2.0 * t + mp.potential.evaluate(grid.x, mp.mass)
    off_diagonal = np.full(grid.n_points - 1, -t)
    return TridiagonalOperator(diagonal, off_diagonal, grid)


def tilt_hamiltonian(op: TridiagonalOperator, lam: float) -> TridiagonalOperator:
    """H + lam * q, reusing the kinetic part of an assembled operator."""
    return TridiagonalOperator(op.diagonal + lam * op.grid.x, op.off_diagonal, op.grid)


# --- matrix elements --------------------------------------------------------


def _check_same_grid(a, b, grid):
    if len(a) != grid.n_points or len(b) != grid.n_points:
        raise UsageError(
            f"wavefunction length mismatch: {len(a)}, {len(b)} on grid of "
            f"{grid.n_points} points"
        )


def position_element(phi_a, phi_b, grid: GridSpec) -> float:
    """<phi_a, q phi_b> = dx sum_i phi_a x phi_b of two real wavefunctions
    (UsageError otherwise)."""
    _check_same_grid(phi_a, phi_b, grid)
    if not (np.isrealobj(phi_a) and np.isrealobj(phi_b)):
        raise UsageError("position_element takes real wavefunctions")
    return float(np.sum(phi_a * grid.x * phi_b) * grid.dx)
