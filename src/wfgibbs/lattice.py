"""Spatial discretization and one-dimensional lattice Hamiltonians.

A Hamiltonian H = p^2/2m + V(q) is discretized with second-order central
finite differences on a uniform grid with Dirichlet (hard-wall) boundaries,
giving a real symmetric tridiagonal operator. Inner products use the
trapezoid rule on the same grid, so quadrature and discretization share the
same O(dx^2) order.
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
        return _read_only(np.linspace(self.x_min, self.x_max, self.n_points))

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid weights, computed once per grid and read-only."""
        w = np.full(self.n_points, self.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        return _read_only(w)

    def to_dict(self) -> dict:
        return {"x_min": self.x_min, "x_max": self.x_max, "n_points": self.n_points}

    @staticmethod
    def from_dict(d: dict) -> "GridSpec":
        return GridSpec(float(d["x_min"]), float(d["x_max"]), int(d["n_points"]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# --- potentials -------------------------------------------------------------
# Every potential is a polynomial in x: evaluate(x, mass) gives its values and
# power_series(mass) its coefficients, lowest order first.


@dataclass(frozen=True)
class Harmonic:
    """V(x) = m omega^2 x^2 / 2 (the mass enters through ModelParams)."""

    omega: float

    def __post_init__(self):
        if not 0 < self.omega < np.inf:
            raise ConfigurationError(f"harmonic requires 0 < omega < inf, got {self.omega}")

    is_symmetric = True

    def evaluate(self, x, mass):
        return 0.5 * mass * self.omega**2 * np.asarray(x) ** 2

    def power_series(self, mass):
        return (0.0, 0.0, 0.5 * mass * self.omega**2)

    def to_dict(self):
        return {"type": "harmonic", "omega": self.omega}


@dataclass(frozen=True)
class QuarticDoubleWell:
    """V(x) = w0 (x^2 - x0^2)^2: symmetric wells at +-x0, barrier w0*x0^4."""

    w0: float
    x0: float

    def __post_init__(self):
        if not (0 < self.w0 < np.inf and 0 < self.x0 < np.inf):
            raise ConfigurationError(
                f"quartic double well requires finite w0 > 0 and x0 > 0, got "
                f"w0={self.w0}, x0={self.x0}"
            )

    is_symmetric = True

    def evaluate(self, x, mass):
        return self.w0 * (np.asarray(x) ** 2 - self.x0**2) ** 2

    def power_series(self, mass):
        return (self.w0 * self.x0**4, 0.0, -2.0 * self.w0 * self.x0**2, 0.0, self.w0)

    def to_dict(self):
        return {"type": "quartic_double_well", "w0": self.w0, "x0": self.x0}


@dataclass(frozen=True)
class Polynomial:
    """V(x) = sum_k coefficients[k] x^k."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if len(self.coefficients) == 0 or not np.all(np.isfinite(self.coefficients)):
            raise ConfigurationError(
                f"polynomial potential needs finite coefficients, got {self.coefficients}")

    @property
    def is_symmetric(self) -> bool:
        return all(c == 0.0 for c in self.coefficients[1::2])

    def evaluate(self, x, mass):
        return np.polynomial.polynomial.polyval(np.asarray(x), self.coefficients)

    def power_series(self, mass):
        return self.coefficients

    def to_dict(self):
        return {"type": "polynomial", "coefficients": list(self.coefficients)}


@dataclass(frozen=True)
class Tilted:
    """base(x) + strength * x; at most one level of nesting."""

    base: Union[Harmonic, QuarticDoubleWell, Polynomial]
    strength: float

    def __post_init__(self):
        if isinstance(self.base, Tilted):
            raise ConfigurationError("tilted potentials cannot nest")
        if not np.isfinite(self.strength):
            raise ConfigurationError(f"tilt strength must be finite, got {self.strength}")

    @property
    def is_symmetric(self) -> bool:
        return self.strength == 0.0 and self.base.is_symmetric

    def evaluate(self, x, mass):
        x = np.asarray(x)
        return self.base.evaluate(x, mass) + self.strength * x

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
        out = self.diagonal * vec
        out[:-1] += self.off_diagonal * vec[1:]
        out[1:] += self.off_diagonal * vec[:-1]
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
    """<phi_a, q phi_b> with trapezoid weights.

    The quadratic form is real for real wavefunctions and for phi_a = phi_b;
    any imaginary residue beyond roundoff is rejected.
    """
    _check_same_grid(phi_a, phi_b, grid)
    val = np.sum(np.conj(phi_a) * grid.x * phi_b * grid.weights)
    val = complex(val)
    if abs(val.imag) > 1e-10:
        raise UsageError(f"position element has imaginary residue {val.imag}")
    return val.real
