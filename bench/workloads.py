"""The benchmark's workloads: one ``wfgibbs`` command each, on a config
generated from a frozen copy of a preset in ``configs/`` and the workload
seed, with the checks its outputs must pass.

The presets are copied here, not read from ``configs/``, so that a change
to a preset cannot silently change what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import checks

DOUBLE_WELL = {"mass": 0.2, "hbar": 1.0,
               "potential": {"type": "quartic_double_well", "w0": 1.0, "x0": 1.5}}
HARMONIC = {"mass": 1.0, "hbar": 1.0, "potential": {"type": "harmonic", "omega": 1.0}}
DW_GRID = {"x_min": -6.0, "x_max": 6.0, "n_points": 4001}
HARMONIC_GRID = {"x_min": -10.0, "x_max": 10.0, "n_points": 4001}

VEFF_MASSES = [0.2, 1.5]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    model: dict
    grid: dict
    section: dict = field(default_factory=dict)
    min_ops: int = 1  # a short op is repeated so that its median is steady

    def config(self, seed: int) -> dict:
        """The only input the program sees."""
        return {"model": self.model, "grid": self.grid, "seed": int(seed),
                self.command: self.section}

    def argv(self, config_path: Path, out: Path) -> list:
        return [self.command, "--config", str(config_path), "--out", str(out)]

    def check(self, out: Path, ref: dict) -> tuple:
        """(list of Check, statistics of the outputs) for one op."""
        s = self.section
        if self.command == "veff":
            return checks.check_veff(out, ref, s["masses"], s["n_q"]), {}
        if self.command == "fluct":
            return checks.check_fluct(out, self.model["mass"], s["n_t"]), {}
        validate = s.get("validate")
        return checks.check_sample(
            out, ref["truncated_model"][self.name], s["beta"], s["chains"],
            s["steps_per_chain"],
            acceptance_range=(0.3, 0.5) if validate == "none" else None,
            tv_tolerance=s["tv_tolerance"] if validate == "marginal" else None)


WORKLOADS = {w.name: w for w in (
    Workload(
        "veff",
        "veff at the two ends of the splitting range: ~5000 k=1 eigensolves in "
        "constrained root solves at prescribed q nodes, no sampling",
        "veff", DOUBLE_WELL, DW_GRID,
        {"masses": VEFF_MASSES, "n_q": 81, "frac": 0.995}),
    Workload(
        "fluct",
        "fluct on dw_m0.2: free q nodes on a widened 7141-point grid, the only "
        "run of table_for_betas and fluctuation_curve",
        "fluct", DOUBLE_WELL, DW_GRID,
        {"t_min": 0.01, "t_max": 100.0, "n_t": 60, "n_q": 161}),
    Workload(
        "sample_harmonic",
        "sampler engine and CSV output with fast mixing (N=24, 4 chains), "
        "no constrained solves",
        "sample", HARMONIC, HARMONIC_GRID,
        {"n_basis": 24, "beta": 2.0, "chains": 4, "steps_per_chain": 50_000,
         "burn_in": 5_000, "validate": "none"},
        min_ops=4),
    Workload(
        "sample_dw",
        "slow-mixing sampler (N=8, 8 chains), marginal validation and a 1M-row "
        "CSV, each about a third of the time",
        "sample", DOUBLE_WELL, DW_GRID,
        {"n_basis": 8, "beta": 13.675730546881546, "chains": 8,
         "steps_per_chain": 125_000, "burn_in": 8_000, "validate": "marginal",
         "tv_tolerance": 0.05}),
)}
