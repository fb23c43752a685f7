"""Regenerate ``reference.json``, the data the benchmark checks outputs against.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are trusted: it records the ``veff``
tables with their doublets, and the truncated sampler models, that this
commit computes. The doublet values under ``doublet`` are independent
high-accuracy eigensolves (the regression targets of the test suite),
entered by hand.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from wfgibbs import cli, sampling  # noqa: E402
from wfgibbs.lattice import GridSpec, ModelParams  # noqa: E402

DOUBLET = {
    "0.2": {"e1": 3.415753, "e2": 4.877688, "d": 1.158335},
    "1.5": {"e1": 1.64383345, "e2": 1.65329839, "d": 1.38670188},
}


def main() -> int:
    work = ROOT / ".bench_runs" / "make_reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    veff = WORKLOADS["veff"]
    config = work / "config.json"
    config.write_text(json.dumps(veff.config(0)))
    if cli.main(veff.argv(config, work / "out")) != 0:
        return 1
    ref = {"doublet": DOUBLET, "veff_table": {}, "veff_meta": {}, "truncated_model": {}}
    for mass in veff.section["masses"]:
        stem = work / "out" / f"veff_table_m{checks.mass_tag(mass)}"
        ref["veff_table"][str(mass)] = checks.read_csv(stem.with_suffix(".csv")).tolist()
        meta = checks.read_json(stem.with_suffix(".json"))["meta"]
        ref["veff_meta"][str(mass)] = {k: meta[k] for k in ("e1", "e2", "d")}
    for name in ("sample_harmonic", "sample_dw"):
        w = WORKLOADS[name]
        tm = sampling.build_truncated_model(ModelParams.from_dict(w.model),
                                            w.section["n_basis"], GridSpec.from_dict(w.grid))
        ref["truncated_model"][name] = {"energies": tm.energies.tolist(),
                                        "q_matrix": tm.q_matrix.tolist(),
                                        "p_matrix_imag": tm.p_matrix_imag.tolist()}
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
