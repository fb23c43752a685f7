"""Regenerate ``ledger.json``, the record of what the CLI writes on the
presets in ``configs/``.

    python3 tests/make_ledger.py

Each run is one (preset, command): every command but ``sample`` on every
preset, and ``sample`` on ``dw_m0.2.json``. The ledger records each run's
exit code, the sha256 of its stdout, its stderr and each output file, and
for each numeric CSV column its row count, min, max and sum, so that a
changed hash comes with a readable size. It also records the Python, numpy
and scipy versions it was made with: bit-identity holds on one build.
It is made with ``OPENBLAS_NUM_THREADS=2``, as CI runs it: 1-D dots over
more than 10000 grid points change their last bits with the thread count
and move ``harmonic_sample.json``'s ``fluct`` run on one thread.
``test_ledger.py`` reruns every run against it. A change that moves an
output runs this script and commits the new ledger with its reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from wfgibbs import cli  # noqa: E402

LEDGER = TESTS / "ledger.json"
PRESETS = TESTS.parent / "configs"
SAMPLED = "dw_m0.2.json"  # the preset whose sample run the ledger records


def versions() -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def runs() -> list:
    """The (preset, command) pairs of the ledger, in its order."""
    presets = sorted(p.name for p in PRESETS.glob("*.json"))
    return [(preset, command) for preset in presets for command in cli.COMMANDS
            if command != "sample" or preset == SAMPLED]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _columns(text: str) -> dict:
    """Rows, min, max and sum of each numeric column of a CSV's text."""
    lines = text.splitlines()
    names = lines[1].removeprefix("# columns: ").split(",")
    cells = np.array([line.split(",") for line in lines[2:]], dtype=str).reshape(-1, len(names))
    summary = {}
    for name, cell in zip(names, cells.T):
        try:
            values = cell.astype(float)
        except ValueError:  # a text column (eig.csv's parity): its file's hash holds it
            continue
        summary[name] = {"rows": len(values), "min": float(values.min(initial=np.inf)),
                         "max": float(values.max(initial=-np.inf)), "sum": float(values.sum())}
    return summary


def record(preset: str, command: str) -> dict:
    """Run one command on one preset, in this process, and return its entry."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [command, "--config", str(PRESETS / preset), "--out", str(out)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        files = {}
        for path in sorted(out.iterdir()) if out.exists() else []:
            data = path.read_bytes()
            files[path.name] = {"sha256": _digest(data)}
            if path.suffix == ".csv":
                files[path.name]["columns"] = _columns(data.decode())
    return {"exit": code, "stdout": _digest(stdout.getvalue().encode()),
            "stderr": _digest(stderr.getvalue().encode()), "files": files}


def main() -> None:
    ledger = {"versions": versions(),
              "runs": {f"{preset} {command}": record(preset, command)
                       for preset, command in runs()}}
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {LEDGER} ({len(ledger['runs'])} runs)")


if __name__ == "__main__":
    main()
