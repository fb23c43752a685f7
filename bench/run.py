"""wfgibbs benchmark: each workload is one ``wfgibbs`` CLI command, run in
fresh processes on a config generated from a frozen preset and the seed.

    python3 bench/run.py --workload veff --seed 0 --seconds 8 --trace 0
    python3 bench/run.py --workload all

A run starts ``SETUP_PROBES`` processes that only import wfgibbs and load
the config (set-up time), then repeats the command, each time in a fresh
process, until ``--seconds`` have passed and the workload's ``min_ops``
ops have run. Every op's
outputs are checked against an exact law or a committed reference. With
``--trace 1`` one more op runs with spans around the public functions of
every layer, and the per-layer metrics come from it; the end-to-end
metrics come only from untraced ops.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units are those of ``BENCHMARK.json``. A run record with the machine,
software versions, inputs, every check and every metric's sample count is
written to ``.bench_runs/<workload>-seed<n>-trace<t>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import checks
from spans import layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0  # per workload; every process started ends within it


class Run:
    """The processes and checks of one workload at one seed."""

    def __init__(self, workload, seed: int, trace: bool):
        self.w = workload
        self.trace = trace
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.work = RUNS / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = workload.config(seed)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.reference = checks.load_reference()
        self.software = None

    def spawn(self, tag: str, argv=None, trace=False):
        """Start one worker and wait for it; (result or None, spawn time, seconds taken)."""
        result_path = self.work / f"{tag}.json"
        request = {"src": str(SRC), "config": str(self.config_path),
                   "result": str(result_path), "argv": argv, "trace": trace,
                   "software": self.software is None}
        start = time.monotonic()
        with open(self.work / f"{tag}.log", "w") as log:
            try:
                subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(request)],
                               stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                               timeout=max(self.deadline - start, 1.0))
            except subprocess.TimeoutExpired:
                print(f"{tag}: timed out", file=sys.stderr)
        elapsed = time.monotonic() - start
        if not result_path.exists():
            return None, start, elapsed
        result = checks.read_json(result_path)
        result_path.unlink()
        self.software = result.get("software", self.software)
        return result, start, elapsed

    def setup_probe(self, index: int) -> float:
        result, start, elapsed = self.spawn(f"setup{index}")
        return result["ready"] - start if result else elapsed

    def op(self, index: int, trace: bool) -> dict:
        out = self.work / f"op{index}"
        result, start, elapsed = self.spawn(f"op{index}", self.w.argv(self.config_path, out),
                                            trace)
        op = {"index": index, "trace": trace, "exit_code": None, "setup_s": elapsed,
              "wall_s": elapsed, "peak_rss_mb": 0.0, "checks": [], "stats": {}}
        if result is not None:
            op.update(setup_s=result["ready"] - start, exit_code=result.get("exit_code"),
                      wall_s=result.get("wall_s", elapsed),
                      peak_rss_mb=result.get("peak_rss_mb", 0.0))
            if trace:
                op["spans"], op["wrapped"] = result.get("spans", []), result.get("wrapped", [])
                op["checks"].append(checks.Check("trace_restored", float(result["restored"]),
                                                 "== 1", bool(result["restored"])))
        if op["exit_code"] == 0:
            try:
                found, op["stats"] = self.w.check(out, self.reference)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                found = [checks.Check("outputs_readable", 0.0, repr(exc)[:200], False)]
            op["checks"] += found
        files = [p for p in out.rglob("*") if p.is_file()] if out.exists() else []
        op["output_files"] = len(files)
        op["output_bytes"] = sum(p.stat().st_size for p in files)
        op["failed"] = op["exit_code"] != 0 or not all(c.passed for c in op["checks"])
        op["checks"] = [asdict(c) for c in op["checks"]]
        shutil.rmtree(out, ignore_errors=True)
        return op

    def measure(self, seconds: float) -> tuple:
        setups = [self.setup_probe(i) for i in range(SETUP_PROBES)]
        ops = []
        begin = time.monotonic()
        while len(ops) < self.w.min_ops or time.monotonic() - begin < seconds:
            longest = max(o["setup_s"] + o["wall_s"] for o in ops) if ops else 0.0
            if ops and self.deadline - time.monotonic() < 3.0 * longest:
                break
            ops.append(self.op(len(ops), trace=False))
        if self.trace:
            ops.append(self.op(len(ops), trace=True))
        return setups + [o["setup_s"] for o in ops], ops


def end_to_end(setups, untraced) -> dict:
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(o["wall_s"] for o in untraced), len(untraced)),
        "peak_rss_mb": (statistics.median(o["peak_rss_mb"] for o in untraced), len(untraced)),
    }


def per_layer(traced: dict, wall_s: float) -> tuple:
    values, missing = layer_metrics(traced.pop("spans", []), traced.pop("wrapped", []))
    stats = traced["stats"]
    iat = stats.get("iat_q", [])
    values.update({
        "constrain.q_points_per_s": values["constrain.points"] / wall_s,
        "sampling.acceptance": stats.get("acceptance", 0.0),
        "sampling.iat_q_mean": statistics.fmean(iat) if iat else 0.0,
        "sampling.iat_q_max": max(iat, default=0.0),
        "sampling.ess_q": stats.get("ess_q", 0.0),
        "sampling.ess_per_s": stats.get("ess_q", 0.0) / wall_s,
        "cli.output_bytes": traced["output_bytes"],
        "cli.output_files": traced["output_files"],
        "trace.overhead_s": traced["wall_s"] - wall_s,
    })
    return {k: (v, 1) for k, v in values.items()}, missing


def machine() -> dict:
    info = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
        with open("/proc/meminfo") as fh:
            info["ram"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("MemTotal")), None)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                info[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def commit():
    if not (ROOT / ".git").exists():
        return None
    found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    return found.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    run = Run(WORKLOADS[name], seed, trace)
    setups, ops = run.measure(seconds)
    untraced = [o for o in ops if not o["trace"]]
    measured = end_to_end(setups, untraced)
    missing = []
    if trace:
        measured, missing = per_layer(ops[-1], measured["wall_s"][0])
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in declared}
    failed = sum(o["failed"] for o in ops)

    print(f"workload {name}  seed {seed}  ops {len(ops)}  ops_failed {failed}")
    for o in ops:
        for c in o["checks"]:
            print(f"  op{o['index']} check {c['name']} = {c['value']:.6g} ({c['limit']})"
                  f" {'ok' if c['passed'] else 'FAILED'}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']} (n={measured[key][1]})")
    for key in missing:
        print(f"  {key}: not observed")

    record = {
        "workload": name, "why": run.w.why, "seed": seed, "seconds": seconds,
        "trace": trace, "commit": commit(), "machine": machine(),
        "software": run.software,
        "inputs": {"argv": run.w.argv(Path("config.json"), Path("out")), "config": run.config},
        "ops": ops,
        "metrics": {k: {**m, "samples": measured[k][1]} for k, m in metrics.items()},
        "not_observed": missing,
    }
    (run.work / "record.json").write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "wfgibbs" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no wfgibbs sources under {SRC} or no {spec_path.name}; nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec)
               for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
