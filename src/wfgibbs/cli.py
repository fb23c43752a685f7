"""Command-line interface.

Subcommands: eig, veff, twostate, fluct, sample, canonical. Each reads a
single JSON configuration file (unknown keys rejected) and returns (exit
code, files): files maps each output file name to (columns, rows) for a .csv
file or to the payload of a JSON file. main alone creates the output
directory and writes them, into a staging directory that becomes the
output only once every file is complete, so a failed run writes nothing.
Exit codes: 0 success, 1 validation failure, usage error or coverage
error, 2 configuration error, 3 solver error (errors.py).
Every child process is started by _fork, the one fork: the child pickles
back each item of its job, then the error that ended it, which this
process raises as itself (_receive). veff and fluct solve each mass's
doublet and table in children (_per_mass). sample forks one child
(_formatter) with two jobs: it draws the chains' random numbers one block
ahead of the engine, straight into two block slots of memory it shares
with this process (the start vectors come back by value), and it formats
samples.csv while the chains run. One pipe carries a byte to it per
block the engine takes, which it takes only once the block before is
evaluated; on each byte the child draws first,
then queues the block the engine has just evaluated for formatting, so the
engine's step loop does nothing but the Metropolis steps and waits for no
text. _sample_lines formats each chain's rows of a block: one % per run of
equal rows, with the chain in its template, then each row's step from the
block's step column, built once for all of the block's chains.
Each runs in this process alone with one usable CPU, without os.fork, or
when the system refuses a fork (the outputs are the same bytes).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import mmap
import os
import pickle
import select
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import constrain, sampling, thermal, twostate
from .errors import ConfigurationError, SolverError, WfGibbsError
from .lattice import GridSpec, ModelParams, assemble_hamiltonian
from .spectra import lowest_eigenpairs, parity_of

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

CSV_SCHEMA_HEADER = "# wfgibbs-csv v1"
_TOLERANCE_SE = 3.0  # validate: exact passes a moment within this many standard errors

_TOP_KEYS = {"model", "grid", "seed", "output",
             "eig", "veff", "twostate", "fluct", "sample", "canonical"}

# every value is converted to the type of its default and must read back as
# given (_read_back); masses (None: the model's own mass) to a list of floats
_SECTION_DEFAULTS = {
    "eig": {"k": 4},
    "veff": {"masses": None, "n_q": 81, "frac": 0.995},
    "twostate": {"masses": None, "n_q": 201},
    "fluct": {"masses": None, "t_min": 1e-2, "t_max": 1e2, "n_t": 60, "n_q": 161},
    "sample": {"n_basis": 24, "beta": 2.0, "chains": 4, "steps_per_chain": 50_000,
               "burn_in": 5_000, "validate": "none", "tv_tolerance": 0.05},
    "canonical": {"beta": 1.0, "k_max": 16},
}

_VALIDATE_MODES = ("none", "exact", "marginal")


def _reject_unknown(d: dict, allowed, where: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")


def _read_back(given, resolved, where: str):
    """Return resolved if it writes back as the JSON given it was read from:
    the same dict keys, list lengths and strings, and equal numbers, none a
    bool. "123" is no list, true no mass, 59.99 no count and NaN no number."""
    if isinstance(given, dict) and isinstance(resolved, dict):
        if keys := sorted(set(given) ^ set(resolved)):
            raise ConfigurationError(f"{where}: unknown or missing keys {keys}")
        for key in given:
            _read_back(given[key], resolved[key], f"{where}.{key}")
    elif isinstance(given, list) and isinstance(resolved, list) and len(given) == len(resolved):
        for i, (g, r) in enumerate(zip(given, resolved)):
            _read_back(g, r, f"{where}[{i}]")
    elif isinstance(given, bool) or isinstance(resolved, bool) or given != resolved:
        raise ConfigurationError(f"{where}: {given!r} does not read as {resolved!r}")
    return resolved


def _tag(mass: float) -> str:
    """The mass in output file names: 0.5 -> 0p5."""
    return f"{mass:g}".replace(".", "p")


def load_config(path, seed=None, command=None) -> dict:
    """Read a config file and resolve every input: the model, the grid (the
    model's default grid when the section is absent), the seed (the argument,
    from --seed, when given), the output directory and each section's values,
    converted to the types of their defaults; each must read back as given.
    The level counts of sample and canonical are held to grid.n_points only
    for their own command, or for every command when none is named."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    if "model" not in raw:
        raise ConfigurationError("config requires a 'model' section")
    seed = raw.get("seed", 0) if seed is None else seed
    try:
        model = ModelParams.from_dict(raw["model"])
        _read_back(raw["model"], model.to_dict(), "model")
        grid = constrain.default_grid(model)
        if "grid" in raw:
            grid = GridSpec.from_dict(raw["grid"])
            _read_back(raw["grid"], grid.to_dict(), "grid")
        cfg = {"model": model, "grid": grid, "seed": _read_back(seed, int(seed), "seed"),
               "output": Path(raw.get("output", "out"))}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(
            f"malformed model, grid, seed or output: {type(exc).__name__}: {exc}") from exc
    for name, defaults in _SECTION_DEFAULTS.items():
        given = raw.get(name, {})
        if not isinstance(given, dict):
            raise ConfigurationError(f"section '{name}' must be an object")
        _reject_unknown(given, defaults, f"section '{name}'")
        cfg[name] = section = {}
        for key, default in defaults.items():
            value, where = given.get(key, default), f"{name}.{key}"
            if key == "masses" and value is None:
                value = [model.mass]
            try:
                resolved = [float(m) for m in value] if key == "masses" else type(default)(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(f"{where}: cannot convert {value!r}") from exc
            section[key] = _read_back(value, resolved, where)
    if cfg["sample"]["validate"] not in _VALIDATE_MODES:
        raise ConfigurationError(f"unknown validation mode {cfg['sample']['validate']!r}; "
                                 f"expected one of {', '.join(_VALIDATE_MODES)}")
    # values no run can use are rejected here, before any work
    fluct, sample, canonical = cfg["fluct"], cfg["sample"], cfg["canonical"]
    beta = sample["beta"]
    n_points = cfg["grid"].n_points
    cap = {name: n_points if command in (None, name) else np.inf
           for name in ("sample", "canonical")}
    limits = {
        "seed >= 0": cfg["seed"] >= 0,
        "1 <= eig.k <= grid.n_points": 1 <= cfg["eig"]["k"] <= n_points,
        "veff.n_q >= 1": cfg["veff"]["n_q"] >= 1,
        "0 < veff.frac <= 1": 0 < cfg["veff"]["frac"] <= 1,
        "twostate.n_q >= 1": cfg["twostate"]["n_q"] >= 1,
        "0 < fluct.t_min < inf": 0 < fluct["t_min"] < np.inf,
        "0 < fluct.t_max < inf": 0 < fluct["t_max"] < np.inf,
        "fluct.n_t >= 1": fluct["n_t"] >= 1,
        "fluct.n_q >= 2": fluct["n_q"] >= 2,
        "0 <= sample.beta < inf": 0 <= beta < np.inf,
        "sample.beta > 0 with validate 'marginal'": sample["validate"] != "marginal" or beta > 0,
        "2 <= sample.n_basis <= grid.n_points": 2 <= sample["n_basis"] <= cap["sample"],
        "sample.chains >= 1": sample["chains"] >= 1,
        "sample.steps_per_chain >= 1": sample["steps_per_chain"] >= 1,
        "sample.chains * sample.steps_per_chain >= 2":  # two batches for a standard error
            sample["chains"] * sample["steps_per_chain"] >= 2,
        "sample.burn_in >= 0": sample["burn_in"] >= 0,
        "0 < sample.tv_tolerance < inf": 0 < sample["tv_tolerance"] < np.inf,
        "0 < canonical.beta < inf": 0 < canonical["beta"] < np.inf,
        "2 <= canonical.k_max <= grid.n_points": 2 <= canonical["k_max"] <= cap["canonical"],
    }
    for name in ("veff", "twostate", "fluct"):
        ms = cfg[name]["masses"]
        limits[f"0 < {name}.masses < inf"] = all(0 < m < np.inf for m in ms)
        limits[f"{name}.masses {ms} non-empty, with distinct file tags"] = (
            0 < len(set(map(_tag, ms))) == len(ms))
    broken = [rule for rule, ok in limits.items() if not ok]
    if broken:
        raise ConfigurationError(f"value out of range; requires {', '.join(broken)}")
    return cfg


def write_csv(path, columns: str, rows) -> None:
    """Write rows under the schema and column header lines, each line ending
    in \\n. Rows are tuples (any iterable of them), floats as .17g: the
    first row's value types fix the format of every row. Or they are str
    chunks of lines already formatted (samples.csv's), written as they come."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", newline="") as fh:
        fh.write(CSV_SCHEMA_HEADER + "\n")
        fh.write(f"# columns: {columns}\n")
        if first is None:
            return
        if not isinstance(first, str):
            fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
            first, rows = fmt % first, (fmt % row for row in rows)
        fh.write(first)
        fh.writelines(rows)


def _doublet_models(cfg, section) -> list:
    """The model of each mass of a section, in mass order, whose doublet
    veff, twostate and fluct solve. The two-state reduction needs a
    symmetric potential; anything else is a configuration error, raised
    before any work."""
    mp = cfg["model"]
    if not mp.potential.is_symmetric:
        raise ConfigurationError(f"a symmetric potential is required for the two-state "
                                 f"reduction, got {mp.potential.to_dict()}")
    return [ModelParams(mass, mp.hbar, mp.potential) for mass in section["masses"]]


def _usable_cpus() -> int:
    """The most processes a run may use, this one included: the CPUs it may
    run on, or one without os.fork. The one rule of _per_mass and
    _formatter, which also run in this process alone when the system
    refuses a fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(job):
    """Fork a child that runs job(), an iterable, and return (pid,
    results), the file this process reads the child's pipe through: the
    child pickles (True, item) for each item, flushed as it comes, then
    (False, exc) for the exception that ends the job, if one does, and
    exits. Each message is pickled whole before it is written, so the pipe
    never ends in part of a message, and the error's message is unpickled
    once before it is sent: an exception that cannot be pickled (a class
    defined in a function, say) or not unpickled (one whose __init__ wants
    other arguments than its args) is sent as a SolverError naming its
    type and text. Read it with _receive, and end it with _reap on every
    path. The package's only fork."""
    read, write = os.pipe()
    results = os.fdopen(read, "rb")
    with os.fdopen(write, "wb") as sink:
        try:
            pid = os.fork()
        except OSError as exc:
            results.close()
            raise exc
        if pid == 0:  # the child never returns
            try:
                results.close()  # so that a write fails once this process is gone
                for item in job():
                    sink.write(pickle.dumps((True, item)))
                    sink.flush()
            except BaseException as exc:
                try:
                    message = pickle.dumps((False, exc))
                    pickle.loads(message)  # as _receive will
                except Exception:  # PicklingError, AttributeError, TypeError, ...
                    message = pickle.dumps((False, SolverError(
                        f"a child process raised {type(exc).__name__}: {exc}")))
                sink.write(message)
                sink.flush()
            finally:
                os._exit(0)
    return pid, results


def _receive(results, lost: str):
    """The next item from a child of _fork. The exception that ended the
    child is raised here as itself; the end of the pipe (a child killed,
    say, for want of memory) raises SolverError(lost)."""
    try:
        ok, item = pickle.load(results)
    except (EOFError, pickle.UnpicklingError):
        raise SolverError(lost) from None
    if not ok:
        raise item
    return item


def _reap(pid: int, results) -> None:
    """Close the pipe from a child of _fork, kill the child and wait for
    it: a child that has sent all it has to send has nothing left to do."""
    results.close()
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _per_mass(work, models):
    """Yield work(mp) for each model in mass order, work running on
    min(len(models), _usable_cpus()) processes: the masses are dealt in
    turn to this process and to children of _fork, each of which sends its
    masses' results one at a time. A child's error is raised at its mass's
    turn, so the masses before it have been yielded; a child that dies
    before it sends a mass's result raises SolverError there. Close the
    generator to reap every child: on every path, no child outlives it.
    With one worker the work runs in this process and starts none, and so
    it does, after reaping the children already started, when the system
    refuses a fork (an OSError such as EAGAIN under a limit on processes).

    Forked by hand: on 2 cores (Python 3.11) importing concurrent.futures'
    ProcessPoolExecutor took 17-22 ms, and starting it and mapping two
    trivial tasks 16-24 ms more, against 0.09 s for a two-mass veff run,
    and it would pickle work, a closure. Threads do not help: a table walk
    is small numpy calls that hold the GIL, and two threads built veff's
    tables in 0.10-0.18 s, against 0.09-0.13 s one after the other."""
    workers = min(len(models), _usable_cpus())
    children = []  # (pid, results), in worker order
    try:
        try:
            for index in range(1, workers):
                # job runs in the child at once, while index is this worker's
                children.append(_fork(lambda: map(work, models[index::workers])))
        except OSError:  # a fork the system refuses: this process takes every mass
            while children:
                _reap(*children.pop())
            workers = 1
        for i, mp in enumerate(models):
            if i % workers == 0:
                yield work(mp)
            else:
                yield _receive(children[i % workers - 1][1],
                               f"the process solving mass {mp.mass} ended without a result")
    finally:
        for child in children:
            _reap(*child)


# --- subcommands -------------------------------------------------------------


def cmd_eig(cfg):
    mp, grid, section = cfg["model"], cfg["grid"], cfg["eig"]
    op = assemble_hamiltonian(mp, grid)
    pairs = lowest_eigenpairs(op, section["k"])
    rows = []
    for i, pair in enumerate(pairs, start=1):
        parity = parity_of(pair, grid) if grid.is_symmetric else "none"
        print(f"E_{i} = {pair.energy:.9g}  parity={parity}  residual={pair.residual:.3e}")
        rows.append((i, pair.energy, parity, pair.residual))
    return EXIT_OK, {
        "eig.csv": ("k,energy,parity,residual", rows),
        "eig.json": {"model": mp.to_dict(), "grid": grid.to_dict(),
                     "energies": [p.energy for p in pairs]},
    }


def cmd_veff(cfg):
    section, files = cfg["veff"], {}

    def solve(mp):
        ts = twostate.build_two_state(mp, cfg["grid"])
        q_grid = np.linspace(-section["frac"] * ts.d, section["frac"] * ts.d, section["n_q"])
        return ts, constrain.effective_potential(ts, q_grid, cfg["grid"])

    with contextlib.closing(_per_mass(solve, _doublet_models(cfg, section))) as tables:
        for ts, table in tables:
            tag = _tag(ts.model.mass)
            u, rescaled_exact = twostate.rescale(ts, table.v_eff, table.q)
            arc = -np.sqrt(1.0 - u**2)
            files[f"veff_m{tag}.csv"] = ("q_over_d,rescaled_exact,rescaled_two_state",
                                         zip(u.tolist(), rescaled_exact.tolist(), arc.tolist()))
            files[f"veff_table_m{tag}.csv"] = ("q,v_eff,lambda", zip(
                table.q.tolist(), table.v_eff.tolist(), table.lam.tolist()))
            files[f"veff_table_m{tag}.json"] = {
                "meta": {"e1": ts.e1, "e2": ts.e2, "d": ts.d, "model": ts.model.to_dict(),
                         **table.meta}}
            print(f"m={ts.model.mass}: E1={ts.e1:.9g} E2={ts.e2:.9g} d={ts.d:.9g}")
    return EXIT_OK, files


def cmd_twostate(cfg):
    section, files, summary = cfg["twostate"], {}, {}
    for mp in _doublet_models(cfg, section):
        ts = twostate.build_two_state(mp, cfg["grid"])
        tag = _tag(ts.model.mass)
        q = np.linspace(-ts.d, ts.d, section["n_q"])
        files[f"two_state_m{tag}.csv"] = ("q,v_eff", zip(q.tolist(),
                                                         twostate.two_state_veff(ts, q).tolist()))
        summary[str(ts.model.mass)] = {"e1": ts.e1, "e2": ts.e2, "d": ts.d}
        print(f"m={ts.model.mass}: E1={ts.e1:.9g} E2={ts.e2:.9g} d={ts.d:.9g}")
    files["two_state.json"] = summary
    return EXIT_OK, files


def cmd_fluct(cfg):
    section, files, summary = cfg["fluct"], {}, {}
    # log-spaced rescaled temperatures exposing both asymptotes
    t_grid = np.logspace(np.log10(section["t_min"]), np.log10(section["t_max"]), section["n_t"])

    def curves(mp):
        ts = twostate.build_two_state(mp, cfg["grid"])
        betas = 2.0 / (t_grid * ts.splitting)
        table = thermal.table_for_betas(ts, betas, section["n_q"], cfg["grid"])
        return (ts, table, thermal.fluctuation_curve(table, betas),
                thermal.fluctuation_curve(table, betas, restricted=True))

    with contextlib.closing(_per_mass(curves, _doublet_models(cfg, section))) as results:
        for ts, table, curve, restricted in results:
            files[f"fluct_m{_tag(ts.model.mass)}.csv"] = (
                "rescaled_temperature,delta_q_over_d,delta_q_over_d_restricted,mean_q",
                zip(t_grid.tolist(), curve.delta_q_over_d.tolist(),
                    restricted.delta_q_over_d.tolist(), curve.mean_q.tolist()))
            summary[str(ts.model.mass)] = {
                "e1": ts.e1, "e2": ts.e2, "d": ts.d,
                "delta_p": curve.delta_p.tolist(),
                "max_full_vs_restricted": float(
                    np.max(np.abs(curve.delta_q_over_d - restricted.delta_q_over_d))),
                "quadrature": {name: {"evaluations": c.evaluations, "agreement": c.agreement}
                               for name, c in (("full", curve), ("restricted", restricted))},
                "table": {"nodes": len(table.q),
                          **{key: table.meta[key]
                             for key in ("eigensolves", "lapack_fallbacks", "factorizations",
                                         "factorized_rows")},
                          "grid": table.meta["grid"]},
            }
            print(f"m={ts.model.mass}: delta_q/d ranges "
                  f"[{curve.delta_q_over_d.min():.4g}, {curve.delta_q_over_d.max():.4g}]")

    # the rescaled two-state curve is universal: any doublet gives the same
    reference = thermal.two_state_curve(ts, curve.beta)
    files["fluct_two_state.csv"] = ("rescaled_temperature,delta_q_over_d",
                                    zip(t_grid.tolist(), reference.delta_q_over_d.tolist()))
    summary["two_state_quadrature"] = {"evaluations": reference.evaluations,
                                       "agreement": reference.agreement}
    files["fluct.json"] = summary
    return EXIT_OK, files


def _validate_sample(run, tm, cfg, section):
    """Return (passed, report) comparing the run against its oracle."""
    moments = run.moment_summary()
    mode = section["validate"]
    if mode == "none":
        return True, {"mode": "none", "moments": moments}
    if mode == "marginal":
        return _validate_marginal(run, moments, tm, cfg, section)

    checks, passed = {}, True
    for key, target in sampling.exact_moments(tm, run.beta).items():
        se = max(moments[f"{key}_se"], 1e-300)
        z = abs(moments[key] - target) / se
        ok = z <= _TOLERANCE_SE
        checks[key] = {"estimate": moments[key], "expected": target,
                       "se": se, "z": z, "pass": ok}
        passed = passed and ok
        print(f"{'PASS' if ok else 'FAIL'} {key}: {moments[key]:.6g} "
              f"vs {target:.6g} (se {se:.2g}, z {z:.2f})")
    return passed, {"mode": "exact", "moments": moments, "checks": checks}


def _validate_marginal(run, moments, tm, cfg, section):
    """Total-variation distance between the histogram of the sampled q, on
    101 bins over the samples' span, and the exp(-beta V_eff) marginal."""
    q = run.q
    span = 1.05 * float(np.max(np.abs(q)))
    bins = np.linspace(-span, span, 102)
    hist, _ = np.histogram(q, bins=bins)
    table = thermal.table_for_betas(tm.doublet, [run.beta], 121, cfg["grid"])
    model_mass = thermal.bin_masses(table, run.beta, bins)
    tv = 0.5 * float(np.abs(hist / hist.sum() - model_mass).sum())
    tol = section["tv_tolerance"]
    ok = tv < tol
    print(f"{'PASS' if ok else 'FAIL'} total-variation: {tv:.4g} (tolerance {tol})")
    return ok, {"mode": "marginal", "tv_distance": tv, "tolerance": tol,
                "moments": moments}


@functools.lru_cache(maxsize=1)
def _step_column(lo: int, hi: int) -> list:
    """The "<step>\n" tails of the samples.csv lines of the steps lo <= step
    < hi, built once per block: the formatter's child takes a block's chains
    one after another."""
    return [f"{step}\n" for step in range(lo, hi)]


def _sample_lines(samples: np.ndarray, chain: int, lo: int, hi: int) -> str:
    """The samples.csv lines "q,p,chain,step" of the steps lo <= step < hi
    of one chain of the (chains, steps, 2) samples, q and p at .17g. A
    rejected Metropolis step repeats its state bit for bit, so each run of
    equal rows is formatted once, by one % whose template holds the chain,
    and its head "q,p,chain," goes before each of its steps' tails
    (_step_column). The one formatter of samples.csv, in the formatter's
    child and in this process alike (_formatter)."""
    qp = samples[chain, lo:hi]
    bits = np.ascontiguousarray(qp).view(np.uint64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    heads = (f"%.17g,%.17g,{chain},\n" * len(starts)
             % tuple(qp[starts].ravel().tolist())).split("\n")[:-1]
    heads = np.repeat(np.array(heads, dtype=object), np.diff(np.r_[starts, len(qp)])).tolist()
    return "".join(itertools.chain.from_iterable(zip(heads, _step_column(lo, hi))))


def _formatter(samples: np.ndarray, cfg: sampling.ChainConfig, n: int, beta: float):
    """Yield, for samples, a (chains, steps, 2) array in shared memory that
    the engine fills with cfg's chains on n levels at beta: first the
    engine's draws, then the samples.csv text, chain by chain, one chunk
    per chain and block that retains a step, in the block's span
    (sampling.noise_blocks, which also lays out the slots below).

    With two usable CPUs (_usable_cpus) a child of _fork has two jobs. It
    draws the chains' random numbers (sampling.chain_draws) straight into
    two block slots of shared memory, as wide as the first block, one
    block ahead of the engine, and it formats the samples once they are
    final (_sample_lines, whose step column a block's chains share), and
    keeps the text. It keeps no block of its own
    and copies none, and this process slices each block from its slot by
    the block's row count. One pipe carries a byte to it each time the
    engine takes block k >= 1 (k = the block count: the item after the
    last block), the one message it reads: the slot of block k - 1 is then
    free for block k + 1, and every retained step before block k is final
    (sample_ensemble's draws). Its items come back through _fork's pipe:
    the start vectors themselves (chains x 2N floats), then a mark per
    block as soon as it is drawn, then, once the pipe in ends, the text.
    It draws the start vectors and the first two blocks; then on block
    k's byte it draws block k + 1, if there
    is one, and queues block k - 1's chains for formatting, so the last
    byte has queued every block. It formats one chain's steps of a block
    at a time, and only while no byte waits, so a draw waits for at most
    one chain's text (on dw_m0.2_sample.json's settings, draws queued
    behind whole blocks of text cost the engine up to 0.2 s of waiting).
    Asking for the second item ends the pipe in, and this process then
    reads the chunks, a count known before the run, so it holds one
    block's text at a time. An error that ends the
    child is raised as itself where this process next reads; a child that
    ends before it has drawn a block the engine takes, or before it has
    sent all of the text (killed, say, for want of memory), raises
    SolverError. Close the generator to reap the child: on every path, no
    child outlives it. Once the engine has taken its last block, this
    process drops the slots from its resident memory, which the validation
    and the write that follow would otherwise carry. Otherwise, or when
    the system refuses the fork, draws is None, the engine draws in this
    process, and the same chunks are formatted in this process as they
    are read: 1M rows of text at once would double the peak memory of a
    large run.

    On 2 cores, in this process, drawing takes about a quarter of the
    engine's time (0.15 s of 0.6 s on harmonic_sample.json's 4 chains of
    N = 24), and formatting the 1M rows of dw_m0.2_sample.json about 0.8
    s against its engine's 1.3 s; the child does both beside the engine.
    Splitting the chains between processes would not pay: a lockstep step
    costs about the same for any chain count from 1 to 8."""
    blocks = sampling.noise_blocks(cfg)

    def job():  # the child's: the start vectors, None per block drawn, then the text
        feed.close()  # the pipe in ends when this process closes its end
        stream = sampling.chain_draws(cfg, n, beta, slots)
        yield next(stream)

        def draw(count):  # the next count blocks that are left, into their slots
            for _ in itertools.islice(stream, count):
                yield

        yield from draw(2)
        texts, tasks = [[] for _ in samples], collections.deque()
        # block k's byte makes block k - 1 final: the tasks it readies are
        # every chain's steps of that block (none for burn-in alone)
        ready = iter([[(chain, *span) for chain in range(len(texts))] if span else []
                      for _, _, span in blocks])
        fd = taken.fileno()
        while True:
            # a chain's text of a block at a time, and only while no byte
            # waits: a request to draw never waits for more
            if tasks and not select.select([fd], [], [], 0)[0]:
                chain, lo, hi = tasks.popleft()
                texts[chain].append(_sample_lines(samples, chain, lo, hi))
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                break
            for readied in itertools.islice(ready, len(data)):
                yield from draw(1)
                tasks.extend(readied)
        for chain, lo, hi in tasks:
            texts[chain].append(_sample_lines(samples, chain, lo, hi))
        yield from itertools.chain(*texts)

    def draws():
        lost = "the process drawing the chains' random numbers ended before it drew "
        yield _receive(results, lost + "the start vectors")
        for k, (_, rows, _) in enumerate(blocks):
            _receive(results, lost + f"block {k}")
            normals, thresholds = slots[k % 2]
            yield normals[:rows], thresholds[:rows]
            # the engine takes the next item: this block is spent, and its
            # slot takes the block after the next
            with contextlib.suppress(BrokenPipeError):  # a dead child fails at its next item
                feed.write(b"d")
        # the engine has spent every block: its slots need not stay in
        # this process's memory through validation and the write
        if hasattr(mmap, "MADV_DONTNEED"):
            region.madvise(mmap.MADV_DONTNEED)

    pid = 0
    if _usable_cpus() >= 2:  # lay out what job and draws share, and fork
        # two slots, each as wide as the first block (the widest): its
        # normals, then its thresholds
        width, chains, n2 = blocks[0][1], cfg.chain_count, 2 * n
        region = mmap.mmap(-1, 8 * 2 * width * chains * (n2 + 1))
        slots = [(slot[:width * chains * n2].reshape(width, chains, n2),
                  slot[width * chains * n2:].reshape(width, chains))
                 for slot in np.ndarray((2, width * chains * (n2 + 1)), buffer=region)]
        read, write = os.pipe()  # a byte per block the engine takes, unbuffered
        taken, feed = os.fdopen(read, "rb"), os.fdopen(write, "wb", buffering=0)
        try:
            pid, results = _fork(job)
        except OSError:  # a fork the system refuses: the work runs as with one usable CPU
            feed.close()
        taken.close()
    if not pid:
        yield None
        yield from (_sample_lines(samples, chain, *span)
                    for chain in range(len(samples)) for _, _, span in blocks if span)
        return
    try:
        yield draws()
        feed.close()  # the end of the pipe in
        for _ in range(len(samples) * sum(span is not None for _, _, span in blocks)):
            yield _receive(results, "the process formatting samples.csv ended "
                                    "before it sent the text")
    finally:
        feed.close()
        _reap(pid, results)


def cmd_sample(cfg):
    section = cfg["sample"]
    mp = cfg["model"]
    chain_cfg = sampling.ChainConfig(
        chain_count=section["chains"],
        steps_per_chain=section["steps_per_chain"],
        burn_in=section["burn_in"],
        seed=cfg["seed"],
    )
    # the engine writes its samples into memory shared with the formatter,
    # which draws the first blocks of random numbers while the model is built
    shape = (chain_cfg.chain_count, chain_cfg.steps_per_chain, 2)
    samples = np.ndarray(shape, buffer=mmap.mmap(-1, 16 * shape[0] * shape[1]))
    text = _formatter(samples, chain_cfg, section["n_basis"], section["beta"])
    try:
        draws = next(text)
        tm = sampling.build_truncated_model(mp, section["n_basis"], cfg["grid"])
        run = sampling.sample_ensemble(tm, section["beta"], chain_cfg, out=samples, draws=draws)
        passed, report = _validate_sample(run, tm, cfg, section)
        print(f"acceptance={run.acceptance_rate:.3f} "
              f"iat={run.integrated_autocorrelation_time:.1f}")
    except BaseException as exc:  # KeyboardInterrupt too: the formatter is reaped
        text.close()
        raise exc
    return EXIT_OK if passed else EXIT_VALIDATION, {
        "samples.csv": ("q,p,chain,step", text),
        "sample_run.json": {
            "model": mp.to_dict(), "beta": run.beta, "seed": run.seed,
            "chains": run.chain_count, "steps_per_chain": run.steps_per_chain,
            "burn_in": run.burn_in, "acceptance_rate": run.acceptance_rate,
            "integrated_autocorrelation_time": run.integrated_autocorrelation_time,
            "top_level_wall_weight": tm.top_level_wall_weight,
            "per_chain": run.chain_records(), "validation": report},
    }


def cmd_canonical(cfg):
    section = cfg["canonical"]
    mp = cfg["model"]
    beta = section["beta"]
    tm = sampling.build_truncated_model(mp, section["k_max"], cfg["grid"])
    atoms = sampling.canonical_atoms(tm, beta)

    # the wave-function ensemble on the same levels, by its exact law
    ensemble_dq = float(np.sqrt(sampling.exact_moments(tm, beta)["var_q"]))
    canonical_dq = atoms.dispersion()
    print(f"canonical delta_q = {canonical_dq:.6g}; "
          f"wave-function-ensemble delta_q = {ensemble_dq:.6g} "
          f"(exact law on the same {tm.n} levels)")
    return EXIT_OK, {
        "canonical_atoms.csv": ("weight,q_k", zip(atoms.weights.tolist(),
                                                  atoms.positions.tolist())),
        "canonical.json": {"beta": beta, "z": atoms.z, "canonical_delta_q": canonical_dq,
                           "ensemble_delta_q": ensemble_dq,
                           "top_level_wall_weight": tm.top_level_wall_weight},
    }


COMMANDS = {"eig": cmd_eig, "veff": cmd_veff, "twostate": cmd_twostate,
            "fluct": cmd_fluct, "sample": cmd_sample, "canonical": cmd_canonical}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfgibbs",
        description="Statistics of quantum expectation values under Gibbs "
                    "ensembles over wave functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


def main(argv=None) -> int:
    """Run one command and write the files it returns, all or none: a run
    that fails, in its command or while its files are written, creates no
    output directory and no file in one that exists. The files are written
    into a fresh staging directory in the nearest existing directory of
    the output path (the output directory itself, when it exists) and
    moved into the output directory only once every one is complete; the
    staging directory is removed on every path."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.command)
        out = Path(args.out) if args.out is not None else cfg["output"]
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigurationError(f"output directory {out}: a file is in its way")
        code, files = COMMANDS[args.command](cfg)
        with contextlib.ExitStack() as stack:
            # rows that can be closed are, on every path: samples.csv's reap
            # the process that formats them (_formatter)
            for name, content in files.items():
                if name.endswith(".csv") and hasattr(content[1], "close"):
                    stack.callback(content[1].close)
            staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=nearest))
            stack.callback(shutil.rmtree, staging, ignore_errors=True)
            for name, content in files.items():
                if name.endswith(".csv"):
                    write_csv(staging / name, *content)
                else:
                    with open(staging / name, "w") as fh:
                        json.dump(content, fh, indent=2, default=float)
            out.mkdir(parents=True, exist_ok=True)
            for name in files:
                os.replace(staging / name, out / name)
        return code
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except WfGibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
