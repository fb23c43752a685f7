"""Command-line interface.

Subcommands: eig, veff, twostate, fluct, sample, canonical. Each reads a
single JSON configuration file (unknown keys rejected) and returns (exit
code, files): files maps each output file name to (columns, rows) for a .csv
file or to the payload of a JSON file. main alone creates the output
directory and writes them, so a failed run writes nothing. Exit codes: 0
success, 1 validation failure, 2 configuration error, 3 solver error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
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
_CSV_BATCH = 512  # rows per % operation in write_csv

_TOP_KEYS = {"model", "grid", "seed", "output",
             "eig", "veff", "twostate", "fluct", "sample", "canonical"}

# every value is converted to the type of its default; masses (None: the
# model's own mass) to a list of floats
_SECTION_DEFAULTS = {
    "eig": {"k": 4, "tol": 1e-10},
    "veff": {"masses": None, "n_q": 81, "frac": 0.995},
    "twostate": {"masses": None, "n_q": 201},
    "fluct": {"masses": None, "t_min": 1e-2, "t_max": 1e2, "n_t": 60, "n_q": 161},
    "sample": {"n_basis": 24, "beta": 2.0, "chains": 4, "steps_per_chain": 50_000,
               "burn_in": 5_000, "proposal_scale": 0.3, "validate": "none",
               "tolerance_se": 3.0, "tv_tolerance": 0.05},
    "canonical": {"beta": 1.0, "k_max": 16},
}

_VALIDATE_MODES = ("none", "exact", "marginal")


def _reject_unknown(d: dict, allowed, where: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path) -> dict:
    """Read a config file and resolve every input: the model, the grid (the
    model's default grid when the section is absent), the seed, the output
    directory and each section's values, converted to the types of their
    defaults."""
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
    try:
        model = ModelParams.from_dict(raw["model"])
        cfg = {
            "model": model,
            "grid": (GridSpec.from_dict(raw["grid"]) if "grid" in raw
                     else constrain.default_grid(model)),
            "seed": int(raw.get("seed", 0)),
            "output": Path(raw.get("output", "out")),
        }
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
            value = given.get(key, default)
            try:
                section[key] = ([float(m) for m in value or ()] or [model.mass]
                                if key == "masses" else type(default)(value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(f"{name}.{key}: cannot convert {value!r}") from exc
    if cfg["sample"]["validate"] not in _VALIDATE_MODES:
        raise ConfigurationError(f"unknown validation mode {cfg['sample']['validate']!r}; "
                                 f"expected one of {', '.join(_VALIDATE_MODES)}")
    # values no run can use are rejected here, before any work
    fluct, sample, beta = cfg["fluct"], cfg["sample"], cfg["sample"]["beta"]
    n_points = cfg["grid"].n_points
    limits = {
        "1 <= eig.k <= grid.n_points": 1 <= cfg["eig"]["k"] <= n_points,
        "0 < eig.tol < inf": 0 < cfg["eig"]["tol"] < np.inf,
        "veff.n_q >= 1": cfg["veff"]["n_q"] >= 1,
        "0 < veff.frac <= 1": 0 < cfg["veff"]["frac"] <= 1,
        "twostate.n_q >= 1": cfg["twostate"]["n_q"] >= 1,
        "0 < fluct.t_min < inf": 0 < fluct["t_min"] < np.inf,
        "0 < fluct.t_max < inf": 0 < fluct["t_max"] < np.inf,
        "fluct.n_t >= 1": fluct["n_t"] >= 1,
        "fluct.n_q >= 2": fluct["n_q"] >= 2,
        "0 <= sample.beta < inf": 0 <= beta < np.inf,
        "sample.beta > 0 with validate 'marginal'": sample["validate"] != "marginal" or beta > 0,
        "2 <= sample.n_basis <= grid.n_points": 2 <= sample["n_basis"] <= n_points,
        "sample.chains >= 1": sample["chains"] >= 1,
        "sample.steps_per_chain >= 1": sample["steps_per_chain"] >= 1,
        "sample.burn_in >= 0": sample["burn_in"] >= 0,
        "0 < sample.proposal_scale < inf": 0 < sample["proposal_scale"] < np.inf,
        "0 < sample.tolerance_se < inf": 0 < sample["tolerance_se"] < np.inf,
        "0 < sample.tv_tolerance < inf": 0 < sample["tv_tolerance"] < np.inf,
        "0 < canonical.beta < inf": 0 < cfg["canonical"]["beta"] < np.inf,
        "2 <= canonical.k_max <= grid.n_points": 2 <= cfg["canonical"]["k_max"] <= n_points,
        **{f"0 < {name}.masses < inf": all(0 < m < np.inf for m in cfg[name]["masses"])
           for name in ("veff", "twostate", "fluct")},
    }
    broken = [rule for rule, ok in limits.items() if not ok]
    if broken:
        raise ConfigurationError(f"value out of range; requires {', '.join(broken)}")
    return cfg


def write_csv(path, columns: str, rows) -> None:
    """Write tuples (any iterable of them) under the schema and column header
    lines; floats as .17g, lines ending in \\n. The first row's value types
    fix the format of every row, and rows are formatted _CSV_BATCH at a time
    by one % operation."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", newline="") as fh:
        fh.write(CSV_SCHEMA_HEADER + "\n")
        fh.write(f"# columns: {columns}\n")
        if first is None:
            return
        fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
        fh.write(fmt % first)
        while batch := tuple(itertools.chain.from_iterable(itertools.islice(rows, _CSV_BATCH))):
            fh.write(fmt * (len(batch) // len(first)) % batch)


def _doublets(cfg, section):
    """(mass tag, two-state model) for each mass of a section. The
    two-state reduction behind veff, twostate and fluct needs a symmetric
    potential; anything else is a configuration error, raised before any
    work."""
    mp = cfg["model"]
    if not mp.potential.is_symmetric:
        raise ConfigurationError(f"a symmetric potential is required for the two-state "
                                 f"reduction, got {mp.potential.to_dict()}")
    for mass in section["masses"]:
        model = ModelParams(mass, mp.hbar, mp.potential)
        yield f"{mass:g}".replace(".", "p"), twostate.build_two_state(model, cfg["grid"])


# --- subcommands -------------------------------------------------------------


def cmd_eig(cfg):
    mp, grid, section = cfg["model"], cfg["grid"], cfg["eig"]
    op = assemble_hamiltonian(mp, grid)
    pairs = lowest_eigenpairs(op, section["k"], section["tol"])
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
    for tag, ts in _doublets(cfg, section):
        q_grid = np.linspace(-section["frac"] * ts.d, section["frac"] * ts.d, section["n_q"])
        table = constrain.effective_potential(ts, q_grid, cfg["grid"])
        u, rescaled_exact = twostate.rescale(ts, table.v_eff, table.q)
        arc = -np.sqrt(1.0 - u**2)
        files[f"veff_m{tag}.csv"] = ("q_over_d,rescaled_exact,rescaled_two_state",
                                     zip(u.tolist(), rescaled_exact.tolist(), arc.tolist()))
        files[f"veff_table_m{tag}.csv"] = ("q,v_eff,lambda", zip(
            table.q.tolist(), table.v_eff.tolist(), table.lam.tolist()))
        files[f"veff_table_m{tag}.json"] = {"meta": table.meta,
                                            "bounded_support": table.bounded_support}
        print(f"m={ts.model.mass}: E1={ts.e1:.9g} E2={ts.e2:.9g} d={ts.d:.9g}")
    return EXIT_OK, files


def cmd_twostate(cfg):
    section, files, summary = cfg["twostate"], {}, {}
    for tag, ts in _doublets(cfg, section):
        table = twostate.two_state_table(ts, section["n_q"])
        files[f"two_state_m{tag}.csv"] = ("q,v_eff", zip(table.q.tolist(),
                                                         table.v_eff.tolist()))
        summary[str(ts.model.mass)] = {"e1": ts.e1, "e2": ts.e2, "d": ts.d}
        print(f"m={ts.model.mass}: E1={ts.e1:.9g} E2={ts.e2:.9g} d={ts.d:.9g}")
    files["two_state.json"] = summary
    return EXIT_OK, files


def cmd_fluct(cfg):
    section, files, summary = cfg["fluct"], {}, {}
    # log-spaced rescaled temperatures exposing both asymptotes
    t_grid = np.logspace(np.log10(section["t_min"]), np.log10(section["t_max"]), section["n_t"])
    for tag, ts in _doublets(cfg, section):
        betas = 2.0 / (t_grid * ts.splitting)
        table = thermal.table_for_betas(ts, betas, section["n_q"], cfg["grid"])
        curve = thermal.fluctuation_curve(table, betas)
        # restricted variant: same V_eff confined to |q| <= d
        q_res = np.linspace(-ts.d, ts.d, 201)
        clipped = constrain.EffectivePotentialTable(
            q_res, table.interpolate(q_res), np.zeros_like(q_res),
            table.meta, bounded_support=True)
        restricted = thermal.fluctuation_curve(clipped, betas)
        files[f"fluct_m{tag}.csv"] = (
            "rescaled_temperature,delta_q_over_d,delta_q_over_d_restricted,mean_q",
            zip(curve.rescaled_temperature.tolist(), curve.delta_q_over_d.tolist(),
                restricted.delta_q_over_d.tolist(), curve.mean_q.tolist()))
        summary[str(ts.model.mass)] = {
            "e1": ts.e1, "e2": ts.e2, "d": ts.d,
            "delta_p": curve.delta_p.tolist(),
            "max_full_vs_restricted": float(
                np.max(np.abs(curve.delta_q_over_d - restricted.delta_q_over_d))),
            "table": {"nodes": len(table.q),
                      **{key: table.meta[key] for key in ("eigensolves", "lapack_fallbacks",
                                                          "cold_solves", "factorizations")},
                      "grid": table.meta["grid"]},
        }
        print(f"m={ts.model.mass}: delta_q/d ranges "
              f"[{curve.delta_q_over_d.min():.4g}, {curve.delta_q_over_d.max():.4g}]")

    # the rescaled two-state curve is universal: any doublet gives the same
    reference = thermal.fluctuation_curve(twostate.two_state_table(ts, 801), betas)
    files["fluct_two_state.csv"] = ("rescaled_temperature,delta_q_over_d",
                                    zip(t_grid.tolist(), reference.delta_q_over_d.tolist()))
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

    n_se = section["tolerance_se"]
    checks, passed = {}, True
    for key, target in sampling.exact_moments(tm, run.beta).items():
        se = max(moments[f"{key}_se"], 1e-300)
        z = abs(moments[key] - target) / se
        ok = z <= n_se
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


def _formatted_qp(qp: np.ndarray) -> np.ndarray:
    """The "q,p" text at .17g of each row of one chain's (steps, 2) samples,
    as an object array. A rejected Metropolis step repeats its state bit for
    bit, so each run of equal rows is formatted once (by one % operation)
    and repeated."""
    bits = np.ascontiguousarray(qp).view(np.uint64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    text = ("%.17g,%.17g\n" * len(starts) % tuple(qp[starts].ravel().tolist())).split("\n")
    return np.repeat(np.array(text[:-1], dtype=object), np.diff(np.r_[starts, len(qp)]))


def _sample_rows(samples: np.ndarray):
    """(q_p_text, chain, step) rows of the (chains, steps, 2) samples, built
    one chain at a time: 1M rows of Python objects would double the peak
    memory of a large run."""
    return itertools.chain.from_iterable(
        zip(_formatted_qp(qp), itertools.repeat(chain), range(len(qp)))
        for chain, qp in enumerate(samples))


def cmd_sample(cfg):
    section = cfg["sample"]
    mp = cfg["model"]
    tm = sampling.build_truncated_model(mp, section["n_basis"], cfg["grid"])
    chain_cfg = sampling.ChainConfig(
        chain_count=section["chains"],
        steps_per_chain=section["steps_per_chain"],
        burn_in=section["burn_in"],
        seed=cfg["seed"],
        proposal_scale=section["proposal_scale"],
    )
    run = sampling.sample_ensemble(tm, section["beta"], chain_cfg)
    passed, report = _validate_sample(run, tm, cfg, section)
    print(f"acceptance={run.acceptance_rate:.3f} "
          f"iat={run.integrated_autocorrelation_time:.1f}")
    return EXIT_OK if passed else EXIT_VALIDATION, {
        "samples.csv": ("q,p,chain,step", _sample_rows(run.samples)),
        "sample_run.json": {
            "model": mp.to_dict(), "beta": run.beta, "seed": run.seed,
            "chains": run.chain_count, "steps_per_chain": run.steps_per_chain,
            "burn_in": run.burn_in, "acceptance_rate": run.acceptance_rate,
            "integrated_autocorrelation_time": run.integrated_autocorrelation_time,
            "per_chain": run.chain_records(), "validation": report},
    }


def cmd_canonical(cfg):
    section = cfg["canonical"]
    mp = cfg["model"]
    beta = section["beta"]
    tm = sampling.build_truncated_model(mp, section["k_max"], cfg["grid"])
    atoms = thermal.canonical_atoms(tm, beta)

    # effective-potential dispersion at the same beta for the contrast line
    table = thermal.table_for_betas(tm.doublet, [beta], 81, cfg["grid"])
    curve = thermal.fluctuation_curve(table, [beta])
    canonical_dq = atoms.dispersion()
    print(f"canonical delta_q = {canonical_dq:.6g}; "
          f"wave-function-ensemble delta_q = {curve.delta_q[0]:.6g}")
    return EXIT_OK, {
        "canonical_atoms.csv": ("weight,q_k", zip(atoms.weights.tolist(),
                                                  atoms.positions.tolist())),
        "canonical.json": {"beta": beta, "z": atoms.z, "canonical_delta_q": canonical_dq,
                           "ensemble_delta_q": float(curve.delta_q[0])},
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
    that fails creates no output directory."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = Path(args.out) if args.out is not None else cfg["output"]
        code, files = COMMANDS[args.command](cfg)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            if name.endswith(".csv"):
                write_csv(out / name, *content)
            else:
                with open(out / name, "w") as fh:
                    json.dump(content, fh, indent=2, default=float)
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
