"""Experiment runner.

Subcommands ``solve``, ``ricci``, ``bergman``, ``family``, ``suite`` read a
flat JSON config (all keys documented in ``CONFIG_KEYS``), apply command-line
overrides, run the requested experiment, and write CSV traces plus a JSON
manifest.  ``plotdata`` turns a trace file into plot-ready columns.

Conventions: outputs are written atomically; numeric payloads are formatted
for byte-identical reruns; the manifest embeds the config echo, the
convention-document hash, package versions, wall-clock time and one verdict
per executed check.  Exit status is 0 only if every verdict passed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__, bergman, family as family_mod, ricci as ricci_mod, suite
from .conventions import CONVENTIONS_HASH
from .errors import ConfigurationError, ConvergenceError
from .geometry import DEFAULT_N, DEFAULT_T, DivisorData, divisor, make_grid
from .io import read_csv, weight_record, weight_to_csv, write_csv, write_json
from .masolver import (CLOSED_FORM_TOL, DEFAULT_TOL, check_schedule,
                       closed_form_error, diagonal_pairs, ke_problem,
                       regularized_diagonal, solve_ke_ode)

# flat config schema: key -> (kinds whose runs read it, type, default); every
# key but ``kind`` is also the flag ``--key-with-dashes`` of those kinds
CONFIG_KEYS = {
    "kind": ("*", str, None),
    "out": ("*", str, "runs/out"),
    "seed": ("suite", int, suite.DEFAULT_SEED),
    "tol": ("solve ricci", float, DEFAULT_TOL),
    "T": ("solve ricci bergman family", float, DEFAULT_T),
    "N": ("solve ricci bergman", int, DEFAULT_N),
    "k": ("solve ricci bergman family", float, 4.0),
    "divisor_zero": ("solve ricci bergman", str, "0"),
    "divisor_infinity": ("solve ricci bergman", str, "0"),
    "eps": ("solve ricci", float, 0.0),
    "delta": ("solve ricci", float, 0.0),
    "delta_schedule": ("solve", list, None),
    "eps_schedule": ("solve", list, None),
    "p": ("ricci bergman", int, 1),
    "m_max": ("ricci", int, 200),
    "stop_tol": ("ricci", float, ricci_mod.DEFAULT_STOP),
    "m": ("bergman", int, 1),
    "ell_max": ("bergman", int, 200),
    "recipe": ("family", str, "perturbed"),
    "amplitude": ("family", float, 0.05),
    "bump": ("family", str, "fs_bump"),
    "a0": ("family", str, "1/2"),
    "base_min": ("family", float, family_mod.DEFAULT_BASE[0]),
    "base_max": ("family", float, family_mod.DEFAULT_BASE[1]),
    "base_count": ("family", int, family_mod.DEFAULT_BASE[2]),
    "fiber_n": ("family", int, family_mod.DEFAULT_FIBER_N),
    "criteria": ("suite", list, None),
}

KINDS = ("solve", "ricci", "bergman", "family", "suite")

# smallest admissible value of each bounded key
LOWER_BOUNDS = {"N": 3, "eps": 0.0, "delta": 0.0, "p": 1, "m_max": 2, "m": 1,
                "ell_max": 1, "fiber_n": 3}


def keys_of(kind: str) -> list[str]:
    """Config keys a run of ``kind`` reads, in declaration order."""
    return [key for key, (kinds, _, _) in CONFIG_KEYS.items()
            if kinds == "*" or kind in kinds.split()]


def load_config(path: Optional[str], overrides: dict, kind: str) -> dict:
    """Merge defaults, config file, and CLI overrides; reject unknown keys
    and, for ``family``, keys the chosen recipe does not read."""
    cfg = {key: CONFIG_KEYS[key][2] for key in keys_of(kind)}
    cfg["kind"] = kind
    given = set()  # keys set by the file or a flag, not by the defaults
    if path is not None:
        with open(path) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in cfg:
                raise ConfigurationError(f"unknown config key {key!r} for kind {kind!r}")
            if key == "kind" and value != kind:
                raise ConfigurationError(f"config file is for kind {value!r}, not {kind!r}")
            cfg[key] = value
            given.add(key)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in cfg:
            raise ConfigurationError(f"option {key!r} does not apply to kind {kind!r}")
        cfg[key] = value
        given.add(key)
    # type coercion, the one path for file and flag values alike; flags
    # arrive as strings, lists comma-separated
    for key, value in list(cfg.items()):
        _, typ, _ = CONFIG_KEYS[key]
        if value is None:
            continue
        try:
            if typ is list:
                elem = int if key == "criteria" else float
                cfg[key] = [_coerce(elem, x) for x in
                            (value.split(",") if isinstance(value, str) else value)]
            else:
                cfg[key] = _coerce(typ, value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(f"config key {key!r} expects {typ.__name__}, "
                                     f"got {value!r}")
    if kind == "family":
        # the recipe-dependent keys; ``k`` is read by every recipe.  A key the
        # recipe does not read is refused when set and dropped as a default,
        # so the manifest echoes only what the run read
        reads = inspect.signature(_recipe_constructor(cfg["recipe"])).parameters
        unread = {"amplitude", "bump", "a0"} - set(reads)
        refused = sorted(given & unread)
        if refused:
            raise ConfigurationError(f"config key {refused[0]!r} is not read by "
                                     f"family recipe {cfg['recipe']!r}")
        for key in unread:
            del cfg[key]
    return cfg


def _coerce(typ: type, value):
    """``value`` as ``typ``; a number is never a boolean, and an int is
    never truncated from a fractional value."""
    if typ is not str and isinstance(value, bool):
        raise TypeError(value)
    out = typ(value)
    if typ is int and out != value and not isinstance(value, str):
        raise ValueError(value)
    return out


def validate_config(cfg: dict) -> None:
    """Cheap structural validation before any compute."""
    for key, value in cfg.items():
        if CONFIG_KEYS[key][1] is float and value is not None \
                and not math.isfinite(value):
            raise ConfigurationError(f"config key {key!r} must be finite, got {value}")
    for key in ("T", "tol", "stop_tol"):
        if key in cfg and cfg[key] <= 0:
            raise ConfigurationError(f"config key {key!r} must be positive, "
                                     f"got {cfg[key]}")
    for key, low in LOWER_BOUNDS.items():
        if key in cfg and cfg[key] < low:
            raise ConfigurationError(f"config key {key!r} must be >= {low}, "
                                     f"got {cfg[key]}")
    for key in ("delta_schedule", "eps_schedule"):
        if cfg.get(key):  # each set schedule refused under its own name
            check_schedule(key.split("_")[0], cfg[key])
    if schedules := _diagonal_schedules(cfg):
        diagonal_pairs(*schedules)
    if cfg["kind"] == "family" and cfg["base_min"] >= cfg["base_max"]:
        raise ConfigurationError(
            "config keys 'base_min' and 'base_max' must satisfy base_min < "
            f"base_max, got {cfg['base_min']} and {cfg['base_max']}")
    unknown = set(cfg.get("criteria") or ()) - {cid for cid, _, _ in suite.CRITERIA}
    if unknown:
        raise ConfigurationError(f"unknown criteria in 'criteria': {sorted(unknown)}")
    for key in ("divisor_zero", "divisor_infinity", "a0"):
        if key in cfg:
            try:
                Fraction(cfg[key])
            except (ValueError, ZeroDivisionError):
                raise ConfigurationError(f"config key {key!r} is not a rational: "
                                         f"{cfg[key]!r}")
    # the cheap objects the run builds first, so their own checks refuse
    # the inputs outside the theory before any compute: adjoint degrees,
    # density slopes, the background's curvature mass (which fails on a grid
    # too coarse or too short for the profile), a family's joint positivity
    if cfg["kind"] == "family":
        recipe = _recipe_from(cfg)
        ke_problem(recipe.k, recipe.divisor, make_grid(cfg["T"], cfg["fiber_n"]))
        _family_from(cfg)
    elif cfg["kind"] != "suite":
        D = _divisor_from(cfg)
        grid = _grid_from(cfg)
        delta = cfg.get("delta", 0.0)
        if cfg["kind"] == "solve":
            ke_problem(cfg["k"], D, grid, eps=cfg["eps"], delta=delta)
        else:  # the p-step iteration's first step
            ricci_mod.initial_state(cfg["k"], D, cfg["p"], grid,
                                    eps=cfg.get("eps", 0.0), delta=delta)
        if cfg["kind"] == "bergman":
            bergman.section_range(1, cfg["p"], cfg["k"], D)


def _divisor_from(cfg: dict) -> DivisorData:
    return divisor(zero=Fraction(cfg["divisor_zero"]),
                   infinity=Fraction(cfg["divisor_infinity"]))


def _recipe_constructor(name: str):
    """Constructor of the family recipe ``name``; its parameters are the
    config keys that recipe reads."""
    constructors = {"product": family_mod.product_family_recipe,
                    "perturbed": family_mod.perturbed_family_recipe,
                    "conic": family_mod.conic_family_recipe}
    if name not in constructors:
        raise ConfigurationError(f"unknown family recipe {name!r}")
    return constructors[name]


def _recipe_from(cfg: dict) -> family_mod.FamilyRecipe:
    """The family recipe named by ``recipe``, from the keys it reads."""
    make = _recipe_constructor(cfg["recipe"])
    return make(**{key: cfg[key] for key in inspect.signature(make).parameters})


def _family_from(cfg: dict) -> family_mod.FiberFamily:
    # a negative count is an empty base, which build_family refuses
    base = np.linspace(cfg["base_min"], cfg["base_max"], max(cfg["base_count"], 0))
    return family_mod.build_family(_recipe_from(cfg), base,
                                   make_grid(cfg["T"], cfg["fiber_n"]))


def _diagonal_schedules(cfg: dict) -> Optional[tuple[list, list]]:
    """The (delta, eps) schedules of a solve run, each standing in for the
    other when only one is set; None without a diagonal."""
    if not (cfg.get("delta_schedule") or cfg.get("eps_schedule")):
        return None
    return (cfg.get("delta_schedule") or cfg["eps_schedule"],
            cfg.get("eps_schedule") or cfg["delta_schedule"])


def _grid_from(cfg: dict):
    return make_grid(cfg["T"], cfg["N"])


# ---------------------------------------------------------------------------
# experiment bodies: return (verdicts, artifact summaries)
# ---------------------------------------------------------------------------

def _run_solve(cfg: dict, out: str) -> dict:
    grid = _grid_from(cfg)
    D = _divisor_from(cfg)
    prob = ke_problem(cfg["k"], D, grid, eps=cfg["eps"], delta=cfg["delta"])
    rep = solve_ke_ode(prob, tol=cfg["tol"])
    weight_to_csv(rep.solution, os.path.join(out, "profile.csv"))
    verdicts = {"mass_defect_small": rep.mass_defect <= 1e-6}
    oracle = None
    if D.is_empty and cfg["eps"] == 0 and cfg["delta"] == 0:
        oracle = closed_form_error(rep.solution, cfg["k"])
        verdicts["closed_form_oracle"] = oracle <= CLOSED_FORM_TOL
    diagonal_summary = None
    if schedules := _diagonal_schedules(cfg):
        diag = regularized_diagonal(prob, *schedules, tol=cfg["tol"])
        steps = (float("nan"),) + diag.trace
        rows = [(d, e, r.sup_potential, step)
                for (d, e), r, step in zip(diag.pairs, diag.reports, steps)]
        write_csv(os.path.join(out, "diagonal.csv"),
                  ["delta", "eps", "sup_potential", "step_distance"], rows)
        final = float(np.max(np.abs(diag.reports[-1].potential - rep.potential)))
        verdicts["diagonal_converged"] = diag.converged
        diagonal_summary = {"final_distance_to_unregularized": final,
                            "steps": len(diag.reports)}
    write_json(os.path.join(out, "report.json"), {
        "weight": weight_record(rep.solution),
        "iterations": rep.iterations,
        "residual": rep.residual,
        "mass_defect": rep.mass_defect,
        "sup_potential": rep.sup_potential,
        "oracle_error": oracle,
        "diagonal": diagonal_summary,
    })
    return verdicts


def _run_ricci(cfg: dict, out: str) -> dict:
    grid = _grid_from(cfg)
    D = _divisor_from(cfg)
    state, trace = ricci_mod.run_ricci(cfg["k"], D, cfg["p"], m_max=cfg["m_max"],
                                       stop_tol=cfg["stop_tol"], grid=grid,
                                       eps=cfg["eps"], delta=cfg["delta"],
                                       solver_tol=cfg["tol"])
    write_csv(os.path.join(out, "trace.csv"),
              ["m", "gap", "ratio", "norm_integral", "residual"], trace.rows())
    residual = ricci_mod.fixed_point_residual(state)
    verdicts = {"converged": trace.gaps[-1] <= cfg["stop_tol"],
                "no_ratio_violations": not trace.violations,
                "fixed_point_residual_small": residual <= 10.0 * cfg["stop_tol"]}
    write_json(os.path.join(out, "summary.json"), {
        "steps": state.m, "final_gap": trace.gaps[-1],
        "max_ratio": max(trace.ratios) if trace.ratios else None,
        "contraction_bound": (cfg["p"] - 1) / cfg["p"],
        "fixed_point_residual": residual,
        "violations": trace.violations,
    })
    return verdicts


def _run_bergman(cfg: dict, out: str) -> dict:
    grid = _grid_from(cfg)
    D = _divisor_from(cfg)
    chain = bergman.build_chain(cfg["k"], D, p=cfg["p"], m=cfg["m"], grid=grid)
    run = bergman.run_levels(chain, cfg["ell_max"])
    slacks = run.chain_slacks()
    lows, highs = zip(*run.log_gram_ranges)
    rows = zip(range(1, len(lows) + 1), run.n_sections, lows, highs,
               run.distances, slacks.tolist(), run.c_ells)
    write_csv(os.path.join(out, "trace.csv"),
              ["ell", "n_sections", "log_gram_min", "log_gram_max",
               "sup_distance", "chain_slack", "c_ell"], rows)
    conv = bergman.convergence_check(run) if len(run.distances) >= 3 else {}
    chain_cert = bergman.integral_chain_check(run)
    verdicts = {"chain_inequality": chain_cert["holds"]}
    if conv:
        verdicts["distance_decreasing"] = conv["monotone"]
    if not math.isnan(chain.route_agreement):
        verdicts["route_agreement"] = chain.route_agreement <= bergman.ROUTE_TOL
    write_json(os.path.join(out, "summary.json"),
               {"convergence": conv, "integral_chain": chain_cert,
                "quadrature_half_width": run.grid.half_width,
                "guard_margin": run.guard_margin})
    return verdicts


def _run_family(cfg: dict, out: str) -> dict:
    fam = _family_from(cfg)
    rel = family_mod.solve_fiberwise(fam)
    cert = family_mod.base_positivity_check(rel)
    bound = family_mod.uniform_sup_check(rel, (cfg["base_min"], cfg["base_max"]))

    header = ["t"] + [f"s={s:+.6f}" for s in fam.base_nodes]
    rows = [(t, *row) for t, row in zip(fam.fiber_grid.nodes, rel.weights)]
    write_csv(os.path.join(out, "relative_potential.csv"), header, rows)
    write_json(os.path.join(out, "positivity.json"), cert | {"uniform_bound": bound})

    ns = family_mod.section_norm_checks(fam)
    ns_rows = [(m, j, s, v) for m, j, c in ns for s, v in zip(fam.base_nodes, c["values"])]
    write_csv(os.path.join(out, "ns_trace.csv"), ["m", "j", "s", "neg_log_norm"], ns_rows)
    return {"base_positivity": cert["passed"],
            "section_norm_convexity": all(c["passed"] for _, _, c in ns)}


def _run_suite(cfg: dict, out: str) -> dict:
    results = suite.run_criteria(cfg.get("criteria") or None, seed=cfg["seed"])
    # timings go to stdout and the manifest wall clock; the CSV payload stays
    # byte-identical across reruns
    rows = [(r.cid, r.name, int(r.passed)) for r in results]
    write_csv(os.path.join(out, "criteria.csv"),
              ["criterion", "name", "passed"], rows)
    for r in results:
        print(r.line())
    return {f"criterion_{r.cid:02d}": r.passed for r in results}


RUNNERS = {"solve": _run_solve, "ricci": _run_ricci, "bergman": _run_bergman,
           "family": _run_family, "suite": _run_suite}


def run(cfg: dict) -> tuple[dict, int]:
    """Execute one config; always writes a manifest, returns (manifest, exit code)."""
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    manifest = {
        "config": {k: v for k, v in sorted(cfg.items())},
        "convention_hash": CONVENTIONS_HASH,
        "versions": {"radialke": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
    }
    code = 0
    try:
        verdicts = RUNNERS[cfg["kind"]](cfg, out)
        manifest["verdicts"] = verdicts
        if not all(verdicts.values()):
            code = 1
    except (ConfigurationError, ConvergenceError) as exc:
        manifest["verdicts"] = {}
        manifest["error"] = str(exc)
        code = 1
    manifest["wall_clock_seconds"] = time.perf_counter() - t0
    write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest, code


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def emit_plotdata(trace_path: str, out: str) -> str:
    """Convert a run trace into plot-ready columns, schema chosen by header."""
    if not os.path.exists(trace_path):
        raise ConfigurationError(f"trace file not found: {trace_path}")
    header, data = read_csv(trace_path)
    os.makedirs(out, exist_ok=True)
    if header[:3] == ["m", "gap", "ratio"]:
        gaps = data[:, 1]
        bound = np.full(gaps.size, np.nan)
        if gaps.size >= 2:
            # geometric envelope implied by the recorded ratios
            bound = gaps[0] * np.nanmax(data[1:, 2]) ** np.arange(gaps.size)
        path = os.path.join(out, "fig_contraction.csv")
        write_csv(path, ["m", "gap", "ratio", "bound"],
                  zip(data[:, 0].astype(int), gaps, data[:, 2], bound))
        return path
    if header[:2] == ["ell", "n_sections"]:
        path = os.path.join(out, "fig_kernel_convergence.csv")
        write_csv(path, ["ell", "sup_distance", "chain_slack"],
                  zip(data[:, 0].astype(int), data[:, 4], data[:, 5]))
        return path
    raise ConfigurationError(f"unrecognized trace schema: {header}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialke",
        description="rotation-invariant Kahler-Einstein experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", help="flat JSON config file")
        for key in keys_of(kind):
            if key == "kind":
                continue
            # flag values stay strings: load_config coerces them as it does
            # the file's, and splits list values at commas
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            help="comma-separated"
                            if CONFIG_KEYS[key][1] is list else None)

    sp = sub.add_parser("plotdata", help="derive plot columns from a trace file")
    sp.add_argument("trace", help="trace.csv produced by a run")
    sp.add_argument("--out", default="plots")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plotdata":
        try:
            path = emit_plotdata(args.trace, args.out)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(path)
        return 0

    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}
    try:
        cfg = load_config(args.config, overrides, args.command)
        validate_config(cfg)
    except (ConfigurationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    manifest, code = run(cfg)
    if "error" in manifest:
        print(f"run failed: {manifest['error']}", file=sys.stderr)
    else:
        failed = [k for k, v in manifest["verdicts"].items() if not v]
        if failed:
            print("failed verdicts: " + ", ".join(failed), file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
