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
from .geometry import DivisorData, divisor, make_grid
from .io import read_csv, weight_record, weight_to_csv, write_csv, write_json
from .masolver import (check_schedule, closed_form_error, ke_problem,
                       regularized_diagonal, solve_ke_ode)

# flat config schema: key -> (applies-to kinds, type, default)
CONFIG_KEYS = {
    "kind": ("*", str, None),
    "out": ("*", str, "runs/out"),
    "seed": ("*", int, 20240801),
    "tol": ("*", float, 1e-10),
    "T": ("*", float, 30.0),
    "N": ("*", int, 4096),
    "k": ("solve ricci bergman family", float, 4.0),
    "divisor_zero": ("solve ricci bergman", str, "0"),
    "divisor_infinity": ("solve ricci bergman", str, "0"),
    "eps": ("solve ricci bergman", float, 0.0),
    "delta": ("solve ricci", float, 0.0),
    "delta_schedule": ("solve", list, None),
    "eps_schedule": ("solve", list, None),
    "p": ("ricci bergman", int, 1),
    "m_max": ("ricci", int, 200),
    "stop_tol": ("ricci", float, 1e-10),
    "m": ("bergman", int, 1),
    "ell_max": ("bergman", int, 200),
    "recipe": ("family", str, "perturbed"),
    "amplitude": ("family", float, 0.05),
    "bump": ("family", str, "fs_bump"),
    "a0": ("family", str, "1/2"),
    "base_min": ("family", float, -2.0),
    "base_max": ("family", float, 2.0),
    "base_count": ("family", int, 41),
    "fiber_n": ("family", int, 1024),
    "criteria": ("suite", list, None),
}

KINDS = ("solve", "ricci", "bergman", "family", "suite")


def load_config(path: Optional[str], overrides: dict, kind: str) -> dict:
    """Merge defaults, config file, and CLI overrides; reject unknown keys."""
    cfg = {key: default for key, (kinds, _, default) in CONFIG_KEYS.items()
           if kinds == "*" or kind in kinds.split()}
    cfg["kind"] = kind
    if path is not None:
        with open(path) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in cfg:
                raise ConfigurationError(f"unknown config key {key!r} for kind {kind!r}")
            cfg[key] = value
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in cfg:
            raise ConfigurationError(f"option {key!r} does not apply to kind {kind!r}")
        cfg[key] = value
    # type coercion and basic validation; lists come comma-separated from flags
    for key, value in list(cfg.items()):
        _, typ, _ = CONFIG_KEYS[key]
        if value is None:
            continue
        try:
            if typ is list:
                elem = int if key == "criteria" else float
                cfg[key] = [elem(x) for x in (value.split(",") if isinstance(value, str)
                                              else value)]
            else:
                cfg[key] = typ(value)
        except (TypeError, ValueError):
            raise ConfigurationError(f"config key {key!r} expects {typ.__name__}, "
                                     f"got {value!r}")
    return cfg


def validate_config(cfg: dict) -> None:
    """Cheap structural validation before any compute."""
    for key, value in cfg.items():
        if CONFIG_KEYS[key][1] is float and value is not None \
                and not math.isfinite(value):
            raise ConfigurationError(f"config key {key!r} must be finite, got {value}")
    if cfg.get("N", 3) < 3:
        raise ConfigurationError(f"config key 'N' must be >= 3, got {cfg['N']}")
    if cfg.get("T", 1.0) <= 0:
        raise ConfigurationError(f"config key 'T' must be positive, got {cfg['T']}")
    if cfg.get("tol", 1.0) <= 0:
        raise ConfigurationError(f"config key 'tol' must be positive, got {cfg['tol']}")
    if cfg.get("p", 1) < 1:
        raise ConfigurationError(f"config key 'p' must be >= 1, got {cfg['p']}")
    if cfg.get("ell_max", 1) < 1:
        raise ConfigurationError(f"config key 'ell_max' must be >= 1, got {cfg['ell_max']}")
    if cfg.get("base_count", 3) < 1:
        raise ConfigurationError(f"config key 'base_count' must be >= 1, "
                                 f"got {cfg['base_count']}")
    for key in ("delta_schedule", "eps_schedule"):
        if cfg.get(key):
            check_schedule(key.split("_")[0], cfg[key])
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


def _divisor_from(cfg: dict) -> DivisorData:
    return divisor(zero=Fraction(cfg.get("divisor_zero", "0")),
                   infinity=Fraction(cfg.get("divisor_infinity", "0")))


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
    verdicts = {"residual_within_tol": rep.residual <= cfg["tol"],
                "mass_defect_small": rep.mass_defect <= 1e-6}
    oracle = None
    if D.is_empty and cfg["eps"] == 0 and cfg["delta"] == 0 and cfg["k"] > 2:
        oracle = closed_form_error(rep.solution, cfg["k"])
        verdicts["closed_form_oracle"] = oracle <= 1e-6
    diagonal_summary = None
    if cfg.get("delta_schedule") or cfg.get("eps_schedule"):
        schedules = (cfg.get("delta_schedule") or cfg["eps_schedule"],
                     cfg.get("eps_schedule") or cfg["delta_schedule"])
        diag = regularized_diagonal(prob, *schedules, tol=cfg["tol"])
        rows = [(d, e, r.sup_potential,
                 diag.trace[i - 1] if i >= 1 else float("nan"))
                for i, ((d, e), r) in enumerate(zip(diag.pairs, diag.reports))]
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
    rows = [(m, g, r, ni, res) for (m, g, r, ni, res, _) in trace.rows(cfg["p"])]
    write_csv(os.path.join(out, "trace.csv"),
              ["m", "gap", "ratio", "norm_integral", "residual"], rows)
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
    chain = bergman.build_chain(cfg["k"], D, p=cfg["p"], m=cfg["m"], grid=grid,
                                eps=cfg["eps"])
    run = bergman.run_levels(chain, cfg["ell_max"])
    slacks = run.chain_slacks()
    rows = [(lv.level, lv.basis.n_sections, float(np.min(lv.log_gram)),
             float(np.max(lv.log_gram)), run.distances[i], float(slacks[i]),
             run.c_ells[i]) for i, lv in enumerate(run.levels)]
    write_csv(os.path.join(out, "trace.csv"),
              ["ell", "n_sections", "log_gram_min", "log_gram_max",
               "sup_distance", "chain_slack", "c_ell"], rows)
    conv = (bergman.convergence_check(run)
            if len(run.levels) >= 3 and chain.eps == 0 else {})
    chain_cert = bergman.integral_chain_check(run)
    verdicts = {"chain_inequality": chain_cert["holds"],
                "distance_decreasing": conv.get("monotone", True)}
    if not math.isnan(chain.route_agreement):
        verdicts["route_agreement"] = chain.route_agreement <= 1e-5
    write_json(os.path.join(out, "summary.json"),
               {"convergence": conv, "integral_chain": chain_cert,
                "quadrature_half_width": run.grid.half_width,
                "guard_margin": run.guard_margin})
    return verdicts


def _run_family(cfg: dict, out: str) -> dict:
    if cfg["recipe"] == "product":
        recipe = family_mod.product_family_recipe(cfg["k"])
    elif cfg["recipe"] == "perturbed":
        recipe = family_mod.perturbed_family_recipe(cfg["k"], cfg["amplitude"],
                                                    cfg["bump"])
    elif cfg["recipe"] == "conic":
        recipe = family_mod.conic_family_recipe(cfg["k"], Fraction(cfg["a0"]),
                                                cfg["amplitude"], cfg["bump"])
    else:
        raise ConfigurationError(f"unknown family recipe {cfg['recipe']!r}")
    base = np.linspace(cfg["base_min"], cfg["base_max"], cfg["base_count"])
    fam = family_mod.build_family(recipe, base, make_grid(cfg["T"], cfg["fiber_n"]))
    rel = family_mod.solve_fiberwise(fam)
    cert = family_mod.base_positivity_check(rel)
    bound = family_mod.uniform_sup_check(rel, (cfg["base_min"], cfg["base_max"]))

    header = ["t"] + [f"s={s:+.6f}" for s in fam.base_nodes]
    rows = [(t, *row) for t, row in zip(fam.fiber_grid.nodes, rel.weights)]
    write_csv(os.path.join(out, "relative_potential.csv"), header, rows)
    write_json(os.path.join(out, "positivity.json"), cert | {"uniform_bound": bound})

    ns_rows = []
    for m in (1, 2, 3):
        for j in family_mod.section_window(fam, m):
            values = family_mod.ns_convexity_check(j, m, fam)["values"]
            ns_rows += [(m, j, s, v) for s, v in zip(fam.base_nodes, values)]
    write_csv(os.path.join(out, "ns_trace.csv"),
              ["m", "j", "s", "neg_log_norm"], ns_rows)
    return {"joint_precheck": fam.joint_positive,
            "base_positivity": cert["passed"],
            "uniform_bound_finite": bool(np.isfinite(bound["bound"]))}


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
            bound = gaps[0] * (np.nanmax(data[1:, 2]) if data.shape[0] > 1 else 1.0) \
                ** np.arange(gaps.size)
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

    def add_common(sp):
        sp.add_argument("--config", help="flat JSON config file")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--tol", type=float)
        sp.add_argument("--T", type=float)
        sp.add_argument("--N", type=int)

    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        add_common(sp)
        if kind in ("solve", "ricci", "bergman", "family"):
            sp.add_argument("--k", type=float)
        if kind in ("solve", "ricci", "bergman"):
            sp.add_argument("--divisor-zero", dest="divisor_zero")
            sp.add_argument("--divisor-infinity", dest="divisor_infinity")
            sp.add_argument("--eps", type=float)
        if kind in ("solve", "ricci"):
            sp.add_argument("--delta", type=float)
        if kind == "solve":
            sp.add_argument("--delta-schedule", dest="delta_schedule",
                            help="comma-separated decreasing values")
            sp.add_argument("--eps-schedule", dest="eps_schedule",
                            help="comma-separated decreasing values")
        if kind in ("ricci", "bergman"):
            sp.add_argument("--p", type=int)
        if kind == "ricci":
            sp.add_argument("--m-max", dest="m_max", type=int)
            sp.add_argument("--stop-tol", dest="stop_tol", type=float)
        if kind == "bergman":
            sp.add_argument("--m", type=int)
            sp.add_argument("--ell-max", dest="ell_max", type=int)
        if kind == "family":
            sp.add_argument("--recipe")
            sp.add_argument("--amplitude", type=float)
            sp.add_argument("--bump")
            sp.add_argument("--a0")
            sp.add_argument("--base-count", dest="base_count", type=int)
            sp.add_argument("--fiber-n", dest="fiber_n", type=int)
        if kind == "suite":
            sp.add_argument("--criteria",
                            help="comma-separated criterion numbers, e.g. 1,4,7")

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
