import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import radialke
from radialke import cli
from radialke.cli import (KINDS, build_parser, emit_plotdata, keys_of,
                          load_config, main)
from radialke.conventions import CONVENTIONS_HASH
from radialke.errors import ConfigurationError
from radialke.family import conic_family_recipe, perturbed_family_recipe
from radialke.geometry import divisor
from radialke.io import read_csv


def run_cli(args):
    return main(args)


def test_solve_run_writes_artifacts(tmp_path):
    out = tmp_path / "solve"
    code = run_cli(["solve", "--out", str(out), "--k", "4", "--N", "1024"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdicts"]["closed_form_oracle"]
    assert manifest["convention_hash"] == CONVENTIONS_HASH
    header, data = read_csv(str(out / "profile.csv"))
    assert header == ["t", "u", "du_dt", "d2u_dt2"]
    assert data.shape == (1024, 4)
    report = json.loads((out / "report.json").read_text())
    assert report["oracle_error"] <= 1e-6


def test_solve_config_file_with_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5.0, "N": 512, "divisor_zero": "1/2"}))
    out = tmp_path / "r"
    code = run_cli(["solve", "--config", str(cfg), "--out", str(out), "--N", "1024"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["N"] == 1024          # flag wins over file
    assert manifest["config"]["divisor_zero"] == "1/2"


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"knob": 1}))
    assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_invalid_grid_is_usage_error(tmp_path):
    assert run_cli(["solve", "--out", str(tmp_path / "x"), "--N", "2"]) == 2


@pytest.mark.parametrize("key,value", [("k", "nan"), ("T", "nan"),
                                       ("tol", "nan"), ("eps", "inf")])
def test_non_finite_float_is_config_error(tmp_path, capsys, key, value):
    out = tmp_path / "x"
    assert run_cli(["solve", "--out", str(out), f"--{key}", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(key) in err
    assert not out.exists()  # rejected before any compute


@pytest.mark.parametrize("args", [
    ["solve", "--eps-schedule", "0.1,abc", "--N", "257"],
    ["solve", "--eps-schedule", "0.1,nan", "--N", "257"],
    ["solve", "--delta-schedule", "0.1,0.1", "--N", "257"],
    ["solve", "--eps-schedule", "0.05,0.1", "--N", "257"],
    ["suite", "--criteria", "1,x"],
    ["suite", "--criteria", "99"],
    ["solve", "--delta-schedule", "0.1,0.05", "--N", "257"],  # 2 steps
])
def test_bad_list_key_is_config_error(tmp_path, capsys, args):
    out = tmp_path / "x"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()  # rejected before any compute


@pytest.mark.parametrize("args,key", [
    (["solve", "--eps", "-1", "--N", "257"], "eps"),
    (["solve", "--delta", "-0.5", "--N", "257"], "delta"),
    (["ricci", "--m-max", "0", "--N", "257"], "m_max"),
    (["ricci", "--m-max", "1", "--N", "257"], "m_max"),
    (["bergman", "--m", "0", "--N", "257"], "m"),
    (["ricci", "--stop-tol", "-1", "--N", "257"], "stop_tol"),
    (["family", "--fiber-n", "2"], "fiber_n"),
])
def test_out_of_range_key_is_config_error(tmp_path, capsys, args, key):
    out = tmp_path / "x"
    assert run_cli(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(key) in err
    assert not out.exists()  # rejected before any compute


@pytest.mark.parametrize("lo,hi", [("2", "-2"), ("1", "1")])
def test_empty_base_range_is_config_error(tmp_path, capsys, lo, hi):
    out = tmp_path / "x"
    assert run_cli(["family", "--base-min", lo, "--base-max", hi,
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "'base_min'" in err and "'base_max'" in err
    assert not out.exists()  # rejected before any compute


@pytest.mark.parametrize("args", [
    ["family", "--recipe", "bogus"],
    ["family", "--bump", "bogus"],
    ["family", "--recipe", "conic", "--a0", "0"],
    ["family", "--recipe", "conic", "--a0", "1"],
    ["family", "--k", "2.4", "--recipe", "conic"],
    ["family", "--base-count", "2"],
    ["solve", "--k", "2"],
    ["solve", "--delta", "3"],
    ["ricci", "--k", "2.5", "--divisor-zero", "1/2"],
    ["bergman", "--k", "2.5", "--divisor-zero", "1/2"],
    ["bergman", "--k", "4.5"],
    ["family", "--amplitude", "-0.05"],
    ["family", "--base-count", "-1"],
    ["bergman", "--k", "3", "--divisor-zero", "9/20", "--divisor-infinity", "9/20"],
])
def test_input_outside_theory_is_config_error(tmp_path, capsys, args):
    # the library's own checks on recipes, adjoint degrees and section
    # windows run in validate_config, not after the output directory exists
    out = tmp_path / "x"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["solve", "--N", "3"],
    ["solve", "--N", "4"],
    ["solve", "--T", "5", "--N", "513"],
    ["ricci", "--N", "3"],
    ["bergman", "--N", "3"],
    ["bergman", "--N", "4"],
    ["family", "--fiber-n", "3", "--base-count", "3"],
])
def test_grid_too_coarse_for_background_is_config_error(tmp_path, capsys, args):
    # a problem checks its background's curvature mass where it is built,
    # so validate_config refuses these, not a solve after the output exists
    out = tmp_path / "x"
    assert run_cli(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "mass" in err
    assert not out.exists()


# small runs of each kind, so that a wrongly accepted value still runs fast
SMALL = {"ricci": {"N": 257}, "bergman": {"N": 257, "ell_max": 5},
         "family": {"fiber_n": 129, "base_count": 5}, "solve": {"N": 257},
         "suite": {"criteria": [4]}}
NOT_NUMBERS_OF_THEIR_TYPE = [
    ("ricci", "p", 2.5), ("family", "base_count", 9.9), ("ricci", "m_max", 200.7),
    ("bergman", "ell_max", 60.5), ("suite", "seed", 3.9), ("bergman", "m", True),
    ("solve", "k", True), ("suite", "criteria", [4.5]), ("suite", "criteria", [True]),
]


@pytest.mark.parametrize("kind,key,value", NOT_NUMBERS_OF_THEIR_TYPE)
def test_fractional_or_boolean_number_is_config_error_from_file(tmp_path, capsys,
                                                                 kind, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL[kind] | {key: value}))
    out = tmp_path / "x"
    assert run_cli([kind, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(key) in err
    assert not out.exists()  # rejected before any compute


@pytest.mark.parametrize("kind,key,value", [
    ("ricci", "p", "2.5"), ("family", "base_count", "9.9"), ("bergman", "m", "true"),
    ("solve", "k", "true"), ("suite", "seed", "3.9"),
])
def test_fractional_or_boolean_number_is_config_error_from_flag(tmp_path, capsys,
                                                                 kind, key, value):
    # the same coercion as a file's values, not argparse's usage error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in SMALL[kind].items() if k != key}))
    out = tmp_path / "x"
    assert run_cli([kind, "--config", str(cfg), "--" + key.replace("_", "-"), value,
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(key) in err
    assert not out.exists()


def test_integral_number_is_accepted_from_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 257.0, "p": 2.0, "m_max": 3}))
    assert load_config(str(cfg), {}, "ricci")["p"] == 2


UNREAD_KEYS = [("solve", "seed", 3), ("ricci", "seed", 3), ("bergman", "seed", 3),
               ("family", "seed", 3), ("bergman", "tol", 1e-3),
               ("family", "tol", 1e-3), ("suite", "tol", 0.5), ("suite", "T", 2.0),
               ("family", "N", 7), ("suite", "N", 5)]


@pytest.mark.parametrize("kind,key,value", UNREAD_KEYS)
def test_unread_key_is_refused(kind, key, value):
    with pytest.raises(ConfigurationError):
        load_config(None, {key: value}, kind)


@pytest.mark.parametrize("kind", ["suite", "bogus"])
def test_config_file_for_another_kind_is_refused(tmp_path, capsys, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": kind}))
    out = tmp_path / "x"
    assert run_cli(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()


def test_unread_key_is_refused_from_file_and_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 7}))
    out = tmp_path / "x"
    assert run_cli(["family", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    # the kernel recursion runs on the singular chain only
    cfg.write_text(json.dumps({"eps": 0.05}))
    assert run_cli(["bergman", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    with pytest.raises(SystemExit) as exc:
        run_cli(["bergman", "--tol", "1e-3", "--out", str(out)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["bergman", "--eps", "0.05", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("args,key,recipe", [
    (["--recipe", "product", "--amplitude", "0.3", "--a0", "2/3"], "a0", "product"),
    (["--recipe", "product", "--amplitude", "0.05"], "amplitude", "product"),
    (["--recipe", "product", "--bump", "cauchy_bump"], "bump", "product"),
    (["--a0", "1/3"], "a0", "perturbed"),
    (["--recipe", "perturbed", "--a0", "1/2"], "a0", "perturbed"),
])
def test_key_unread_by_recipe_is_config_error(tmp_path, capsys, args, key, recipe):
    out = tmp_path / "x"
    assert run_cli(["family"] + args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(key) in err and repr(recipe) in err
    assert not out.exists()


def test_key_unread_by_recipe_is_refused_from_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "product", "amplitude": 0.05}))
    out = tmp_path / "x"
    assert run_cli(["family", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'amplitude'" in capsys.readouterr().err
    assert not out.exists()


def test_recipe_reads_only_its_keys():
    # defaults of the keys a recipe does not read are merged but never set
    for recipe in ("product", "perturbed", "conic"):
        load_config(None, {"recipe": recipe}, "family")
    cfg = load_config(None, {"recipe": "conic", "a0": "1/3", "amplitude": 0.03,
                             "bump": "log_bump"}, "family")
    built = cli._recipe_from(cfg)
    assert built == conic_family_recipe(4.0, "1/3", 0.03, "log_bump")
    assert built.divisor == divisor(zero="1/3")
    cfg = load_config(None, {"recipe": "perturbed", "amplitude": 0.07}, "family")
    assert cli._recipe_from(cfg) == perturbed_family_recipe(4.0, 0.07)


@pytest.mark.parametrize("recipe,echoed", [
    ("product", set()), ("perturbed", {"amplitude", "bump"})])
def test_family_manifest_echoes_only_keys_the_recipe_reads(tmp_path, recipe,
                                                           echoed):
    out = tmp_path / recipe
    assert run_cli(["family", "--recipe", recipe, "--base-count", "5",
                    "--fiber-n", "129", "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert {"amplitude", "bump", "a0"} & set(config) == echoed


def test_every_config_key_is_a_flag_of_its_kinds():
    parser = build_parser()
    for kind in KINDS:
        for key in keys_of(kind)[1:]:
            args = parser.parse_args([kind, "--" + key.replace("_", "-"), "1"])
            assert vars(args)[key] is not None
    assert sum(len(keys_of(kind)) - 1 for kind in KINDS) == 46


def test_readme_command_lines_parse():
    # every `radialke ...` line of README's code blocks is a valid command
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as f:
        blocks = re.findall(r"^```\n(.*?)^```", f.read(), re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("radialke ")]
    assert len(lines) == 8
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_cli_import_stays_numpy_only():
    # importing the CLI loads every module; beyond the standard library it
    # may pull in numpy alone (scipy is a test oracle, no compiler layer)
    code = ("import sys; before = set(sys.modules); import radialke.cli; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names)))")
    src = os.path.dirname(os.path.dirname(radialke.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "['numpy', 'radialke']"


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["ricci", "--out", str(out), "--k", "4", "--p", "2",
                        "--N", "512"]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_bergman_byte_identical_across_blas_threads(tmp_path):
    # the log-sum-exp kernels are matrix products; at this size the late
    # levels' products are large enough for BLAS to split across threads
    src = os.path.dirname(os.path.dirname(radialke.__file__))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "radialke.cli", "bergman", "--N", "2049",
                        "--ell-max", "60", "--out", str(out)], env=env, check=True)
        outputs.append([(out / name).read_bytes()
                        for name in ("trace.csv", "summary.json")])
    assert outputs[0] == outputs[1]


def test_ricci_trace_schema(tmp_path):
    out = tmp_path / "ricci"
    assert run_cli(["ricci", "--out", str(out), "--p", "3", "--N", "512"]) == 0
    header, data = read_csv(str(out / "trace.csv"))
    assert header == ["m", "gap", "ratio", "norm_integral", "residual"]
    assert np.all(np.diff(data[:, 0]) == 1)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_ratio"] <= 2.0 / 3.0 + 1e-3


def test_ricci_ratio_violation_fails_its_verdict(tmp_path, capsys, monkeypatch):
    # a slack of -0.4 puts the admitted ratio at 0.1, below the p = 2 ratios
    monkeypatch.setattr(radialke.ricci, "RATIO_SLACK", -0.4)
    out = tmp_path / "ricci"
    assert run_cli(["ricci", "--N", "257", "--p", "2", "--out", str(out)]) == 1
    assert "no_ratio_violations" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdicts"]["no_ratio_violations"] is False
    assert json.loads((out / "summary.json").read_text())["violations"]


def test_bergman_run_and_plotdata(tmp_path):
    out = tmp_path / "berg"
    assert run_cli(["bergman", "--out", str(out), "--ell-max", "12",
                    "--N", "1024"]) == 0
    header, _ = read_csv(str(out / "trace.csv"))
    assert header[:2] == ["ell", "n_sections"]
    plot = emit_plotdata(str(out / "trace.csv"), str(tmp_path / "plots"))
    ph, pdata = read_csv(plot)
    assert ph == ["ell", "sup_distance", "chain_slack"]
    assert pdata.shape[0] == 12


def test_bergman_summary_reports_decay_order(tmp_path):
    out = tmp_path / "berg"
    assert run_cli(["bergman", "--out", str(out), "--ell-max", "24",
                    "--N", "1024"]) == 0
    conv = json.loads((out / "summary.json").read_text())["convergence"]
    assert np.isfinite(conv["decay_order"]) and conv["decay_order"] > 0


@pytest.mark.parametrize("args", [["--ell-max", "2"]], ids=["two-levels"])
def test_bergman_reports_no_unchecked_convergence(tmp_path, args):
    # the convergence certificate needs 3 levels
    out = tmp_path / "berg"
    assert run_cli(["bergman", "--N", "257", "--out", str(out)] + args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "distance_decreasing" not in manifest["verdicts"]
    assert all(manifest["verdicts"].values())
    assert json.loads((out / "summary.json").read_text())["convergence"] == {}


def test_plotdata_from_ricci_trace(tmp_path):
    out = tmp_path / "ricci"
    assert run_cli(["ricci", "--out", str(out), "--p", "2", "--N", "512"]) == 0
    plot = emit_plotdata(str(out / "trace.csv"), str(tmp_path / "plots"))
    header, _ = read_csv(plot)
    assert header == ["m", "gap", "ratio", "bound"]


def test_plotdata_missing_trace(tmp_path):
    with pytest.raises(ConfigurationError):
        emit_plotdata(str(tmp_path / "nope.csv"), str(tmp_path / "plots"))
    assert run_cli(["plotdata", str(tmp_path / "nope.csv")]) == 2


def test_solve_with_schedules_writes_diagonal(tmp_path):
    out = tmp_path / "diag"
    code = run_cli(["solve", "--out", str(out), "--N", "1024",
                    "--delta-schedule", "0.1,0.05,0.025,0.0125,0.00625",
                    "--eps-schedule", "0.1,0.05,0.025,0.0125,0.00625"])
    assert code == 0
    header, data = read_csv(str(out / "diagonal.csv"))
    assert header == ["delta", "eps", "sup_potential", "step_distance"]
    assert data.shape[0] == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdicts"]["diagonal_converged"]


def test_family_run(tmp_path):
    out = tmp_path / "fam"
    assert run_cli(["family", "--out", str(out), "--recipe", "product",
                    "--base-count", "9", "--fiber-n", "257"]) == 0
    cert = json.loads((out / "positivity.json").read_text())
    assert cert["passed"]
    header, data = read_csv(str(out / "relative_potential.csv"))
    assert header[0] == "t" and len(header) == 10
    assert data.shape == (257, 10)
    ns_header, _ = read_csv(str(out / "ns_trace.csv"))
    assert ns_header == ["m", "j", "s", "neg_log_norm"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdicts"] == {"base_positivity": True,
                                    "section_norm_convexity": True}


def test_family_run_fails_on_a_failing_section_norm(tmp_path, monkeypatch):
    check = cli.family_mod.ns_convexity_check

    def fail_at_m2_j1(j, m, fam):
        cert = check(j, m, fam)
        return cert | {"passed": cert["passed"] and (j, m) != (1, 2)}

    monkeypatch.setattr(cli.family_mod, "ns_convexity_check", fail_at_m2_j1)
    out = tmp_path / "fam"
    assert run_cli(["family", "--out", str(out), "--recipe", "product",
                    "--base-count", "9", "--fiber-n", "257"]) == 1
    verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
    assert not verdicts.pop("section_norm_convexity")
    assert all(verdicts.values())


# ---------------------------------------------------------------------------
# every verdict can fail: exit 1, the verdict False in the manifest and named
# on stderr, every other verdict of the run True
# ---------------------------------------------------------------------------

def assert_only_failing(code, out, capsys, *names):
    assert code == 1
    err = capsys.readouterr().err
    verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
    for name in names:
        assert name in err
        assert verdicts.pop(name) is False
    assert verdicts and all(verdicts.values())


def test_ricci_too_few_steps_fails_convergence_verdicts(tmp_path, capsys):
    out = tmp_path / "ricci"
    code = run_cli(["ricci", "--p", "2", "--N", "257", "--m-max", "2",
                    "--out", str(out)])
    assert_only_failing(code, out, capsys, "converged", "fixed_point_residual_small")


def test_solve_mass_defect_fails_its_verdict(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(radialke.masolver.SolveReport, "mass_defect",
                        property(lambda self: 1.0))
    out = tmp_path / "solve"
    code = run_cli(["solve", "--N", "257", "--out", str(out)])
    assert_only_failing(code, out, capsys, "mass_defect_small")


def test_solve_closed_form_error_fails_its_verdict(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "closed_form_error", lambda solution, k: 1.0)
    out = tmp_path / "solve"
    code = run_cli(["solve", "--N", "257", "--out", str(out)])
    assert_only_failing(code, out, capsys, "closed_form_oracle")


def test_solve_unconverged_diagonal_fails_its_verdict(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(radialke.masolver.DiagonalResult, "converged",
                        property(lambda self: False))
    out = tmp_path / "diag"
    code = run_cli(["solve", "--N", "257", "--divisor-zero", "1/2", "--out", str(out),
                    "--delta-schedule", "0.1,0.05,0.025,0.0125,0.00625"])
    assert_only_failing(code, out, capsys, "diagonal_converged")


@pytest.mark.parametrize("check,key,verdict", [
    ("integral_chain_check", "holds", "chain_inequality"),
    ("convergence_check", "monotone", "distance_decreasing"),
])
def test_bergman_failing_certificate_fails_its_verdict(tmp_path, capsys, monkeypatch,
                                                       check, key, verdict):
    certify = getattr(radialke.bergman, check)
    monkeypatch.setattr(radialke.bergman, check,
                        lambda run, *args: certify(run, *args) | {key: False})
    out = tmp_path / "berg"
    code = run_cli(["bergman", "--N", "257", "--ell-max", "4", "--out", str(out)])
    assert_only_failing(code, out, capsys, verdict)


def test_bergman_route_disagreement_fails_its_verdict(tmp_path, capsys, monkeypatch):
    # without a divisor the two routes agree bit for bit; with one they
    # differ by rounding, which a zero tolerance refuses
    monkeypatch.setattr(radialke.bergman, "ROUTE_TOL", 0.0)
    out = tmp_path / "berg"
    code = run_cli(["bergman", "--N", "257", "--ell-max", "4", "--divisor-zero", "1/2",
                    "--out", str(out)])
    assert_only_failing(code, out, capsys, "route_agreement")


def test_family_failing_positivity_fails_its_verdict(tmp_path, capsys, monkeypatch):
    certify = radialke.family.base_positivity_check
    monkeypatch.setattr(radialke.family, "base_positivity_check",
                        lambda rel: certify(rel) | {"passed": False})
    out = tmp_path / "fam"
    code = run_cli(["family", "--recipe", "product", "--base-count", "9",
                    "--fiber-n", "257", "--out", str(out)])
    assert_only_failing(code, out, capsys, "base_positivity")


def test_family_precheck_failure_is_refused_before_output(tmp_path, capsys):
    out = tmp_path / "bad"
    code = run_cli(["family", "--out", str(out), "--recipe", "perturbed",
                    "--amplitude", "-0.05", "--base-count", "9",
                    "--fiber-n", "257"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "joint positivity" in err
    assert not out.exists()


def test_family_solve_failure_still_writes_manifest(tmp_path, monkeypatch):
    # a fiber tolerance below the rounding floor stalls the first fiber's
    # Newton solve after validation has passed
    monkeypatch.setattr(radialke.family, "FIBER_TOL", 1e-300)
    out = tmp_path / "bad"
    code = run_cli(["family", "--out", str(out), "--base-count", "9",
                    "--fiber-n", "257"])
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdicts"] == {}
    assert "fiber 0" in manifest["error"] and "stalled" in manifest["error"]


def test_no_partial_files_left(tmp_path):
    out = tmp_path / "solve"
    run_cli(["solve", "--out", str(out), "--N", "512"])
    leftovers = [p for p in os.listdir(out) if p.startswith(".tmp-")]
    assert leftovers == []


def test_suite_subset(tmp_path):
    out = tmp_path / "suite"
    code = run_cli(["suite", "--out", str(out), "--criteria", "4"])
    assert code == 0
    lines = (out / "criteria.csv").read_text().strip().splitlines()
    assert lines[0] == "criterion,name,passed"
    assert lines[1].startswith("4,") and lines[1].endswith(",1")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdicts"] == {"criterion_04": True}


def test_load_config_rejects_wrong_kind_key():
    with pytest.raises(ConfigurationError):
        load_config(None, {"ell_max": 10}, "solve")
