import json
import os
import subprocess
import sys

import numpy as np
import pytest

import radialke
from radialke.cli import emit_plotdata, load_config, main
from radialke.conventions import CONVENTIONS_HASH
from radialke.errors import ConfigurationError
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
    ["solve", "--eps-schedule", "0.1,abc"],
    ["solve", "--eps-schedule", "0.1,nan"],
    ["solve", "--delta-schedule", "0.1,0.1"],
    ["solve", "--eps-schedule", "0.05,0.1"],
    ["suite", "--criteria", "1,x"],
    ["suite", "--criteria", "99"],
])
def test_bad_list_key_is_config_error(tmp_path, capsys, args):
    out = tmp_path / "x"
    assert run_cli(args + ["--out", str(out), "--N", "257"]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()  # rejected before any compute


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
                        "--N", "512", "--seed", "7"]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_ricci_trace_schema(tmp_path):
    out = tmp_path / "ricci"
    assert run_cli(["ricci", "--out", str(out), "--p", "3", "--N", "512"]) == 0
    header, data = read_csv(str(out / "trace.csv"))
    assert header == ["m", "gap", "ratio", "norm_integral", "residual"]
    assert np.all(np.diff(data[:, 0]) == 1)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_ratio"] <= 2.0 / 3.0 + 1e-3


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


def test_family_failure_still_writes_manifest(tmp_path):
    out = tmp_path / "bad"
    code = run_cli(["family", "--out", str(out), "--recipe", "perturbed",
                    "--amplitude", "-0.05", "--base-count", "9",
                    "--fiber-n", "257"])
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert "error" in manifest and "joint positivity" in manifest["error"]


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
