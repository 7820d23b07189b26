"""End-to-end command line checks driven through main()."""
import argparse
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from dfourier import MeasureStage, ramanujan_sum
from dfourier.cli import (_CONFIG_KEYS, EXIT_BUDGET, EXIT_OK, EXIT_USAGE,
                          EXIT_WINDOW, _add_config_flags, main)

REFERENCE_CONFIG = str(Path(__file__).resolve().parent.parent
                       / "configs" / "reference.json")


def tiny_config(tmp_path, q_max, name="tiny.json", **extra):
    data = {
        "profile": {
            "window": [2, q_max],
            "psi": {"kind": "power_law", "tau": 2.0},
            "theta": {"kind": "constant", "value": 0.3},
            "coprime": {"kind": "classical"},
            "q_member": {"kind": "all"},
        },
        "eta": 0.3,
        "stages": 3,
    }
    data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ----------------------------------------------------------------------
# arithmetic subcommands
# ----------------------------------------------------------------------

def test_ramanujan_both_methods_agree(capsys):
    assert main(["ramanujan", "12", "3", "--method", "both"]) == EXIT_OK
    out = capsys.readouterr().out
    brute = float(re.search(r"brute\s+= (\S+)", out).group(1))
    div = float(re.search(r"divisor = (\S+)", out).group(1))
    diff = float(re.search(r"\|diff\|\s+= (\S+)", out).group(1))
    assert abs(brute - div) < 1e-9
    assert diff < 1e-9
    want = ramanujan_sum(12, 3)
    assert div == pytest.approx(want.real, abs=1e-9)


def test_ramanujan_defaults_to_divisor(capsys):
    assert main(["ramanujan", "5", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "divisor = " in out
    assert "brute" not in out


def test_ramanujan_usage_errors(capsys):
    assert main(["ramanujan", "12", "3", "2", "4"]) == EXIT_USAGE
    assert "coprime" in capsys.readouterr().err
    assert main(["ramanujan", "12", "3", "1", "0"]) == EXIT_USAGE
    assert main(["ramanujan", "0", "1"]) == EXIT_USAGE


def test_residues_enumeration_matches_formula(capsys):
    assert main(["residues", "12", "1", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    body = re.search(r"I_12\(1,2\) = \{(.*)\}", out).group(1)
    members = [int(p) for p in body.split(",")]
    enumerated = int(re.search(r"enumerated = (\d+)", out).group(1))
    formula = int(re.search(r"formula\s+= (\d+)", out).group(1))
    assert len(members) == enumerated == formula
    # members must satisfy the coprimality constraint gcd(2p + 1, 12) = 1
    import math
    assert all(math.gcd(2 * p + 1, 12) == 1 for p in members)


def test_residues_rejects_non_coprime_pair(capsys):
    assert main(["residues", "12", "2", "4"]) == EXIT_USAGE
    assert "coprime" in capsys.readouterr().err


# ----------------------------------------------------------------------
# bucket table
# ----------------------------------------------------------------------

def parse_bucket_rows(out):
    rows = {}
    for line in out.splitlines():
        m = re.match(r"\s*(\d+)\s+(\d+)\s+(\d+)\s+(\S+)\s+(yes|no)\s+(\S+)",
                     line)
        if m:
            rows[int(m.group(1))] = (int(m.group(2)), int(m.group(3)),
                                     m.group(5))
    return rows


def test_buckets_reference_table(capsys):
    assert main(["buckets", "--config", REFERENCE_CONFIG,
                 "--k-range", "1:8"]) == EXIT_OK
    rows = parse_bucket_rows(capsys.readouterr().out)
    counts = {1: 2, 2: 6, 3: 11, 4: 26, 5: 54, 6: 118, 7: 255, 8: 550}
    assert {k: rows[k][1] for k in counts} == counts
    assert rows[1][2] == "no"
    assert all(rows[k][2] == "yes" for k in range(2, 9))
    assert all(rows[k][0] == 1 << k for k in counts)


def test_buckets_csv_export(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    assert main(["buckets", "--config", REFERENCE_CONFIG,
                 "--k-range", "1:4", "--format", "csv",
                 "--output-dir", str(out_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    csv_path = out_dir / "buckets.csv"
    assert f"table written to {csv_path}" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,M,count,mass,qualifies,size_ratio"
    assert len(lines) == 5
    k, M, count, mass, qualifies, _ = lines[2].split(",")
    assert (k, M, count, qualifies) == ("2", "4", "6", "1")
    assert float(mass) == pytest.approx(1.0260406602206753, rel=1e-12)


def test_buckets_eta_override_changes_rows(capsys):
    assert main(["buckets", "--config", REFERENCE_CONFIG,
                 "--eta", "0.2", "--k-range", "2:2"]) == EXIT_OK
    rows = parse_bucket_rows(capsys.readouterr().out)
    # weights scale with eta, so the k = 2 bucket collects q in (10, 32]
    assert rows[2][1] == 22


def test_buckets_warns_when_eta_reaches_critical(capsys):
    assert main(["buckets", "--config", REFERENCE_CONFIG,
                 "--eta", "0.5", "--k-range", "1:2"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "not below the critical exponent" in err


def test_buckets_needs_profile(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["buckets", "--config", str(empty)]) == EXIT_USAGE
    assert "needs a profile" in capsys.readouterr().err


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------

def test_build_window_only(tmp_path, capsys):
    out_dir = tmp_path / "w"
    assert main(["build", "--config", REFERENCE_CONFIG, "--stages", "0",
                 "--output-dir", str(out_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "artifact (0 stages, Z = 1.0) written to" in out
    stage = MeasureStage.load(out_dir / "stage.bin")
    assert stage.scales == ()
    log = json.loads((out_dir / "build_log.json").read_text())
    assert log["status"] == "complete"
    assert log["error"] is None
    assert log["scales"] == []


def test_build_one_stage_then_analyze_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "b1"
    assert main(["build", "--config", REFERENCE_CONFIG, "--stages", "1",
                 "--output-dir", str(out_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert ("stage 1: scale M=4 accepted (gap 1.72576, threshold none, "
            "1 probed)") in out
    assert "artifact (1 stages, Z = 0.7878842692743078)" in out
    log = json.loads((out_dir / "build_log.json").read_text())
    assert log["c_stab"] == pytest.approx(3.451512863852634, rel=1e-12)
    assert log["scales"] == [4]
    assert log["factors"][0]["count"] == 6

    stage_file = str(out_dir / "stage.bin")
    reports = []
    for sub in ("a1", "a2"):
        rep_dir = tmp_path / sub
        assert main(["analyze", stage_file, "--config", REFERENCE_CONFIG,
                     "--output-dir", str(rep_dir),
                     "--upper-q-max", "120"]) == EXIT_OK
        reports.append(((rep_dir / "decay_report.json").read_bytes(),
                        (rep_dir / "upper_report.json").read_bytes()))
    # same artifact, same config: byte-identical reports
    assert reports[0] == reports[1]
    # the printed floats carry the same promises as the reports: total
    # mass 1 and the frozen slope, not their last bits
    out = capsys.readouterr().out
    nu0s = re.findall(r"^nu_hat\(0\) = (\S+)$", out, re.M)
    slopes = re.findall(r"^fitted_slope = (\S+) ", out, re.M)
    assert len(nu0s) == len(slopes) == 2
    for nu0, slope in zip(nu0s, slopes):
        assert float(nu0) == pytest.approx(1.0, abs=1e-12)
        assert float(slope) == pytest.approx(-1.8231030964255324, rel=1e-12)
    decay = json.loads(reports[0][0])
    assert decay["fitted_slope"] == pytest.approx(-1.8231030964255324,
                                                  rel=1e-12)
    assert decay["scales"] == [4]


def test_build_reference_overflows_budget(tmp_path, capsys):
    out_dir = tmp_path / "ref"
    rc = main(["build", "--config", REFERENCE_CONFIG,
               "--output-dir", str(out_dir)])
    assert rc == EXIT_BUDGET
    captured = capsys.readouterr()
    assert "need 74551825993 coefficients, cap 1048576" in captured.err
    assert "factor at scale 256" in captured.err
    assert "partial artifact (1 of 3 stages) written to" in captured.out
    partial = MeasureStage.load(out_dir / "stage.bin")
    assert partial.scales == (4,)
    assert partial.stages == 1
    assert partial.requested_stages == 3
    assert not partial.complete
    log = json.loads((out_dir / "build_log.json").read_text())
    assert log["status"] == "bandwidth-budget"
    assert "scale 256" in log["error"]
    # the failing stage's probe record is preserved
    assert [p["scale"] for p in log["per_stage"][1]] == [16, 32, 64, 128, 256]


def test_build_window_exhausted_after_probing(tmp_path, capsys):
    cfg = tiny_config(tmp_path, 50, output_dir=str(tmp_path / "t50"))
    assert main(["build", "--config", cfg]) == EXIT_WINDOW
    captured = capsys.readouterr()
    assert "no admissible scale satisfies the stability threshold" in captured.err
    assert "stage 2: not completed (1 probed, last scale M=16" in captured.out
    log = json.loads((tmp_path / "t50" / "build_log.json").read_text())
    assert log["status"] == "window-exhausted"
    assert log["scales"] == [4]


def test_build_window_exhausted_without_candidates(tmp_path, capsys):
    cfg = tiny_config(tmp_path, 12, output_dir=str(tmp_path / "t12"))
    assert main(["build", "--config", cfg]) == EXIT_WINDOW
    captured = capsys.readouterr()
    assert "stage 2: not completed (no admissible scale to probe)" in captured.out
    partial = MeasureStage.load(tmp_path / "t12" / "stage.bin")
    assert partial.scales == (4,)


# ----------------------------------------------------------------------
# analyze and config plumbing
# ----------------------------------------------------------------------

def test_analyze_missing_stage_file(capsys):
    assert main(["analyze", "/nonexistent/stage.bin"]) == EXIT_USAGE
    assert "not found" in capsys.readouterr().err


def _rewrite_config(raw, edit):
    """The artifact ``raw`` with ``edit`` applied to its header config."""
    hlen = struct.unpack_from("<Q", raw, 4)[0]
    header = json.loads(raw[12:12 + hlen])
    edit(header["config"])
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:4] + struct.pack("<Q", len(new)) + new + raw[12 + hlen:]


def test_analyze_corrupt_artifact_is_usage_error(st1, tmp_path, capsys):
    good = tmp_path / "stage.bin"
    st1.save(good)
    raw = good.read_bytes()
    header_flip = bytearray(raw)
    header_flip[20] ^= 0xFF
    assert _rewrite_config(raw, lambda cfg: None) == raw
    cases = {
        "random.bin": bytes(range(256)) * 16,
        "cut.bin": raw[:-100],
        "trailing.bin": raw + b"abc",
        "header.bin": bytes(header_flip),
        # a missing config key must not take its default
        "lost_key.bin": _rewrite_config(raw, lambda c: c.pop("band_margin")),
        "extra_key.bin": _rewrite_config(raw, lambda c: c.update(workers=1)),
        "lost_bump_key.bin": _rewrite_config(
            raw, lambda c: c["bump"].pop("shrink")),
    }
    for name, blob in cases.items():
        path = tmp_path / name
        path.write_bytes(blob)
        assert main(["analyze", str(path),
                     "--output-dir", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt artifact {path}: "), err
        assert "malformed config" not in err
    assert not (tmp_path / "out").exists()


def test_analyze_csv_format(st1, tmp_path, capsys):
    stage_file = tmp_path / "stage.bin"
    st1.save(stage_file)
    out_dir = tmp_path / "csv"
    assert main(["analyze", str(stage_file), "--format", "csv",
                 "--output-dir", str(out_dir),
                 "--upper-q-max", "50"]) == EXIT_OK
    out = capsys.readouterr().out
    bands = (out_dir / "decay_bands.csv").read_text().strip().splitlines()
    uppers = (out_dir / "upper_bounds.csv").read_text().strip().splitlines()
    assert bands[0].startswith("j,lo,hi")
    assert len(bands) == 17
    assert uppers[0].startswith("q,intervals")
    assert len(uppers) == 50  # q = 2..50 inclusive
    assert "reports written to" in out


def test_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["buckets", "--config", str(bad)]) == EXIT_USAGE
    assert "malformed config" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    # "seed" and "workers" were keys once; old configs must fail loudly
    for body in ('{"fruit": 1}', '{"seed": 0}', '{"workers": 1}'):
        odd = tmp_path / "odd.json"
        odd.write_text(body)
        assert main(["buckets", "--config", str(odd)]) == EXIT_USAGE
        assert "unknown config keys" in capsys.readouterr().err


def test_every_config_key_has_a_flag():
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    flags = set(vars(parser.parse_args([]))) - {"config"}
    assert flags == _CONFIG_KEYS - {"profile"}


BAD_RUN_CONFIGS = [
    # (key, value, given as a flag or in the config file)
    ("xi_max", "0.5", "flag"),
    ("kernel_halfwidth", "-3", "flag"),
    ("kernel_halfwidth", "0", "flag"),
    ("band_margin", "-100000", "flag"),
    ("samples_per_band", "0", "flag"),
    ("upper_q_max", "0", "flag"),
    ("bandwidth_budget", "0", "flag"),
    ("stages", "-1", "flag"),
    ("stages", "3", "file"),
    ("stages", 2.5, "file"),
    ("xi_max", "big", "file"),
    ("eps", float("nan"), "file"),
    ("tail_tol", 0.0, "file"),
]


@pytest.mark.parametrize("key, value, via", BAD_RUN_CONFIGS,
                         ids=[f"{v}-{k}={x}" for k, x, v in BAD_RUN_CONFIGS])
def test_bad_run_config_is_usage_error(tmp_path, capsys, key, value, via):
    # each must end in exit 2, not a traceback or a build on a vacuous grid
    flags = [f"--{key.replace('_', '-')}", value] if via == "flag" else []
    cfg = tiny_config(tmp_path, 50, **({key: value} if via == "file" else {}))
    assert main(["buckets", "--config", cfg, *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert key in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_config_validation_messages(tmp_path, capsys):
    cfg = tiny_config(tmp_path, 50, name="badfmt.json", format="yaml")
    assert main(["buckets", "--config", cfg]) == EXIT_USAGE
    assert "unknown output format" in capsys.readouterr().err
    cfg = tiny_config(tmp_path, 50, name="badeta.json", eta=1.2)
    assert main(["buckets", "--config", cfg]) == EXIT_USAGE
    assert "eta" in capsys.readouterr().err


def test_import_pulls_in_no_scipy():
    # numpy is the only runtime dependency
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, dfourier.cli; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
