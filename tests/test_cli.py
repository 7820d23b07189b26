"""End-to-end command line checks driven through main()."""
import argparse
import ast
import io
import json
import os
import re
import struct
import subprocess
import sys
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dfourier import MeasureStage, ramanujan_sum
from dfourier.cli import (_CONFIG_KEYS, EXIT_BUDGET, EXIT_OK, EXIT_USAGE,
                          EXIT_WINDOW, RunConfig, _add_config_flags, main)
from dfourier.errors import ProfileError

REFERENCE_CONFIG = str(Path(__file__).resolve().parent.parent
                       / "configs" / "reference.json")


def tiny_profile(q_max, **parts):
    return {
        "window": [2, q_max],
        "psi": {"kind": "power_law", "tau": 2.0},
        "theta": {"kind": "constant", "value": 0.3},
        "coprime": {"kind": "classical"},
        "q_member": {"kind": "all"},
        **parts,
    }


def tiny_config(tmp_path, q_max, name="tiny.json", **extra):
    data = {
        "profile": tiny_profile(q_max),
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


def test_ramanujan_beyond_factor_limit_is_usage_error(capsys):
    assert main(["ramanujan", "10000000000000", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "refusing to factor" in captured.err
    assert captured.out == ""


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


def _printed(capsys, argv):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.mark.parametrize("argv, reduced", [
    (["residues", "10", "1", str(10**20 - 1)], ["residues", "10", "1", "9"]),
    (["ramanujan", "10", "3", "1", str(10**20 - 1), "--method", "brute"],
     ["ramanujan", "10", "3", "1", "9", "--method", "brute"]),
    (["ramanujan", "10", str(10**400), "0", "1"],
     ["ramanujan", "10", "0", "0", "1"]),
], ids=["residues-b", "ramanujan-b", "ramanujan-k"])
def test_big_integers_print_what_their_residues_print(capsys, argv, reduced):
    # admissibility and S(q, k) depend on a, b and k mod q only
    out = _printed(capsys, argv).splitlines()
    want = _printed(capsys, reduced).splitlines()
    if argv[0] == "residues":       # the header echoes the arguments
        assert out[0] == "I_10(1,99999999999999999999) = {0, 2, 4, 8}"
        out, want = out[1:], want[1:]
    assert out == want


_BIG = st.integers(-10**30, 10**30)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 2000), k=_BIG, a=_BIG, b=_BIG)
def test_arithmetic_subcommands_never_trace_back(q, k, a, b):
    # any integers: exit 0, or exit 2 with one error line, never a
    # traceback; residues then prints enumerated = formula
    for argv in (["residues", str(q), str(a), str(b)],
                 ["ramanujan", str(q), str(k), str(a), str(b),
                  "--method", "both"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        if rc == EXIT_USAGE:
            assert err.getvalue().startswith("error: ")
            assert len(err.getvalue().splitlines()) == 1
            continue
        assert rc == EXIT_OK and err.getvalue() == ""
        if argv[0] == "residues":
            counts = re.findall(r"(?:enumerated|formula) += (\d+)",
                                out.getvalue())
            assert len(counts) == 2 and counts[0] == counts[1]


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


@pytest.mark.parametrize("k_range", ["x:3", "3:99999999"])
def test_buckets_bad_k_range_is_usage_error(tmp_path, capsys, k_range):
    # a malformed range, or one whose scales 2**k overflow a float
    cfg = tiny_config(tmp_path, 50)
    assert main(["buckets", "--config", cfg, "--k-range", k_range]) \
        == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--k-range" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["buckets", "build"])
def test_out_of_memory_is_usage_error(tmp_path, capsys, command):
    # a whole window of 2**62 denominators asks for exbibytes, more than
    # the address space, so the allocation fails at once: the buckets
    # table labels the whole window, and a build labels as far as its
    # first probe reaches, which for table radii at eta = 0.01 is
    # 2**((k + 1)/eta - 1), past the window's end
    if command == "buckets":
        part = {"q_member": {"kind": "residue_classes", "modulus": 7,
                             "classes": [1, 3]}}
        eta = 0.3
    else:
        part = {"psi": {"kind": "table", "values": {"3": 0.01}}}
        eta = 0.01
    cfg = tiny_config(tmp_path, 2**62, stages=1, eta=eta,
                      profile=tiny_profile(2**62, **part))
    assert main([command, "--config", cfg,
                 "--output-dir", str(tmp_path / "o")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # table radii take the empirical exponent s, whose warnings come first
    *warnings, last = err.splitlines()
    assert last.startswith("error: out of memory")
    assert all(w.startswith("warning: ") for w in warnings)
    assert len(warnings) == (2 if command == "build" else 0)


def test_power_law_window_of_2_62_builds(tmp_path, capsys):
    # power-law buckets have a closed-form edge: the build labels only
    # as far as its probes reach, so the 2**62 window builds
    out_dir = tmp_path / "o"
    cfg = tiny_config(tmp_path, 2**62, stages=1, xi_max=4096)
    assert main(["build", "--config", cfg,
                 "--output-dir", str(out_dir)]) == EXIT_OK
    assert "stage 1: scale M=4 accepted" in capsys.readouterr().out
    assert MeasureStage.load(out_dir / "stage.bin").profile.q_max == 2**62


@pytest.mark.parametrize("command", ["buckets", "build"])
def test_tiny_eta_leaves_no_scale(tmp_path, capsys, command):
    # at eta = 1e-13 every u = eta log2(q/psi) lies within the 1e-12 snap
    # of 0; the labeller keeps such q in bucket 0 (M = 1), so no scale
    # M >= 2 holds a member
    out_dir = tmp_path / "o"
    assert main([command, "--config", REFERENCE_CONFIG, "--eta", "1e-13",
                 "--output-dir", str(out_dir)]) == EXIT_WINDOW
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    if command == "build":
        assert captured.err == ("error: the window holds no admissible "
                                "scale past M = 0\n")
        assert "stage 1: not completed (no admissible scale to probe)" \
            in captured.out
        assert MeasureStage.load(out_dir / "stage.bin").stages == 0
    else:
        assert captured.out == ""


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


@pytest.mark.parametrize("eps", ["nan", "-1.0", "inf"])
def test_build_bad_eps_is_usage_error(tmp_path, capsys, eps):
    out_dir = tmp_path / "e"
    assert main(["build", "--config", REFERENCE_CONFIG, "--stages", "1",
                 "--eps", eps, "--output-dir", str(out_dir)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "config key eps must be a finite number > 0" in captured.err
    assert "Traceback" not in captured.err
    assert not out_dir.exists()


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
    assert "(largest scale tried: 16, gap " in captured.err
    assert "stage 2: not completed (1 probed, last scale M=16" in captured.out
    log = json.loads((tmp_path / "t50" / "build_log.json").read_text())
    assert log["status"] == "window-exhausted"
    assert log["scales"] == [4]


def test_build_window_exhausted_without_candidates(tmp_path, capsys):
    cfg = tiny_config(tmp_path, 12, output_dir=str(tmp_path / "t12"))
    assert main(["build", "--config", cfg]) == EXIT_WINDOW
    captured = capsys.readouterr()
    assert "stage 2: not completed (no admissible scale to probe)" in captured.out
    # no probe ran, so the stability threshold has nothing to say
    assert captured.err == ("error: the window holds no admissible scale "
                            "past M = 8\n")
    partial = MeasureStage.load(tmp_path / "t12" / "stage.bin")
    assert partial.scales == (4,)


# ----------------------------------------------------------------------
# analyze and config plumbing
# ----------------------------------------------------------------------

def test_analyze_missing_stage_file(tmp_path, capsys):
    assert main(["analyze", "/nonexistent/stage.bin"]) == EXIT_USAGE
    assert "not found" in capsys.readouterr().err
    # a directory in its place is a usage error too, not a traceback
    assert main(["analyze", str(tmp_path)]) == EXIT_USAGE
    assert "Is a directory" in capsys.readouterr().err


def _rewrite_header(raw, edit):
    """The artifact ``raw`` with ``edit`` applied to its header, the
    checksum resealed so that the edit alone decides the outcome."""
    hlen = struct.unpack_from("<Q", raw, 4)[0]
    header = json.loads(raw[12:12 + hlen])
    edit(header)
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = raw[:4] + struct.pack("<Q", len(new)) + new + raw[12 + hlen:-4]
    return body + zlib.crc32(body).to_bytes(4, "little")


def test_analyze_corrupt_artifact_is_usage_error(st1, tmp_path, capsys):
    good = tmp_path / "stage.bin"
    st1.save(good)
    raw = good.read_bytes()
    header_flip = bytearray(raw)
    header_flip[20] ^= 0xFF
    assert _rewrite_header(raw, lambda header: None) == raw
    value_flip = bytearray(raw)
    value_flip[-10] ^= 0x01
    # c(0) of the half block with a nonzero imaginary part, resealed
    c0 = 12 + struct.unpack_from("<Q", raw, 4)[0]
    skew = raw[:c0 + 8] + struct.pack("<d", 1e-3) + raw[c0 + 16:-4]
    skew += zlib.crc32(skew).to_bytes(4, "little")
    cases = {
        "random.bin": bytes(range(256)) * 16,
        "cut.bin": raw[:-100],
        "trailing.bin": raw + b"abc",
        "header.bin": bytes(header_flip),
        "value.bin": bytes(value_flip),
        # a missing config key must not take its default
        "lost_key.bin": _rewrite_header(
            raw, lambda h: h["config"].pop("band_margin")),
        "extra_key.bin": _rewrite_header(
            raw, lambda h: h["config"].update(workers=1)),
        # a format-1 header (the two-block layout before the checksum)
        "v1.bin": _rewrite_header(raw, lambda h: h.update(format=1)),
        # a format-2 header (both halves of the block)
        "v2.bin": _rewrite_header(raw, lambda h: h.update(format=2)),
        # a format-3 header (the kernel recorded in the build config)
        "v3.bin": _rewrite_header(raw, lambda h: h.update(
            format=3, config={**h["config"],
                              "bump": {"shrink": 0.99, "smoothness": 10}})),
        "skew.bin": skew,
        # a build value the builder would reject, read back from a header
        "halfwidth0.bin": _rewrite_header(
            raw, lambda h: h["config"].update(kernel_halfwidth=0)),
    }
    reasons = {"value.bin": "checksum mismatch",
               "lost_key.bin": "header config keys differ",
               "extra_key.bin": "header config keys differ",
               "v1.bin": "artifact format 1 is not 4; rebuild the stage",
               "v2.bin": "artifact format 2 is not 4; rebuild the stage",
               "v3.bin": "artifact format 3 is not 4; rebuild the stage",
               "skew.bin": "gfactors: c(0) = ",
               "halfwidth0.bin": "kernel_halfwidth"}
    for name, blob in cases.items():
        path = tmp_path / name
        path.write_bytes(blob)
        assert main(["analyze", str(path),
                     "--output-dir", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt artifact {path}: "), err
        assert reasons.get(name, "") in err, err
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


def test_analyze_reads_build_keys_from_the_artifact(tmp_path, capsys):
    # one artifact, one report: analyze samples on the grid the artifact
    # was built for, whatever build keys its own config carries
    data = json.loads(Path(REFERENCE_CONFIG).read_text())
    data.update(xi_max=4096, stages=1, output_dir=str(tmp_path / "b"))
    build_cfg = tmp_path / "build.json"
    build_cfg.write_text(json.dumps(data))
    assert main(["build", "--config", str(build_cfg)]) == EXIT_OK
    stage_file = str(tmp_path / "b" / "stage.bin")
    ways = {"none": [], "build": ["--config", str(build_cfg)],
            "other": ["--xi-max", "1000", "--samples-per-band", "8"]}
    reports = set()
    for name, extra in ways.items():
        out_dir = tmp_path / name
        assert main(["analyze", stage_file, *extra, "--output-dir",
                     str(out_dir), "--upper-q-max", "50"]) == EXIT_OK
        reports.add((out_dir / "decay_report.json").read_bytes())
    assert len(reports) == 1
    # the config's build keys are still checked
    capsys.readouterr()
    assert main(["analyze", stage_file, "--xi-max", "1000.3",
                 "--output-dir", str(tmp_path / "bad")]) == EXIT_USAGE
    assert "xi_max" in capsys.readouterr().err


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
    ("xi_max", "4096.7", "flag"),
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
    # malformed profile descriptors
    ("profile", 5, "file"),
    ("profile", tiny_profile(50, window=["a", 5]), "file"),
    ("profile", tiny_profile(50, window=[2.5, 1000]), "file"),
    ("profile", tiny_profile(50, psi={"kind": "power_law", "tau": "x"}),
     "file"),
    ("profile", tiny_profile(50, coprime={"kind": "table",
                                          "pairs": {"7": [1]}}), "file"),
    ("profile", tiny_profile(50, q_member={"kind": "list", "values": ["z"]}),
     "file"),
    ("profile", tiny_profile(50, q_member={"kind": "list",
                                           "values": [3.7, 7]}), "file"),
    ("profile", tiny_profile(50, coprime={"kind": "table",
                                          "pairs": {"3": [1.9, 2]}}), "file"),
]


def _case_id(key, value, via):
    if isinstance(value, dict):         # name the one malformed part
        part = next(k for k, v in value.items() if v != tiny_profile(50)[k])
        return f"{via}-{key}.{part}={value[part]}"
    return f"{via}-{key}={value}"


@pytest.mark.parametrize("key, value, via", BAD_RUN_CONFIGS,
                         ids=[_case_id(*case) for case in BAD_RUN_CONFIGS])
def test_bad_run_config_is_usage_error(tmp_path, capsys, key, value, via):
    # each must end in exit 2, not a traceback or a build on a vacuous grid
    flags = [f"--{key.replace('_', '-')}", value] if via == "flag" else []
    cfg = tiny_config(tmp_path, 50, **({key: value} if via == "file" else {}))
    assert main(["buckets", "--config", cfg, *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert key in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [("tail_tol", "1e-300"),
                                        ("xi_max", "67108864")])
def test_unreachable_build_key_is_usage_error(tmp_path, capsys, key, value):
    # the window tail cannot reach 1e-300 within 10**6 frequencies, and
    # the probe lines of xi_max = 2**26 would pass the exact phase tables:
    # both stop before any table or artifact is made
    out_dir = tmp_path / "out"
    assert main(["build", "--config", REFERENCE_CONFIG,
                 f"--{key.replace('_', '-')}", value,
                 "--output-dir", str(out_dir)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert key in captured.err
    assert "Traceback" not in captured.err
    assert not out_dir.exists()


def test_config_validation_messages(tmp_path, capsys):
    cfg = tiny_config(tmp_path, 50, name="badfmt.json", format="yaml")
    assert main(["buckets", "--config", cfg]) == EXIT_USAGE
    assert "unknown output format" in capsys.readouterr().err
    cfg = tiny_config(tmp_path, 50, name="badeta.json", eta=1.2)
    assert main(["buckets", "--config", cfg]) == EXIT_USAGE
    assert "eta" in capsys.readouterr().err
    # the file must hold one JSON object ("ab" once read as keys a and b)
    for body in ("5", '"ab"', "[1]"):
        odd = tmp_path / "notobj.json"
        odd.write_text(body)
        assert main(["buckets", "--config", str(odd)]) == EXIT_USAGE
        assert "must hold a JSON object" in capsys.readouterr().err
    assert main(["buckets", "--config", str(tmp_path)]) == EXIT_USAGE
    assert "Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("eps", float("nan")),
                                        ("format", "yaml"), ("stages", -1),
                                        ("upper_q_max", 1), ("eta", 1.2)])
def test_run_config_checks_itself(key, value):
    # a library caller gets the same checks as a config file
    with pytest.raises(ProfileError, match=key):
        RunConfig(**{key: value})


def test_no_module_imports_a_private_name():
    # a name that another module needs is public in the module defining it
    src = Path(__file__).resolve().parent.parent / "src" / "dfourier"
    private = [(path.name, node.module, alias.name)
               for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# public names that no program module needs, each kept for a reason
_UNCALLED_EXPORTS = {
    # criterion 7's comparison of a decay report with the window-only one
    "compare_with_window_only",
    # criterion 8's witness scan over a grid, and its one-point form
    "support_witnesses",
    "support_witness_scan",
    # the upper report's own route for one modulus, not a second one
    "measure_of_Aq",
}


def test_every_export_has_a_program_caller():
    # a public name is read by the package, its CLI or the benchmark:
    # otherwise only the tests would keep it alive
    import dfourier
    repo = Path(__file__).resolve().parent.parent
    paths = [path for path in sorted((repo / "src" / "dfourier").glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((repo / "bench").glob("*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = set(dfourier.__all__) - used
    assert unused == _UNCALLED_EXPORTS


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
