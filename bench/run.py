"""Benchmark of the dfourier build -> analyze pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src/`` and every file is written under ``bench/out/``.

Workloads (one closed-loop client, one op at a time, ``workers = 1``):

* ``reference``: ``dfourier build --config configs/reference.json`` (exit 4,
  a one-stage partial artifact), then ``dfourier analyze`` on it.  Gap
  probes and the overflowing band search dominate; analysis is light.
* ``regime``: ``gm_series`` at M = 4, 8, 16 with full certified bands,
  then the acceptance fixture's regime scalars, in one library process.
  Long kernel vectors, no probes, no FFT convolutions, no analysis.

Seed 0 runs ``configs/reference.json`` verbatim (theta = 0.3); any other
seed takes theta from ``THETAS``, which changes the numbers but not the
amount of work.  Every op is checked (exit codes, byte-identical
outputs across repeats, nu_hat(0) = 1, direct Z = series Z, the regime
normalization, and on seed 0 the constants the tests freeze); an op that
fails a check counts in ``failed``.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates plain and traced ops (see ``spans.py``) and
reports per-layer metrics, plus the tracing overhead.  The workload and
metric names and units are read from ``BENCHMARK.json``; a listed metric
that a run does not produce is an error.  The last stdout line is the
result object; the line before it holds the details (provenance, per-op
records, output digests), which are also written to
``bench/out/<workload>-seed<N>-trace<T>/result.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "reference.json"
OUT = BENCH / "out"
PY = sys.executable

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0        # every child is killed before the run hits 180 s

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# reference steps: expected exit code (4: a partial artifact) and the
# end-to-end metric that takes the step's wall time
CLI_STEPS = {"build": (4, "build_s"), "analyze": (0, "post_build_s")}
OUTPUT_FILES = ("stage.bin", "build_log.json", "decay_report.json",
                "upper_report.json")

# seed-0 values of the reference flow frozen in tests/ (test_measure,
# test_analyze, test_cli) as (value, relative tolerance); the slope is
# recorded, not gated
FROZEN = {"normalization": (0.7878842692743078, 1e-12),
          "c_stab": (3.451512863852634, 1e-12),
          "floor": (2.5295283055197997e-08, 1e-9),
          "constant": (1.5198404062239201, 1e-12)}
FROZEN_SLOPE = -1.8231030964255324

# Shifts for nonzero seeds.  The reference build's stage-2 scale search
# stops at the first scale whose gap clears the threshold, so theta
# decides how many scales it probes: 5 (scale 256 clears) for most
# thetas, 6 for about one in eight, and the 512 probe nearly doubles the
# build.  Each theta below probes the same 5 scales as theta = 0.3, with
# the gap at 128 at least 1.25 times the threshold and the gap at 256 at
# most 0.8 times it, and assembles the same 485,767 coefficients.  Thetas
# above 0.9 are left out: their analysis evaluates the bump up to 10%
# more often.
THETAS = (0.0123, 0.1068, 0.1344, 0.1813, 0.2099, 0.2267, 0.259, 0.3238,
          0.3615, 0.4524, 0.4746, 0.522, 0.5481, 0.6395, 0.6771, 0.7933)


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_proc(argv: list[str], log: Path, deadline: float) -> dict:
    """Run one process to its exit; wall time, exit code, peak RSS."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - time.perf_counter()),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4
    return {"wall_s": wall, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0}


def setup_time(run_dir: Path, deadline: float) -> float:
    """Median wall time of a fresh interpreter importing dfourier.cli."""
    times = []
    for i in range(SETUP_REPEATS):
        rec = run_proc([PY, "-c", "import dfourier.cli"],
                       run_dir / f"setup{i}.log", deadline)
        if rec["code"] != 0:
            raise SystemExit(f"error: importing dfourier.cli failed, see "
                             f"{run_dir / f'setup{i}.log'}")
        times.append(rec["wall_s"])
    return statistics.median(times)


# ----------------------------------------------------------------------
# ops
# ----------------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def close(value: float, want: float, rel: float) -> bool:
    return abs(value - want) <= rel * abs(want)


def cli_op(config: Path, seed: int, op_dir: Path, trace: bool,
           deadline: float) -> dict:
    steps = {
        "build": ["build", "--config", str(config), "--output-dir",
                  str(op_dir)],
        "analyze": ["analyze", str(op_dir / "stage.bin"), "--config",
                    str(config), "--output-dir", str(op_dir)],
    }
    op = {"traced": trace, "errors": [], "traces": []}
    t0 = time.perf_counter()
    for name, args in steps.items():
        want, metric = CLI_STEPS[name]
        if trace:
            tfile = op_dir / f"{name}.trace.json"
            argv = [PY, str(BENCH / "child.py"), "--trace", str(tfile),
                    "cli", *args]
            op["traces"].append(tfile)
        else:
            argv = [PY, "-m", "dfourier.cli", *args]
        rec = run_proc(argv, op_dir / f"{name}.log", deadline)
        op[metric] = rec["wall_s"]
        op[f"{name}_rss_mb"] = rec["rss_mb"]
        if rec["code"] != want:
            op["errors"].append(f"{name} exited {rec['code']}, want {want}")
            break
    op["total_s"] = time.perf_counter() - t0
    op["peak_rss_mb"] = max(op.get("build_rss_mb", 0.0),
                            op.get("analyze_rss_mb", 0.0))
    if op["errors"]:
        return op
    try:
        op["digests"] = {f: sha256(op_dir / f) for f in OUTPUT_FILES}
        log = json.loads((op_dir / "build_log.json").read_text())
        decay = json.loads((op_dir / "decay_report.json").read_text())
        upper = json.loads((op_dir / "upper_report.json").read_text())
        check_reports(seed, log, decay, upper, op)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op["errors"].append(f"unreadable output: {exc!r}")
    return op


def check_reports(seed: int, log: dict, decay: dict, upper: dict,
                  op: dict) -> None:
    if abs(decay["nu_hat_zero"] - 1.0) > 1e-12:
        op["errors"].append(f"nu_hat(0) = {decay['nu_hat_zero']!r}")
    if abs(upper["z_direct"] - log["normalization"]) > 1e-9:
        op["errors"].append(f"z_direct {upper['z_direct']!r} != "
                            f"normalization {log['normalization']!r}")
    if seed == 0:
        got = {"normalization": log["normalization"], "c_stab": log["c_stab"],
               "floor": decay["pointwise_error_bound"],
               "constant": upper["constant"]}
        for key, (want, rel) in FROZEN.items():
            if not close(got[key], want, rel):
                op["errors"].append(f"{key} = {got[key]!r}, frozen {want!r}")
    op["certificates"] = certificates(seed, decay)


def certificates(seed: int, decay: dict) -> dict:
    """Recorded, never gated: a speed change that moves one stays visible."""
    drift = (abs(decay["fitted_slope"] - FROZEN_SLOPE) / abs(FROZEN_SLOPE)
             if seed == 0 else 0.0)
    return {"analyze.certified_floor": decay["pointwise_error_bound"],
            "analyze.certified_bands": sum(b["certified"]
                                           for b in decay["bands"]),
            "analyze.slope_drift_rel": drift}


def regime_op(theta: float, op_dir: Path, trace: bool,
              deadline: float) -> dict:
    argv = [PY, str(BENCH / "child.py")]
    op = {"traced": trace, "errors": [], "traces": []}
    if trace:
        tfile = op_dir / "regime.trace.json"
        argv += ["--trace", str(tfile)]
        op["traces"].append(tfile)
    log = op_dir / "regime.log"
    rec = run_proc(argv + ["regime", "--theta", repr(theta)], log, deadline)
    op.update(total_s=rec["wall_s"], peak_rss_mb=rec["rss_mb"])
    if rec["code"] != 0:
        op["errors"].append(f"regime exited {rec['code']}, want 0")
        return op
    try:
        res = json.loads(log.read_text().strip().splitlines()[-1])
        check_regime(res, op)
    except (OSError, ValueError, IndexError, KeyError, TypeError) as exc:
        op["errors"].append(f"unreadable regime output: {exc!r}")
    return op


def check_regime(res: dict, op: dict) -> None:
    op.update(build_s=res["build_s"], post_build_s=res["scalars_s"])
    rows = res["rows"]
    op["digests"] = {"regime_rows": hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()}
    for M, row in rows.items():
        if not row["complete"] or row["tail"] > 1e-8:
            op["errors"].append(f"M={M}: band incomplete, tail "
                                f"{row['tail']!r}")
        for key in ("center", "raw_center"):
            re_, im = row[key]
            if abs(complex(re_ - 1.0, im)) >= 1e-9:
                op["errors"].append(f"M={M}: |{key} - 1| >= 1e-9")
    op["certificates"] = {"analyze.certified_floor": 0.0,
                          "analyze.certified_bands": 0,
                          "analyze.slope_drift_rel": 0.0}


# ----------------------------------------------------------------------
# traces -> per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(trace_files: list[Path]) -> dict:
    """Per-layer metrics of one traced op (all its processes merged)."""
    inc, own = defaultdict(float), defaultdict(float)
    calls, items, returned = Counter(), Counter(), Counter()
    leaves = defaultdict(lambda: [0, 0.0, 0])
    hits = misses = 0
    z_in_mass = 0.0
    for path in trace_files:
        tr = json.loads(path.read_text())
        spans = tr["spans"]
        for name, t0, t1, parent, child, n, ok in spans:
            inc[name] += t1 - t0
            own[name] += t1 - t0 - child
            calls[name] += 1
            items[name] += n
            returned[name] += ok
            if name == "analyze.z":
                p = parent
                while p >= 0 and spans[p][0] != "analyze.measure_of_intervals":
                    p = spans[p][3]
                if p >= 0:
                    z_in_mass += t1 - t0
        for name, (c, s, n) in tr["leaves"].items():
            leaves[name][0] += c
            leaves[name][1] += s
            leaves[name][2] += n
        hits += tr["factorize"][0]
        misses += tr["factorize"][1]

    def ratio(a, b):
        return a / b if b else 0.0

    probes = calls["measure.stability_gap"]
    return {
        "profile.bucket_s": inc["profile.bucket"],
        "profile.bucket_calls": calls["profile.bucket"],
        "measure.assemble_line_s": inc["measure.assemble_line"],
        "measure.coeffs_assembled": items["measure.assemble_line"],
        "measure.coeffs_per_s": ratio(items["measure.assemble_line"],
                                      inc["measure.assemble_line"]),
        "bump.fourier_s": leaves["bump.fourier"][1],
        "bump.fourier_evals": leaves["bump.fourier"][2],
        "measure.stability_gap_s": own["measure.stability_gap"],
        "measure.gap_probes": probes,
        "measure.probe_accept_ratio": ratio(
            returned["measure.select_next_scale"], probes),
        "measure.certify_band_s": inc["measure.certified_half_bandwidth"],
        "measure.envelope_tail_calls": calls["measure.envelope_tail"],
        "series.multiply_s": inc["series.series_multiply"],
        "series.product_coeffs": items["series.series_multiply"],
        "measure.build_self_s": own["measure.build_measure"],
        "measure.save_s": inc["measure.save"],
        "measure.load_s": inc["measure.load"],
        "measure.artifact_bytes": items["measure.save"],
        "analyze.transform_samples_s": inc["analyze.transform_samples"],
        "analyze.grid_points": items["analyze.transform_samples"],
        "analyze.error_bound_s": inc["analyze.pointwise_error_bound"],
        "analyze.direct_z_s": inc["analyze.z"],
        "analyze.interval_mass_s": (inc["analyze.measure_of_intervals"]
                                    - z_in_mass),
        "analyze.intervals": items["analyze.measure_of_intervals"],
        "bump.value_s": leaves["bump.value"][1],
        "bump.value_evals": leaves["bump.value"][2],
        "arith.residue_set_calls": leaves["arith.residue_set"][0],
        "arith.factorize_hit_ratio": ratio(hits, hits + misses),
    }


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((SRC / "dfourier").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "mem_total_mb": (os.sysconf("SC_PAGE_SIZE")
                         * os.sysconf("SC_PHYS_PAGES")) // (1 << 20),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
        "src_lines": src_lines,
    }


def source_key() -> str:
    """Digest of everything that decides the outputs of an op."""
    h = hashlib.sha256()
    files = sorted([*(SRC / "dfourier").glob("*.py"), CONFIG,
                    *BENCH.glob("*.py")])
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def theta_for(seed: int) -> float:
    return 0.3 if seed == 0 else THETAS[(seed - 1) % len(THETAS)]


def run_config(seed: int, theta: float, run_dir: Path) -> Path:
    if seed == 0:
        return CONFIG
    cfg = json.loads(CONFIG.read_text())
    cfg["profile"]["theta"] = {"kind": "constant", "value": theta}
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def check_repeats(ops: list[dict], store: Path) -> None:
    """Outputs of one seed must be byte-identical across all repeats,
    including earlier runs of the same sources in this checkout."""
    done = [op for op in ops if "digests" in op and not op["errors"]]
    if not done:
        return
    want = (json.loads(store.read_text()) if store.exists()
            else done[0]["digests"])
    for op in done:
        if op["digests"] != want:
            op["errors"].append("outputs differ from an earlier repeat")
    if not store.exists():
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(want, sort_keys=True))


def run_ops(args, run_dir: Path, config: Path, theta: float,
            deadline: float) -> list[dict]:
    """Ops back to back until the next one would end past ``seconds``.

    A traced run alternates plain and traced ops and holds at least one
    of each.
    """
    ops: list[dict] = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        op_dir = run_dir / f"op{len(ops)}"
        op_dir.mkdir()
        if args.workload == "regime":
            ops.append(regime_op(theta, op_dir, traced, deadline))
        else:
            ops.append(cli_op(config, args.seed, op_dir, traced,
                              deadline))
        typical = statistics.median(o["total_s"] for o in ops)
        if args.trace and len(ops) < 2:
            continue
        now = time.perf_counter()
        if now - t0 + typical > args.seconds or now + typical > deadline:
            return ops


def summarise(args, ops: list[dict], setup_s: float | None,
              prov: dict) -> dict:
    """Metric values of the run: medians over its checked ops.  A value
    that no op produced is left out, and ``main`` reports it."""
    def med(key, subset):
        have = [o[key] for o in subset if key in o]
        return statistics.median(have) if have else None

    # a failed op's time says nothing about a checked result; fall back
    # to all ops only when none passed, and then correct is false anyway
    plain = [o for o in ops if not o["traced"]]
    plain = [o for o in plain if not o["errors"]] or plain
    if not args.trace:
        values = {k: med(k, plain) for k in ("total_s", "build_s",
                                              "post_build_s", "peak_rss_mb")}
        values["setup_s"] = setup_s
    else:
        traced = [o for o in ops if o["traced"]]
        traced = [o for o in traced if not o["errors"]] or traced
        per_op = [{**layer_metrics(o["traces"]), **o["certificates"]}
                  for o in traced if not o["errors"]]
        values = ({k: statistics.median(p[k] for p in per_op)
                   for k in per_op[0]} if per_op else {})
        traced_s, plain_s = med("total_s", traced), med("total_s", plain)
        if traced_s is not None and plain_s is not None:
            values["trace.overhead_s"] = prov["tracing_overhead_s"] = (
                traced_s - plain_s)
    return {k: v for k, v in values.items() if v is not None}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S

    missing = [str(p.relative_to(ROOT)) for p in (SRC / "dfourier" / "cli.py",
                                                   CONFIG) if not p.exists()]
    if missing:
        print(f"error: not a dfourier checkout, missing {missing}",
              file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    theta = theta_for(args.seed)
    config = run_config(args.seed, theta, run_dir)
    setup_s = None if args.trace else setup_time(run_dir, deadline)
    ops = run_ops(args, run_dir, config, theta, deadline)
    check_repeats(ops, OUT / "digests" / f"{source_key()}-{args.workload}"
                  f"-seed{args.seed}.json")

    prov = {**provenance(), "tracing_overhead_s": None}
    values = summarise(args, ops, setup_s, prov)
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    failed = sum(bool(o["errors"]) for o in ops)
    missing = [m["name"] for m in listed if m["name"] not in values]
    result = {"correct": failed == 0, "attempted": len(ops),
              "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]}
                          for m in listed if m["name"] in values}}
    for i, o in enumerate(ops):
        o["traces"] = [str(p.relative_to(ROOT)) for p in o["traces"]]
        if not o["errors"]:        # keep a failing op's artifact to inspect
            (run_dir / f"op{i}" / "stage.bin").unlink(missing_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "theta": theta,
              "trace": args.trace, "provenance": prov, "ops": ops,
              "wall_s": time.perf_counter() - t_start}
    (run_dir / "result.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    print(json.dumps(detail, sort_keys=True))
    if missing:
        print(f"error: no value for the listed metrics {missing}; see "
              f"{(run_dir / 'result.json').relative_to(ROOT)}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
