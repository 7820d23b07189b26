"""Self-test of the benchmark's tracing path; a few seconds, exit 0 on pass.

    python3 bench/selftest.py

Checks that installing the wrappers refuses a missing target, that a
name imported into another module is rebound there too, and that a
traced one-stage build -> analyze on a small profile gives every
per-layer metric that path exercises a nonzero value.
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run
import spans


def check_guard() -> None:
    for target in (("dfourier.measure", "no_such_function", spans.SPAN, None),
                   ("dfourier.bump", "BumpSpec.no_such_method", spans.LEAF,
                    None),
                   ("dfourier.no_such_module", "f", spans.SPAN, None)):
        try:
            spans.install(spans.Tracer(), targets=(target,))
        except RuntimeError:
            continue
        raise AssertionError(f"install accepted missing target {target}")


def traced_pipeline(trace_file: Path, work: Path) -> None:
    tracer = spans.Tracer()
    bound = spans.install(tracer)
    for name in ("dfourier.analyze.envelope_tail",
                 "dfourier.analyze.build_xi_grid",
                 "dfourier.cli.build_measure", "dfourier.measure.gm_series"):
        if name not in bound:
            raise AssertionError(f"{name} was not rebound")
    from dfourier import analyze, arith, measure, profile

    prof = profile.power_law_profile(2.0, 2000)
    stage = measure.build_measure(prof, eta=0.3, eps=0.05, stages=1,
                                  config=measure.BuildConfig(xi_max=4096))
    stage.save(work / "stage.bin")
    back = measure.MeasureStage.load(work / "stage.bin")
    analyze.decay_report(back)
    analyze.borel_cantelli_report(back, n_max=60)
    info = arith.factorize.cache_info()
    tracer.dump(str(trace_file), {"factorize": [info.hits, info.misses]})


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    check_guard()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        work = Path(tmp)
        trace_file = work / "trace.json"
        traced_pipeline(trace_file, work)
        metrics = run.layer_metrics([trace_file])
    zero = sorted(k for k, v in metrics.items() if not v)
    if zero:
        print(f"FAIL: per-layer metrics read zero: {zero}")
        return 1
    print(f"ok: {len(metrics)} per-layer metrics, all nonzero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
