"""One step of a benchmark op, run in a fresh interpreter.

    python3 bench/child.py [--trace FILE] cli ARGS...
    python3 bench/child.py [--trace FILE] regime --theta THETA

``cli`` calls ``dfourier.cli.main(ARGS)`` and exits with its code.
``regime`` assembles the full-band factors at M = 4, 8, 16 and reduces
them to the acceptance fixture's regime scalars; its last stdout line is
one JSON object with the scalars and the two phase times.  With
``--trace`` the layer wrappers of ``spans.py`` are installed before any
pipeline call and the trace is written to FILE when the step ends.
``dfourier`` must be importable (the parent sets PYTHONPATH to src/).
"""
from __future__ import annotations

import json
import sys
import time

import spans

ETA = 0.3
REGIME_SCALES = (4, 8, 16)


def regime(theta: float) -> dict:
    """The criteria 5-6 fixture of tests/test_acceptance.py without M=32."""
    import math

    import numpy as np

    from dfourier import arith, bump, measure, profile

    prof = profile.power_law_profile(2.0, 1_000_000, q_min=2, theta=theta)
    kernel = bump.BumpSpec()
    rows = {}
    build_s = scalars_s = 0.0
    for M in REGIME_SCALES:
        t0 = time.perf_counter()
        fac = measure.gm_series(prof, kernel, ETA, M, 1e-8, 1 << 26)
        t1 = time.perf_counter()
        ser = fac.series
        L = ser.half_bandwidth
        c = ser.coeffs
        ls = np.arange(1, math.floor(3 * M ** (1 / ETA)) + 1)
        taus = np.array([arith.divisor_count(int(l)) for l in ls],
                        dtype=float)
        c_small = float(np.max(np.abs(c[L + ls]) * M
                               / (math.log(M) ** 5 * taus)))
        ll = np.arange(math.floor(M ** (1 / ETA)) + 1, L + 1)
        c_large = float(np.max(np.abs(c[L + ll])
                               * ll.astype(float) ** (ETA - 0.05)))
        data = measure._member_data(prof, prof.bucket(ETA, M).members)
        certs = [float(measure.envelope_tail(data, kernel, L << j))
                 * float(L << (j + 1)) ** (ETA - 0.05) for j in range(7)]
        raw = complex(measure.assemble_line(data, kernel, 0, 0)[0])
        center = complex(ser.coeff(0))
        scalars_s += time.perf_counter() - t1
        build_s += t1 - t0
        rows[str(M)] = {
            "L": L, "complete": fac.complete, "tail": ser.tail_bound,
            "center": [center.real, center.imag],
            "raw_center": [raw.real, raw.imag],
            "c_small": c_small, "c_large": c_large, "certs": certs,
        }
        del c, ser, fac, ll, data
    return {"rows": rows, "build_s": build_s, "scalars_s": scalars_s}


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    tracer = None
    if trace_path is not None:
        tracer = spans.Tracer()
        spans.install(tracer)
    mode, args = argv[0], argv[1:]
    code = 0
    try:
        if mode == "cli":
            from dfourier.cli import main as cli_main
            code = cli_main(args)
        elif mode == "regime" and args[:1] == ["--theta"]:
            print(json.dumps(regime(float(args[1])), sort_keys=True))
        else:
            print(f"usage: child.py [--trace FILE] cli ARGS... | "
                  f"regime --theta THETA", file=sys.stderr)
            return 2
    finally:
        if tracer is not None:
            from dfourier.arith import factorize
            info = factorize.cache_info()
            tracer.dump(trace_path, {"factorize": [info.hits, info.misses]})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
