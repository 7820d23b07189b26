"""The benchmark's two entry points, run as part of the suite.

A name the benchmark wraps or calls that is removed or renamed fails
here rather than in the next benchmark run.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _run_bench(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=300, cwd=BENCH, env=env)


def test_bench_selftest_passes():
    # a traced function that is renamed, or wrapped and no longer called
    out = _run_bench("selftest.py")
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.startswith("ok: ")


def test_bench_regime_child_gives_complete_rows():
    out = _run_bench("child.py", "regime", "--theta", "0.3")
    assert out.returncode == 0, out.stdout + out.stderr
    rows = json.loads(out.stdout.strip().splitlines()[-1])["rows"]
    assert sorted(rows, key=int) == ["4", "8", "16"]
    for M, row in rows.items():
        assert row["complete"] and row["tail"] <= 1e-8, M
        for key in ("center", "raw_center"):
            assert abs(complex(row[key][0] - 1.0, row[key][1])) < 1e-9, M
        assert len(row["certs"]) == 7
        assert all(math.isfinite(v) and v > 0.0
                   for v in (row["c_small"], row["c_large"], *row["certs"]))
