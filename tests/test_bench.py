"""The benchmark's tracing self-test, run as part of the suite."""
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_selftest_passes():
    # a traced function that is renamed, or wrapped and no longer called,
    # fails here rather than in the next benchmark run
    out = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.startswith("ok: ")
