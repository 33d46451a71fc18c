"""compare.py refuses results from different kernel backends and flags a
median that got worse by more than the metric's bound."""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def result(tmp_path, name, backend, wall):
    path = tmp_path / name
    path.write_text(json.dumps({
        "provenance": {"kernel_backend": backend, "workload": "numeric", "python": "3.11.7",
                       "nproc": 2, "platform": "x"},
        "summary": {"setup_s": 0.1, "wall_s": wall, "peak_rss_mb": 20.0},
    }))
    return str(path)


def compare(*paths):
    return subprocess.run([sys.executable, os.path.join(BENCH, "compare.py"), *paths],
                          capture_output=True, text=True, timeout=60)


def test_refuses_mixed_backends(tmp_path):
    proc = compare(result(tmp_path, "a.json", "python", 2.0), "--",
                   result(tmp_path, "b.json", "compiled", 1.0))
    assert proc.returncode == 2 and "kernel_backend" in proc.stderr


def test_flags_regressions_beyond_the_bound(tmp_path):
    base = result(tmp_path, "a.json", "python", 2.0)
    assert compare(base, "--", result(tmp_path, "b.json", "python", 2.1)).returncode == 0
    proc = compare(base, "--", result(tmp_path, "c.json", "python", 3.0))
    assert proc.returncode == 1 and "WORSE beyond bound" in proc.stdout
