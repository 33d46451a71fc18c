"""The tracer links spans across the CLI's thread pool, splits time into self
times that add up, and reports renamed or removed layers as absent.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402

# Installs the tracer in a fresh interpreter, so wrapping never leaks into the
# test process, and prints what the assertions need.
PROBE = r"""
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import rootmean.cli as cli
import tracer
t = tracer.Tracer()
absent = t.install()
with contextlib.redirect_stdout(io.StringIO()):
    t.run_id = 0
    assert cli.main(["verify", "--conjecture", "dimension", "--max-degree", "8", "--threads", "2"]) == 0
    t.run_id = 1
    assert cli.main(["relations", "--D", "5"]) == 0
first = min(r[1] for r in t.spans)
last = max(r[2] for r in t.spans)
metrics = t.layer_metrics(first, last)
rsd_parents = sorted({r[3][0] for r in t.spans if r[0] == "relations.relation_space_dim"})
roots = [r for r in t.spans if r[0] == "cli.main"]
print(json.dumps({
    "absent": absent,
    "metrics": metrics,
    "rsd_parents": rsd_parents,
    "runs": sorted({r[4] for r in t.spans}),
    "root_parents": [r[3] for r in roots],
    "relations_root_s": roots[1][2] - roots[1][1],
    "relations_self_s": sum(
        (r[2] - r[1]) - tracer._union_length([(c[1], c[2]) for c in t.spans if c[3] is r])
        for r in t.spans if r[4] == 1
    ),
}))
"""


def probe():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, os.path.join(ROOT, "src"), BENCH],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_cli_run():
    res = probe()
    m = res["metrics"]
    assert res["absent"] == []
    assert res["runs"] == [0, 1]
    assert res["root_parents"] == [None, None]
    # pool work hangs under the span that scheduled it
    assert res["rsd_parents"] == ["cli.worker_map"]
    assert m["relations.relation_space_dim.calls"] == 7
    assert 0.0 < m["cli.worker_map.busy_ratio"] <= 1.0
    assert m["means.phi.calls"] > 0 and m["means.phi.terms"] > 0
    assert m["relations.nullspace.calls"] > 7 and m["relations.nullspace.cells"] > 0
    # relations --D 5 finds five minimal-support relations
    assert 0.0 < m["relations.minimal_support.yield"] <= 1.0
    assert m["relations.PhiMatrix.cells"] > 0
    assert all(v >= 0 for k, v in m.items() if k.endswith(".self_s"))
    assert 0.5 < m["trace.coverage"] <= 1.0
    # on one thread, self times partition the root span
    assert abs(res["relations_self_s"] - res["relations_root_s"]) < 1e-6


def test_missing_layers_are_absent_not_fatal():
    pkg = types.ModuleType("fakepkg")
    cli = types.ModuleType("fakepkg.cli")

    def emit(x):
        return x + 1

    def main():
        return cli.emit(1)

    cli.emit, cli.main = emit, main
    pkg.cli = cli
    sys.modules.update({"fakepkg": pkg, "fakepkg.cli": cli})
    try:
        t = tracer.Tracer("fakepkg")
        absent = t.install()
        assert "means.phi" in absent and "numeric.kernel" in absent
        assert "cli.emit" not in absent and "cli.main" not in absent
        assert cli.main() == 2
        m = t.layer_metrics(t.spans[0][1], t.spans[0][2])
        assert m["cli.emit.calls"] == 1 and m["cli.main.calls"] == 1
        assert not any(k.startswith("means.") for k in m)
        assert "relations.minimal_support.yield" not in m
        assert 0.0 <= m["trace.coverage"] <= 1.0
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.cli"]


def test_union_length():
    assert tracer._union_length([]) == 0.0
    assert tracer._union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == 3.0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "numeric", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
