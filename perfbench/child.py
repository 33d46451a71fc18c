"""One cold run of a workload, in a fresh interpreter started by run.py.

    python3 perfbench/child.py WORKLOAD SEED TRACE T0

T0 is the parent's ``time.perf_counter()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter start
and ``import rootmean.cli``.  A WORKLOAD of ``-`` only measures set-up.  The
CLI's output is captured per call; the last stdout line is this run's JSON.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import rootmean.cli as cli  # noqa: E402  (set-up ends when this import does)

T_IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _cache_state(module, name):
    fn = getattr(module, name, None)
    info = getattr(fn, "cache_info", None)
    return None if info is None else info()


def main() -> int:
    workload, seed, trace, t0 = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", float(sys.argv[4])
    setup_s = T_IMPORTED - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"rootmean imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import rootmean
    from rootmean import means, numeric, relations

    result = {
        "setup_s": setup_s,
        "provenance": {
            "version": getattr(rootmean, "__version__", "unknown"),
            "kernel_backend": getattr(numeric, "KERNEL_BACKEND", "unknown"),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
    }
    if workload == "-":
        print(json.dumps(result))
        return 0

    # A process that already holds phi or a relation dimension would measure
    # cache lookups instead of the work.
    for module, name in ((means, "phi"), (relations, "relation_space_dim")):
        info = _cache_state(module, name)
        if info is not None and (info.currsize or info.hits or info.misses):
            print(f"{module.__name__}.{name} cache is not empty at start: {info}", file=sys.stderr)
            return 2

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs = []
    cpu_first = time.process_time()
    t_first = time.perf_counter()
    for run_id, argv in enumerate(workloads.calls(workload, seed)):
        argv = workloads.with_format(argv)
        if tracer is not None:
            tracer.run_id = run_id
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed call; later calls still run
                traceback.print_exc()
                code = 1
        outputs.append({"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    t_last = time.perf_counter()

    result["wall_s"] = t_last - t_first
    result["cpu_s"] = time.process_time() - cpu_first
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["outputs"] = outputs
    if tracer is not None:
        layers = tracer.layer_metrics(t_first, t_last)
        phi = tracer.originals.get("means.phi")
        if phi is not None and hasattr(phi, "cache_info"):
            layers["means.phi.misses"] = phi.cache_info().misses
        else:
            tracer.absent.append("means.phi.misses")
        result["layers"] = layers
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
