"""End-to-end benchmark of the rootmean CLI, with an optional traced run that
splits the time by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --record-reference

Every repetition is a fresh interpreter (``child.py``) that imports
``rootmean.cli`` from ``src/`` of this checkout, starts with empty caches,
runs the workload's CLI calls with the CLI's default flags and hands the
payloads back for checking.  Repetitions continue until ``--seconds`` have
passed; timings are medians over them.

With ``--trace 0`` the last stdout line reports the end-to-end metrics named
in ``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics,
taken from traced repetitions that alternate with untraced ones so that
``trace.overhead_frac`` compares the two.  The lines above it print every
metric by name and unit, ``fail_frac`` and the run's provenance.
``--record-reference`` rewrites ``reference.json``, the digests of each
call's payload that later runs must reproduce.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5  # set-up-only children per run, on top of one per repetition
MIN_REPS = 3  # per kind (untraced, traced) of repetition
CHILD_TIMEOUT_S = 120  # a hung child still ends the run well inside 180 s


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ROOTMEAN_THREADS", None)  # the CLI's default thread count
    env.pop("PYTHONPATH", None)  # the child imports rootmean from src/ only
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, trace: bool, env: dict) -> dict:
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), "1" if trace else "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv + [repr(t0)], env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["elapsed_s"] = time.perf_counter() - t0
    return out


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} is missing")
    if not os.path.isfile(os.path.join(SRC, "rootmean", "cli.py")):
        raise BenchError(f"no rootmean sources under {SRC}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict:
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def judge(workload: str, rep: dict, reference: dict):
    """(attempted, failed, reasons) over the CLI calls of one repetition."""
    attempted = failed = 0
    reasons = []
    for call in rep["outputs"]:
        a, f, why = workloads.check_call(workload, call["argv"], call["code"], call["stdout"], reference)
        attempted += a
        failed += f
        reasons += why
        if call["code"] != 0 and call["stderr"].strip():
            reasons.append(call["stderr"].strip().splitlines()[-1])
    return attempted, failed, reasons


def numeric_skipped(rep: dict) -> int:
    total = 0
    for call in rep["outputs"]:
        try:
            payload = json.loads(call["stdout"])
        except ValueError:
            continue
        total += sum(r.get("skipped", 0) for r in payload.get("reports", []))
    return total


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over every file under src/ except bytecode caches."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def provenance(workload: str, seed: int, children: list) -> dict:
    backends = {c["provenance"]["kernel_backend"] for c in children}
    if len(backends) != 1:
        raise BenchError(f"kernel backend changed within one run: {sorted(backends)}")
    prov = dict(children[0]["provenance"])
    prov.update(
        workload=workload,
        seed=seed,
        seed_dependent=workloads.SEED_DEPENDENT[workload],
        calls=[workloads.call_key(a) for a in workloads.calls(workload, seed)],
        platform=platform.platform(),
        machine=platform.machine(),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        git_commit=git_commit(),
        source_sha256=source_digest(),
    )
    return prov


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    reference = load_reference()
    env = child_env()
    deadline = time.perf_counter() + seconds

    run_child("-", seed, False, env)  # first import writes bytecode caches; not timed
    probes = [run_child("-", seed, False, env) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    attempted = failed = 0
    reasons = []
    while True:
        kind = traced if trace and len(traced) < len(plain) else plain
        rep = run_child(workload, seed, kind is traced, env)
        kind.append(rep)
        a, f, why = judge(workload, rep, reference)
        attempted += a
        failed += f
        reasons += why
        enough = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS)
        typical = statistics.median(r["elapsed_s"] for r in plain + traced)
        if enough and time.perf_counter() + typical > deadline:
            break

    setup = [c["setup_s"] for c in probes + plain + traced]
    walls = [r["wall_s"] for r in plain]
    summary = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    samples = {
        "setup_s": setup,
        "wall_s": walls,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
    }
    absent = []
    layers = {}
    if trace:
        absent = sorted(set().union(*(r["absent"] for r in traced)))
        keys = set().union(*(r["layers"] for r in traced))
        layers = {k: statistics.median(r["layers"].get(k, 0) for r in traced) for k in keys}
        layers["numeric.skipped"] = statistics.median(numeric_skipped(r) for r in traced)
        layers["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / summary["wall_s"] - 1.0
        )
    return {
        "spec": spec,
        "summary": summary,
        "samples": samples,
        "layers": layers,
        "absent": absent,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "reps": {"untraced": len(plain), "traced": len(traced)},
        "provenance": provenance(workload, seed, probes + plain + traced),
    }


def report(res: dict, trace: bool) -> dict:
    spec = res["spec"]
    prov = res["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  repetitions {res['reps']}")
    for m in spec["end_to_end"]:
        vals = res["samples"][m["name"]]
        q1, q3 = quartiles(vals)
        print(f"  {m['name']:<12} {res['summary'][m['name']]:12.6f} {m['unit']:<4}"
              f"  median of {len(vals)}, quartiles {q1:.6f} .. {q3:.6f}, range {min(vals):.6f} .. {max(vals):.6f}")
    cpu = res["samples"]["cpu_s"]
    print(f"  {'cpu_s':<12} {statistics.median(cpu):12.6f} s     process CPU time over the same span as wall_s")
    fail_frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':<12} {fail_frac:12.6f} {'ratio':<4}  {res['failed']} of {res['attempted']} operations failed")
    if trace:
        # self times add up to the time spent in spans on all threads, which
        # exceeds wall_s when the CLI's thread pool runs
        span_s = sum(v for k, v in res["layers"].items() if k.endswith(".self_s")) or 1.0
        for m in spec["per_layer"]:
            v = res["layers"].get(m["name"], 0)
            share = f"  {100 * v / span_s:5.1f}% of span time" if m["unit"] == "s" else ""
            print(f"  {m['name']:<40} {v:14.6f} {m['unit']}{share}")
        if res["absent"]:
            print(f"  absent layers: {', '.join(res['absent'])}")
    for why in list(dict.fromkeys(res["reasons"]))[:20]:
        print(f"  FAIL {why}", file=sys.stderr)
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))

    if trace:
        metrics = {m["name"]: {"value": res["layers"].get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": res["summary"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {
        "correct": res["failed"] == 0 and not res["reasons"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def record_reference() -> None:
    """Digest every call of every workload (seed 0) after its checks pass."""
    load_spec()
    env = child_env()
    digests = {}
    for workload in workloads.CHECKS:
        rep = run_child(workload, 0, False, env)
        for call in rep["outputs"]:
            _, failed, why = workloads.check_call(workload, call["argv"], call["code"], call["stdout"], {})
            why = [w for w in why if not w.endswith("no recorded digest for this call")]
            if why:
                raise BenchError(f"refusing to record a failing payload: {why}")
            digests[workloads.call_key(call["argv"])] = workloads.payload_digest(
                workload, json.loads(call["stdout"])
            )
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.CHECKS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with every sample, to this file")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        line = report(res, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        res.pop("spec")
        res["result"] = line
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
