"""Span tracer for traced benchmark runs; the package itself is not changed.

``Tracer.install`` wraps the public functions of each layer at the places
they are called from: modules import functions by name, so every attribute of
every loaded ``rootmean`` module that holds the original function gets the
wrapper.  Methods and classmethods are replaced on their class.

Each call records a span ``[name, start, end, parent, run, value, raised]``:
the parent is the span open on the same thread (or, inside the CLI's thread
pool, the ``cli.worker_map`` span that scheduled the work), ``run`` is the
index of the CLI call, and ``value`` is a per-call measurement such as matrix
cells or kernel iterations.  Spans stay in memory; ``layer_metrics`` reduces
them when the run ends.  A target that a later version renames or removes is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict


def _phi_terms(args, kwargs, result):
    return (args[0], len(result.poly))


def _matrix_cells(args, kwargs, result):
    rows, cols = result.shape
    return rows * cols


def _nullspace_cells(args, kwargs, result):
    rows = list(args[0]) if args else list(kwargs["rows"])
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(rows) * ncols


def _kernel_result(args, kwargs, result):
    _, iters, converged = result
    return (iters, not converged)


def _threads(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["threads"]


# (span name, module under rootmean, attribute path, per-call value or None)
TARGETS = (
    ("exact.partitions", "exact", "partitions", None),
    ("powersums.gw_coefficient", "powersums", "gw_coefficient", None),
    ("powersums.materialize", "powersums", "materialize", None),
    ("sympoly.poly_sum", "sympoly", "poly_sum", None),
    ("sympoly.SymPoly.coefficient", "sympoly", "SymPoly.coefficient", None),
    ("means.phi", "means", "phi", _phi_terms),
    ("relations.PhiMatrix.build", "relations", "PhiMatrix.build", _matrix_cells),
    ("relations.nullspace", "relations", "nullspace", _nullspace_cells),
    ("relations.relation_space_dim", "relations", "relation_space_dim", None),
    ("relations.RelationVector.make", "relations", "RelationVector.make", None),
    ("relations.find_relations", "relations", "find_relations",
     lambda a, k, r: len(r.minimal_support)),
    ("numeric.kernel", "numeric", "_kernel.aberth_refine", _kernel_result),
    ("numeric.find_roots", "numeric", "find_roots", None),
    ("numeric.sample_roots", "numeric", "sample_roots", None),
    ("numeric.mean_over_family", "numeric", "mean_over_family", None),
    ("mining.fit_h", "mining", "fit_h", None),
    ("mining.extract_g", "mining", "extract_g", None),
    ("mining.t_series", "mining", "t_series", None),
    ("mining.is_irreducible_int", "mining", "is_irreducible_int", lambda a, k, r: r is None),
    ("cli.emit", "cli", "emit", None),
    ("cli.worker_map", "cli", "worker_map", _threads),
    ("cli.main", "cli", "main", None),
)

# Spans that only schedule or contain other work; trace.coverage leaves them
# out, or every run would be fully covered by its cli.main span.
CONTAINERS = frozenset({"cli.main", "cli.worker_map"})


def _resolve(package: str, module: str, path: str):
    """(owner, attribute, function, is_classmethod), or None when absent."""
    owner = sys.modules.get(f"{package}.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    try:
        raw = inspect.getattr_static(owner, parts[-1])
    except AttributeError:
        return None
    if isinstance(raw, classmethod):
        return owner, parts[-1], raw.__func__, True
    fn = getattr(owner, parts[-1])
    return (owner, parts[-1], fn, False) if callable(fn) else None


class Tracer:
    def __init__(self, package: str = "rootmean"):
        self.package = package
        self.spans: list = []
        self.run_id = 0
        self.absent: list = []
        self.originals: dict = {}
        self._tls = threading.local()

    def install(self) -> list:
        """Wrap every target; returns the names of targets not found."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package or name.startswith(self.package + "."))]
        for name, module, path, value in TARGETS:
            found = _resolve(self.package, module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn, is_cm = found
            self.originals[name] = fn
            adapt = self._pool_parent if name == "cli.worker_map" else None
            wrapper = self._wrap(name, fn, value, adapt)
            if is_cm:
                setattr(owner, attr, classmethod(wrapper))
                continue
            setattr(owner, attr, wrapper)
            for mod in modules:
                for key, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, key, wrapper)
        return self.absent

    def _wrap(self, name, fn, value, adapt=None):
        spans = self.spans
        tls = self._tls
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = tls.stack = []
            parent = stack[-1] if stack else getattr(tls, "parent", None)
            rec = [name, 0.0, 0.0, parent, tracer.run_id, None, False]
            spans.append(rec)
            stack.append(rec)
            if adapt is not None:
                args, kwargs = adapt(rec, args, kwargs)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if value is not None:
                try:
                    rec[5] = value(args, kwargs, result)
                except Exception:  # a changed result shape loses the value, not the run
                    rec[5] = None
            return result

        return functools.update_wrapper(traced, fn)

    def _pool_parent(self, rec, args, kwargs):
        """Make work run by the CLI's thread pool a child of its worker_map span."""
        tls = self._tls
        fn = args[0]

        def run_item(x):
            prev = getattr(tls, "parent", None)
            tls.parent = rec
            try:
                return fn(x)
            finally:
                tls.parent = prev

        return (run_item,) + tuple(args[1:]), kwargs

    def layer_metrics(self, t_first: float, t_last: float) -> dict:
        """Per-layer numbers of one run, keyed by metric name."""
        wall = t_last - t_first
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append((rec[1], rec[2]))
        by_name = defaultdict(list)
        for rec in self.spans:
            by_name[rec[0]].append(rec)

        out = {}
        for name, _, _, _ in TARGETS:
            if name in self.absent:
                continue
            recs = by_name[name]
            out[f"{name}.calls"] = len(recs)
            out[f"{name}.self_s"] = sum(
                (r[2] - r[1]) - _union_length(children.get(id(r), ())) for r in recs
            )
            out[f"{name}.failed"] = sum(1 for r in recs if r[6])

        values = {name: [r[5] for r in by_name[name] if r[5] is not None] for name in by_name}
        if "means.phi" not in self.absent:
            terms = {}
            for key, n in values.get("means.phi", ()):
                terms[key] = n
            out["means.phi.terms"] = sum(terms.values())
        if "relations.PhiMatrix.build" not in self.absent:
            out["relations.PhiMatrix.cells"] = sum(values.get("relations.PhiMatrix.build", ()))
        if "relations.nullspace" not in self.absent:
            out["relations.nullspace.cells"] = sum(values.get("relations.nullspace", ()))
        if "numeric.kernel" not in self.absent:
            kern = values.get("numeric.kernel", ())
            out["numeric.kernel.iters"] = sum(i for i, _ in kern)
            out["numeric.kernel.nonconverged"] = sum(1 for _, bad in kern if bad)
        if "mining.is_irreducible_int" not in self.absent:
            out["mining.is_irreducible_int.undecided"] = sum(
                1 for v in values.get("mining.is_irreducible_int", ()) if v
            )
        if not {"relations.find_relations", "relations.nullspace"} & set(self.absent):
            # subset nullspaces tried: every nullspace under find_relations
            # except the one that computes the basis
            found = sum(values.get("relations.find_relations", ()))
            tried = 0
            for fr in by_name["relations.find_relations"]:
                n = sum(1 for r in by_name["relations.nullspace"] if r[3] is fr)
                tried += max(n - 1, 0)
            out["relations.minimal_support.yield"] = found / tried if tried else 0.0
        if "cli.worker_map" not in self.absent:
            busy = capacity = 0.0
            for wm in by_name["cli.worker_map"]:
                busy += sum(e - s for s, e in children.get(id(wm), ()))
                capacity += (wm[5] or 1) * (wm[2] - wm[1])
            out["cli.worker_map.busy_ratio"] = busy / capacity if capacity else 0.0

        covered = [
            (max(r[1], t_first), min(r[2], t_last))
            for r in self.spans
            if r[0] not in CONTAINERS and (r[3] is None or r[3][0] in CONTAINERS)
        ]
        out["trace.coverage"] = _union_length(covered) / wall if wall > 0 else 0.0
        out["trace.spans"] = len(self.spans)
        return out


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total
