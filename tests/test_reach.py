"""Every function in ``src/rootmean`` is reached by a subcommand.

A cheap matrix of ``rootmean`` calls, one per subcommand and mode in each
format it offers plus config errors, runs in process under a call tracer
(``sys.settrace``: the package starts no thread).  Each function the package
defines must be entered by one of them or be on ``KEEP``, which says why it
stays.  Code that only a test calls belongs in ``tests/``.

The package also has one Horner evaluator: a Horner step ``v = v * z + c``
may appear only in the functions on ``HORNER_STEPS``.  And it has one way to
run work in parallel, forked worker processes: no module imports one of
``PARALLEL_MODULES`` or makes a ``threading.Thread``, and ``os.fork`` is
called only in the functions on ``FORKS``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys

import rootmean
from rootmean import cli

PACKAGE = os.path.dirname(os.path.realpath(rootmean.__file__))

# functions no CLI call enters, each with the reason it stays
KEEP = {
    "relations.PhiMatrix.shape": "perfbench/tracer.py reads it",
    "sympoly.SymPoly.__len__": "perfbench/tracer.py reads it",
    "cli.build_parser": "runs once, at import",
    "cli.build_parser.common": "runs inside cli.build_parser, at import",
    "numeric._fujiwara_radius": "runs only when the root centroid is itself a root",
    "sympoly.SymPoly.__hash__": "Python protocol method",
    "sympoly.SymPoly.__bool__": "Python protocol method",
    "sympoly.SymPoly.__str__": "Python protocol method",
    "sympoly.SymPoly.__repr__": "Python protocol method",
    "exact.PartitionVector.__repr__": "Python protocol method",
    "exact.PartitionVector.as_list": "spells PartitionVector.__repr__",
}

# the functions that may take a Horner step, each with the reason
HORNER_STEPS = {
    "_aberth_py.horner": "the evaluator",
    "_aberth_py.aberth_refine": "the kernel's hot loop fuses value, derivative and rounding scale",
    "numeric._accepted": "the residual test of every solve fuses value and rounding scale",
}

# modules that run work on threads or in processes other than by os.fork
PARALLEL_MODULES = ("_thread", "concurrent", "multiprocessing")

# the functions that may fork, each with the reason
FORKS = {
    "numeric._fan_out": "splits a numeric check's samples across worker processes",
}


def _bfile(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# lcd\n2 1\n3 1\n")
    return str(path)


def _matrix(tmp_path):
    """(argv, expected exit code) pairs: every subcommand, mode and format."""
    three = ("pretty", "json", "csv")
    two = ("pretty", "json")
    calls = []
    for fmt in three:
        calls += [
            (["gw", "--n", "3", "--max-deg", "4", "--format", fmt], 0),
            (["phi", "--D", "4", "--rho=-2..3", "--format", fmt], 0),
            (["relations", "--D", "5", "--format", fmt], 0),
            (["mine", "--k-max", "2", "--d-sweep", "5", "--oeis-bfile", _bfile(tmp_path),
              "--oeis-bfile-for", "lcd", "--format", fmt], 0),
        ]
    for fmt in two:
        calls += [(["verify", "--conjecture", c, "--max-degree", "5", "--format", fmt], 0)
                  for c in sorted(cli.VERIFIERS)]
        calls += [
            (["numeric-check", "--relation", "1:1,-1:2", "--D", "3", "--samples", "2", "--format", fmt], 0),
            (["numeric-check", "--auto", "--D", "4", "--samples", "2", "--format", fmt], 0),
            (["numeric-check", "--conjecture", "relative-rates", "--max-degree", "3", "--samples", "2",
              "--format", fmt], 0),
            (["numeric-check", "--conjecture", "translation", "--max-degree", "3", "--samples", "2",
              "--format", fmt], 0),
        ]
    calls += [
        (["phi", "--D", "4"], 0),
        (["phi", "--D", "3", "--delta", "3"], 0),
        (["phi", "--D", "3", "--delta", "4"], 0),
        (["relations", "--D", "4", "--extended", "--no-minimal-support"], 0),
        (["relations", "--D", "5", "--delta", "2", "--rho", "0..4"], 0),
        (["verify", "--conjecture", "dimension", "--max-degree", "4", "--threads", "2"], 0),
        # a relation over antiderivative families (negative rho)
        (["numeric-check", "--relation", "2:-2,-5:-1", "--D", "3", "--samples", "2"], 0),
        (["mine", "--k-max", "2", "--d-sweep", "5", "--output", str(tmp_path / "mine.txt")], 0),
        # D=15 is the one degree below 20 that reaches the divisor-root scan
        (["mine", "--k-max", "2", "--d-sweep", "15"], 0),
        # config errors
        (["gw", "--n", "0", "--max-deg", "2"], 2),
        (["phi", "--D", "40"], 2),
        (["phi", "--D", "9", "--delta", "-30"], 2),
        (["phi", "--D", "4", "--rho", "x"], 2),
        (["relations", "--D", "4", "--rho", "3..1"], 2),
        (["verify", "--conjecture", "prop5", "--max-degree", "2"], 2),
        (["verify", "--conjecture", "odd-binomial", "--max-degree", "2"], 2),
        (["numeric-check", "--relation", "1:1,1", "--D", "3"], 2),
        (["numeric-check", "--samples", "0", "--auto", "--D", "3"], 2),
        (["numeric-check"], 2),
        (["mine", "--k-max", "1"], 2),
        (["mine", "--oeis-bfile", str(tmp_path / "missing.txt"), "--oeis-bfile-for", "lcd"], 2),
        (["gw", "--n", "2", "--max-deg", "2", "--output", str(tmp_path)], 2),
    ]
    return calls


def _modules():
    """(path, module name, syntax tree) of every module of the package."""
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            path = os.path.join(PACKAGE, filename)
            with open(path, encoding="utf-8") as fh:
                yield path, filename[:-3], ast.parse(fh.read())


def _defined_functions() -> dict:
    """{(file, first line of the code object): dotted name} of every def in the package."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path, module, tree in _modules():
        visit(tree, path, module)
    return out


def _clear_caches():
    # a cached call would hide the functions behind it
    for name in list(sys.modules):
        if name.startswith("rootmean."):
            for value in vars(sys.modules[name]).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_every_function_is_reached_or_kept(tmp_path, monkeypatch):
    # the tracer sees this process only, so numeric checks keep their samples here
    monkeypatch.setattr("rootmean.numeric.WORKERS", 1)
    defined = _defined_functions()
    assert set(KEEP) <= set(defined.values()), sorted(set(KEEP) - set(defined.values()))
    entered = set()

    def tracer(frame, event, arg):
        # code objects compare by content, not file: two same-line properties
        # with the same body in two modules would count as one
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    _clear_caches()
    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        codes = []
        for argv, want in _matrix(tmp_path):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append((argv, cli.main(argv), want))
    finally:
        sys.settrace(old)
    assert [c for c in codes if c[1] != c[2]] == []
    reached = {(os.path.realpath(path), line) for path, line in entered}
    unreached = sorted(name for key, name in defined.items() if key not in reached and name not in KEEP)
    assert not unreached, "no CLI call enters: " + ", ".join(unreached)


def _functions_where(matches) -> set:
    """Dotted names of the package functions (or modules, for module-level
    code) with a syntax node for which ``matches`` is true."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if not named and matches(child):
                found.add(prefix)
            visit(child, f"{prefix}.{child.name}" if named else prefix)

    for _, module, tree in _modules():
        visit(tree, module)
    return found


def _is_horner_step(node) -> bool:
    """An assignment v = v * z + c (either operand order of the product or the sum)."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)):
        return False
    name, value = node.targets[0].id, node.value
    return isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add) and any(
        isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
        and any(isinstance(x, ast.Name) and x.id == name for x in (side.left, side.right))
        for side in (value.left, value.right)
    )


def test_horner_steps_stay_in_the_evaluator():
    steps = _functions_where(_is_horner_step)
    assert steps - set(HORNER_STEPS) == set(), "Horner steps outside the evaluator"
    # an entry that matches nothing would let a step back in unseen
    assert steps >= set(HORNER_STEPS)


def _imported(node) -> list:
    """The modules an import statement names, and for ``from m import n`` also m.n."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return []


def _imports_parallel_module(node) -> bool:
    return any(name.split(".")[0] in PARALLEL_MODULES for name in _imported(node))


def _names(node, module, attrs) -> bool:
    """``module.attr`` or ``from module import attr``, for an attr in ``attrs``."""
    if isinstance(node, ast.Attribute):
        return node.attr in attrs and isinstance(node.value, ast.Name) and node.value.id == module
    return any(name in {f"{module}.{attr}" for attr in attrs} for name in _imported(node))


def test_forked_workers_are_the_one_parallel_mechanism():
    assert _functions_where(_imports_parallel_module) == set()
    assert _functions_where(lambda node: _names(node, "threading", ("Thread", "Timer"))) == set()
    # an entry that matches nothing would let a fork back in unseen
    assert _functions_where(lambda node: _names(node, "os", ("fork", "forkpty"))) == set(FORKS)
