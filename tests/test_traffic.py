"""Every statement of the hot path is reached by the traffic it serves.

The engine's two hot modules, ``_kernels.py`` and ``cocycle.py``, hold no
branch that neither the command line nor the benchmark takes.  This runs,
in one process and under a line tracer (``sys.settrace`` and, for the sums'
worker threads, ``threading.settrace``):

* the table commands at 1 and 2 workers from n = 0: ``converge`` on the
  pullback triples ``bott-flux`` and ``mixed-mode``, ``lipschitz`` on the
  direct triples ``const-xy``, ``linear-xy`` and ``sine-xy`` on all three
  presets (``full-subdivision-3`` up to n = 5, an odd leaf count), one
  single-level ``converge`` and ``pairing --n 0..9 --grid 64``;
* ``selftest``;
* one sum without ``--workers`` with ``DUSTCOCYCLE_WORKERS`` set, and one
  with it unset;
* the benchmark's three workloads (``perfbench/workloads.py``, which this
  only reads) at their quick sizes, one pass at each worker count.

Then every statement in a function of the two modules must have run.
Excepted are a ``raise``, the rest of an ``if`` or ``else`` body that ends
in one, ``global`` lines, and the entries of :data:`ALLOWED`: API that the
acceptance suite calls, and values that no catalogue triple has.
"""

import ast
import importlib.util
import io
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dustcocycle import _kernels, cli, cocycle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (_kernels, cocycle)

# A function name excepts every statement of that function; "name: source"
# the statement of that function whose first line is that source.
ALLOWED = (
    "Observable.__mul__",  # observable products, for hochschild_residual
    "cyclicity_residual",  # the acceptance suite's cocycle residuals
    "hochschild_residual",
    "_top: return np.abs(x).max()",  # complex values: every catalogue triple is real
)


def _load(name):
    """``perfbench/<name>.py`` as a module of its own name, read only."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _cli(*argv):
    with redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv


def _traffic():
    """The command-line and benchmark runs whose statements must cover the
    hot modules."""
    for workers in ("1", "2"):
        run = ("--workers", workers, "--no-timing")
        for functions in ("bott-flux", "mixed-mode"):
            _cli("converge", "--functions", functions, "--n", "0..9", *run)
        for preset, top in (("cantor-dust", 9), ("sierpinski-carpet", 6), ("full-subdivision-3", 5)):
            for functions in ("const-xy", "linear-xy", "sine-xy"):
                _cli("lipschitz", "--preset", preset, "--functions", functions,
                     "--n", f"0..{top}", *run)
        _cli("converge", "--functions", "bott-flux", "--n", "5", "--format", "json", *run)
        _cli("pairing", "--n", "0..9", "--grid", "64", *run)
    _cli("selftest")
    with pytest.MonkeyPatch.context() as env:
        env.setenv("DUSTCOCYCLE_WORKERS", "2")
        _cli("converge", "--functions", "bott-flux", "--n", "9", "--no-timing")
        env.delenv("DUSTCOCYCLE_WORKERS")
        _cli("converge", "--functions", "bott-flux", "--n", "2", "--no-timing")
    tracer, workloads = _load("tracer"), _load("workloads")
    for name in workloads.WORKLOADS:
        work = workloads.make(name, 7, tracer.Meter(), quick=True)
        for workers in (1, 2):
            work.run_pass(workers)


def _reached_lines():
    """{module file: the lines of it that :func:`_traffic` runs}, from cold
    tile caches.  A frame's ``co_filename`` is its module's ``__file__``."""
    files = {m.__file__: set() for m in MODULES}

    def on_call(frame, event, arg):
        lines = files.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    old, old_threads = sys.gettrace(), threading.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        _traffic()
    finally:
        sys.settrace(old)
        threading.settrace(old_threads)
    return files


def _body(stmts):
    """The statements of a function body, nested blocks included, nested
    functions' bodies left out, with whether each is excepted as a
    ``raise``, in an ``if``/``else`` body that ends in one, or a ``global``."""
    for stmt in stmts:
        yield stmt, isinstance(stmt, (ast.Raise, ast.Global))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            block = getattr(stmt, field, [])
            raises = isinstance(stmt, ast.If) and bool(block) and isinstance(block[-1], ast.Raise)
            for inner, excepted in _body(block):
                yield inner, excepted or raises
        for handler in getattr(stmt, "handlers", []):
            yield from _body(handler.body)


def _functions(tree, prefix=""):
    """(qualified name, function node) of every function, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def _statements(path):
    """(function name, statement, its first line's source) of each
    statement in a function of ``path`` that no exception covers; a
    docstring is no statement."""
    source = Path(path).read_text()
    text = source.splitlines()
    for name, fn in _functions(ast.parse(source)):
        body = fn.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        for stmt, excepted in _body(body):
            if not excepted:
                yield name, stmt, text[stmt.lineno - 1].strip()


def _allowed(name, source):
    return name in ALLOWED or f"{name}: {source}" in ALLOWED


def test_every_hot_statement_is_reached():
    """A statement runs when a line of it does: a compound statement's
    lines are its header's and its body's, so any of them running means
    the header ran."""
    missed = []
    for path, lines in _reached_lines().items():
        for name, stmt, source in _statements(path):
            if _allowed(name, source):
                continue
            if not lines.intersection(range(stmt.lineno, stmt.end_lineno + 1)):
                missed.append(f"{Path(path).name}:{stmt.lineno} {name}: {source}")
    assert not missed, "statements no traffic reaches:\n" + "\n".join(missed)


def test_allow_list_names_existing_statements():
    """Each entry of the allow-list still names a function, or a statement
    of one, so a rename cannot leave it stale."""
    names = {
        key
        for module in MODULES
        for name, _, source in _statements(module.__file__)
        for key in (name, f"{name}: {source}")
    }
    assert set(ALLOWED) <= names
