"""Reach: which statements of the package the shipped command lines run.

The command lines below go through ``cli.main`` in this process under
``sys.settrace``, from a fresh import of the package, and each module's
statements that never ran are counted.  A statement is counted by ``ast``:
a simple statement by its whole span, a compound one by its header (the
test of an ``if`` or ``while``, the iterable of a ``for``, the items of a
``with``); docstrings and the lines that carry no code of their own (``def``,
``class``, ``try``, ``global``, ``nonlocal``, ``while`` on a constant) are
not counted.  A count above its budget fails.  The budget only goes down: a
change that runs more of the package, or deletes what nothing runs, lowers
its module's budget here in the same change, as CI's source-size budget
follows the line count.
"""

from __future__ import annotations

import ast
import io
import sys
from contextlib import redirect_stderr
from importlib import import_module
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(find_spec("binomsums").origin).parent

COMMANDS = (
    ["list"],
    ["list", "--format", "json"],
    ["suite", "--format", "json", "--seed", "0", "--n-max", "4"],
    ["suite", "--seed", "3", "--n-max", "4"],
    ["wz", "all", "--seed", "2", "--n-max", "4"],
    ["wz", "thm1", "--n-max", "4"],
    ["check", "ID04", "--format", "json"],
    ["check", "ID04"],
    ["check", "ID24", "--mutate", "id24-flip-h2n"],
    ["wz", "thm2", "--mutate", "scale-cert:2", "--n-max", "4"],
    ["check", "ID05", "--config", "{config}"],
    ["check", "ID06", "--mutate", "id24-flip-h2n"],
    ["wz", "thm1", "--mutate", "scale-cert:x"],
    ["check", "ID99"],
    ["check", "ID01", "--samples", "-1"],
    ["suite", "--n-max", "1000"],
    ["check", "ID01", "--config", "{missing}"],
)

# never-run statements per module under the commands above (380 of 1 534)
BUDGET = {
    "__init__.py": 0,
    "catalog/__init__.py": 0,
    "catalog/entries.py": 7,
    "catalog/jets_oracle.py": 35,
    "catalog/lhs.py": 0,
    "catalog/rhs.py": 0,
    "catalog/suite.py": 2,
    "cli.py": 16,
    "exact.py": 17,
    "expr.py": 34,
    "hyperterm.py": 29,
    "jets.py": 74,
    "legendre.py": 7,
    "params.py": 1,
    "poly.py": 137,
    "wz.py": 21,
}

_NO_CODE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try,
            ast.Global, ast.Nonlocal)


def _spans(tree: ast.Module):
    """The (first, last) line of each counted statement's own code."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue            # a docstring
        if isinstance(node, (ast.If, ast.While)):
            if isinstance(node.test, ast.Constant):
                continue
            yield node.test.lineno, node.test.end_lineno
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.lineno, node.iter.end_lineno
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            yield node.lineno, node.items[-1].context_expr.end_lineno
        else:
            yield node.lineno, node.end_lineno


def _run_traced(commands) -> tuple[set[tuple[str, int]], list[int]]:
    """(file, line) of every line of the package that the commands ran, from
    a fresh import, and their exit codes; the package's modules are put back
    afterwards."""
    saved = {name: module for name, module in sys.modules.items()
             if name == "binomsums" or name.startswith("binomsums.")}
    root = str(ROOT)
    ran, codes = set(), []

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(root) else None

    for name in saved:
        del sys.modules[name]
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        cli = import_module("binomsums.cli")
        with redirect_stderr(io.StringIO()):
            for argv in commands:
                codes.append(cli.main(argv, out=io.StringIO()))
    finally:
        sys.settrace(previous)
        for name in [name for name in sys.modules
                     if name == "binomsums" or name.startswith("binomsums.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    return ran, codes


def never_run(commands) -> tuple[dict[str, int], list[int]]:
    """Each module's count of never-run statements, and the exit codes."""
    ran, codes = _run_traced(commands)
    counts = {}
    for path in sorted(ROOT.rglob("*.py")):
        lines = {line for file, line in ran if file == str(path)}
        spans = _spans(ast.parse(path.read_text(encoding="utf-8")))
        counts[path.relative_to(ROOT).as_posix()] = sum(
            not lines.intersection(range(first, last + 1)) for first, last in spans)
    return counts, codes


def test_never_run_statements_stay_within_budget(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"n_max": 3, "samples": 2, "seed": 1, "format": "json"}',
                      encoding="utf-8")
    commands = [[arg.format(config=config, missing=tmp_path / "missing.json") for arg in argv]
                for argv in COMMANDS]
    counts, codes = never_run(commands)
    # the last six lines are usage errors; the rest report rows
    assert codes[-6:] == [2] * 6 and set(codes[:-6]) <= {0, 1}, codes
    assert set(counts) == set(BUDGET)
    over = {m: (counts[m], BUDGET[m]) for m in counts if counts[m] > BUDGET[m]}
    assert not over, f"never-run statements above budget (count, budget): {over}"
