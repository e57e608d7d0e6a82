"""Import hygiene: every name a module imports is referenced in that module,
and the command line loads no module it does not run.

Stdlib `ast` only, so it runs wherever the tests run. `__init__.py` is
skipped because its imports are the package's re-exports, and
`from __future__` imports bind no name.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*ROOT.glob("src/cantorkit/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in set(imported) if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom math import gcd, lcm\n"
              "print(os.sep, lcm)\n")
    assert unused_imports(source) == ["gcd", "j"]


def member_process(*options: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """A `member --spec cantor --x 1/4` process and the modules it loaded.

    -S: no site hooks, so only what the request imports is loaded;
    -X importtime writes one stderr line per module imported.
    """
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "cantorkit", "member",
         "--spec", "cantor", "--x", "1/4", *options], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    return done, {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                  if line.startswith("import time:")}


def test_a_member_request_loads_no_typing_pathlib_dataclasses_inspect_or_ast():
    # A well-formed request is read from the option table, so argparse and
    # the gettext it imports are not loaded either.
    done, loaded = member_process()
    assert done.returncode == 0, done.stderr
    assert "cantorkit.cli" in loaded
    assert sorted({"typing", "pathlib", "dataclasses", "inspect", "ast", "argparse",
                   "gettext"} & loaded) == []


def test_a_member_request_that_argparse_refuses_still_answers_one_json_line():
    done, loaded = member_process("--cap", "1_0")
    assert done.returncode == 2 and done.stdout == ""
    assert "argparse" in loaded
    lines = [line for line in done.stderr.splitlines() if not line.startswith("import time:")]
    assert lines == ['{"error": "parse", "message": "argument --cap: invalid int value: '
                     "'1_0'\"}"]


def export_faults(source: str) -> tuple[list[str], list[str]]:
    """For a package's `__init__` source: the names its `__all__` lists that
    no import binds, and the names an import binds that `__all__` leaves out."""
    tree = ast.parse(source)
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for a in node.names}
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"])
    assert len(listed) == len(set(listed)), "__all__ lists a name twice"
    return sorted(set(listed) - imported), sorted(imported - set(listed))


def test_the_export_list_is_what_the_package_imports():
    assert export_faults((ROOT / "src/cantorkit/__init__.py").read_text()) == ([], [])
    # The star import binds every listed name, or fails on the first it cannot.
    code = "import cantorkit; from cantorkit import *; print(len(cantorkit.__all__))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0


def test_the_export_check_sees_a_stale_or_missing_name():
    source = ("from .exact import ClosedInterval, IntervalUnion\n"
              "__all__ = ['ClosedInterval', 'union_gaps']\n")
    assert export_faults(source) == (["union_gaps"], ["IntervalUnion"])
