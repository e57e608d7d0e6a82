"""Import hygiene: every name a module imports is referenced in that module,
and the command line loads no module it does not run.

Stdlib `ast` only, so it runs wherever the tests run; `from __future__`
imports bind no name. The package's exports are declared once, in
`cantorkit._EXPORTS`, and a name's module loads when the name is first
read: a process checks that `import cantorkit` loads none of them, that a
read loads only the name's module and what it imports, and that a star
import binds every listed name to the object its module holds.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/cantorkit/*.py"), *ROOT.glob("tests/*.py")])


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


# The child prints a marker line to stderr between steps; -X importtime
# writes each module's line as it loads, so the lines between two markers
# are what that step loaded.
LAZY_EXPORTS = """
import sys
import cantorkit
print("-- read", file=sys.stderr)
cantorkit.parse_spec
print("-- star", file=sys.stderr)
from cantorkit import *
print("-- checks", file=sys.stderr)
for module, names in cantorkit._EXPORTS.items():
    for name in names:
        assert getattr(cantorkit, name) is getattr(sys.modules["cantorkit." + module], name), name
        assert globals()[name] is getattr(cantorkit, name), name
assert sorted(cantorkit.__all__) == sorted(set(cantorkit.__all__)) != []
assert set(cantorkit.__all__) <= set(dir(cantorkit))
try:
    cantorkit.nope
except AttributeError as exc:
    assert str(exc) == "module 'cantorkit' has no attribute 'nope'", exc
else:
    raise AssertionError("cantorkit.nope was read")
"""


def test_a_name_loads_its_module_when_first_read():
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", "-c", LAZY_EXPORTS],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    steps = {"import": set()}
    step = steps["import"]
    for line in done.stderr.splitlines():
        if line.startswith("-- "):
            step = steps.setdefault(line[3:], set())
        elif line.startswith("import time:"):
            step.add(line.rpartition("|")[2].strip())
    ours = {step: sorted(m for m in loaded if m.startswith("cantorkit"))
            for step, loaded in steps.items()}
    assert ours["import"] == ["cantorkit"]
    # spec_io and what it imports, and nothing else of the package.
    assert ours["read"] == ["cantorkit.constructions", "cantorkit.errors", "cantorkit.exact",
                            "cantorkit.spec_io"]
    assert ours["star"] == ["cantorkit.analysis", "cantorkit.render"]
    assert ours["checks"] == []
