"""Static scans of the package source.

Every name a package module or a test module imports is used in that
module.  No linter ships with the project, and code moves between modules,
so an import its last user left behind is caught here.  Package
``__init__`` modules are skipped: their imports are the re-exports.
Elsewhere a re-export is spelled ``from m import name as name``, the
explicit form type checkers also read as one.

Outside the prover package and the verification pool, only the search
module asks a policy for a proposal, calls a checker or audits axioms, so
search and training share one gate and one completion loop.

The evaluator's node budget is stored to only by the compiler: on
entering a block, in the root block's restore and in the walk that replays
a root.  Apart from the budget's own constructor, only quickcheck's
per-trial reset also stores to it, so no speed-up can quietly bring back a
tick per node.

No module of the package names ``RecursionError``: every walk is bounded by
the language's explicit depth cap, never by the interpreter's limit.

Every dataclass of the package whose name ends in ``Config`` is declared
``frozen=True``, so configs stay immutable, hashable cache keys.

Only the trace module and the wire adapters decode JSON, so a new file
reader goes through the trace module's strict decoder and key-table check
rather than around them.

The one lock made at module level is the gate quickcheck memo's, so a
process-wide locked table cannot quietly come back: a cache belongs on the
object it describes.

The language and prover packages sit at the bottom of the package: they
import only from each other (the prover also from the evaluator) and from
the errors module.  A checker or policy peer that imports them then starts
without loading search, the pool or quickcheck.

Every module parses as Python 3.10, the oldest version ``pyproject.toml``
supports, and no module-level regular expression of the package uses a
possessive quantifier or an atomic group, which only 3.11 compiles.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterator

import pytest

import provekit

PACKAGE = Path(provekit.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(TESTS.glob("*.py"))
PERFBENCH_MODULES = sorted((TESTS.parent / "perfbench").glob("*.py"))


# Calls that only search.py may make, outside prover/ and pool.py.
GATED_CALLS = frozenset({"propose_decomposition", "propose_completion", "axiom_audit", "check"})


def gated_calls(source: str) -> list[str]:
    """Names of the calls in ``source`` that are in GATED_CALLS, as
    ``obj.name(...)`` or ``name(...)``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in GATED_CALLS:
                names.append(name)
    return sorted(names)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(
                alias.asname or alias.name for alias in node.names if alias.asname != alias.name
            )
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from json import dumps, loads as parse\n"
        "from json import JSONDecoder as JSONDecoder, JSONEncoder as Encoder\n"
        "def f(x: dumps) -> None:\n"
        "    return xml.dom\n"
    )
    assert unused_imports(source) == ["Encoder", "os", "osp", "parse"]


def _scan_id(path: Path) -> str:
    if path.is_relative_to(PACKAGE):
        return path.relative_to(PACKAGE).as_posix()
    return path.relative_to(TESTS.parent).as_posix()


def test_the_scan_covers_the_package():
    names = {_scan_id(p) for p in MODULES + TEST_MODULES}
    assert {"search.py", "training.py", "cli.py", "lang/ast.py", "prover/builtin.py"} <= names
    assert {"tests/test_imports.py", "tests/test_search.py", "tests/corpus.py"} <= names


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=_scan_id)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_gated_calls_are_found():
    source = (
        "from .prover import axiom_audit\n"
        "def f(policy, checker, ctx, req):\n"
        "    policy.propose_decomposition(ctx).lemmas\n"
        "    checker.check(req, 10)\n"
        "    checker.checks(req)\n"
        "    return axiom_audit(checker), policy.propose_completion\n"
    )
    assert gated_calls(source) == ["axiom_audit", "check", "propose_decomposition"]


def test_only_search_calls_the_policy_the_checker_and_the_audit():
    callers = set()
    for path in PACKAGE.rglob("*.py"):
        name = path.relative_to(PACKAGE).as_posix()
        if name.startswith("prover/") or name == "pool.py":
            continue
        if gated_calls(path.read_text()):
            callers.add(name)
    assert callers == {"search.py"}


def _scopes(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """Each top-level function and each method of a top-level class, by
    qualified name; any other statement is in ``<module>`` or its class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
                else:
                    yield node.name, item
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node
        else:
            yield "<module>", node


def _scopes_where(source: str, found: Callable[[ast.AST], bool]) -> list[str]:
    """The scopes of ``source`` holding a node for which ``found`` holds.  A
    nested function's nodes count as its enclosing function's."""
    return sorted({
        scope for scope, node in _scopes(ast.parse(source)) for sub in ast.walk(node) if found(sub)
    })


def remaining_stores(source: str) -> list[str]:
    """The scopes of ``source`` that assign or augment-assign an attribute
    named ``remaining``."""
    return _scopes_where(
        source,
        lambda sub: isinstance(sub, ast.Attribute) and sub.attr == "remaining"
        and isinstance(sub.ctx, ast.Store),
    )


def test_remaining_stores_are_found():
    source = (
        "class Budget:\n"
        "    def __init__(self, limit):\n"
        "        self.remaining = limit\n"
        "    def peek(self):\n"
        "        return self.remaining\n"
        "def charge(budget):\n"
        "    def run():\n"
        "        budget.remaining -= 1\n"
        "    return run\n"
        "def reset(budget, other):\n"
        "    other.spent, budget.remaining = 0, 0\n"
        "def swap(a, b):\n"
        "    a.remaining_steps = b.remaining\n"
        "budget.remaining: int = 5\n"
    )
    assert remaining_stores(source) == ["<module>", "Budget.__init__", "charge", "reset"]


# The scopes that may store to a budget's ``remaining``, by module.
REMAINING_STORES = {
    "evaluator.py": ["Budget.__init__", "_Compiler.block", "_Compiler.compile", "_Compiler.walk"],
    "quickcheck.py": ["quickcheck"],
}


def test_the_budget_is_charged_at_one_site():
    stores = {_scan_id(path): remaining_stores(path.read_text()) for path in PACKAGE.rglob("*.py")}
    assert {name: found for name, found in stores.items() if found} == REMAINING_STORES


def _refers(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def names(source: str, name: str) -> bool:
    """Whether ``source`` refers to ``name``, as a name or an attribute."""
    return any(_refers(node, name) for node in ast.walk(ast.parse(source)))


def test_names_are_found():
    assert names("try:\n    f()\nexcept (ValueError, RecursionError):\n    pass\n", "RecursionError")
    assert names("import builtins\nraise builtins.RecursionError\n", "RecursionError")
    assert not names('"""Never a RecursionError."""\n# RecursionError\n', "RecursionError")


def test_no_module_leans_on_the_recursion_limit():
    leaning = [_scan_id(path) for path in PACKAGE.rglob("*.py") if names(path.read_text(), "RecursionError")]
    assert leaning == []


def scopes_naming(source: str, name: str) -> list[str]:
    """The scopes of ``source`` that refer to ``name``, as a name or an
    attribute."""
    return _scopes_where(source, lambda sub: _refers(sub, name))


def test_scopes_naming_are_found():
    source = (
        "def walk(node):\n"
        "    return walk(node.left)\n"
        "class Goal:\n"
        "    def check(self):\n"
        "        return tree.walk(self)\n"
        "    step = walk\n"
        "def parse():\n"
        "    def inner():\n"
        "        return walk(1)\n"
        "    return inner\n"
        "def other(walker):\n"
        "    return walker('walk')\n"
    )
    assert scopes_naming(source, "walk") == ["Goal", "Goal.check", "parse", "walk"]


def test_the_sort_walk_is_called_at_one_site():
    # Parsed goals are sorted in the parser's loop; a second walk over the
    # finished tree would pay for the check twice.
    found = {_scan_id(path): scopes_naming(path.read_text(), "_sort_of") for path in PACKAGE.rglob("*.py")}
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "lang/ast.py": ["GoalDecl.sort_error", "_sort_of"],
    }


def unfrozen_configs(source: str) -> list[str]:
    """The classes of ``source`` named ``*Config`` that are dataclasses
    without ``frozen=True``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and node.name.endswith("Config")):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            func = call.func if call else decorator
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "dataclass":
                continue
            frozen = any(
                kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                for kw in (call.keywords if call else ())
            )
            if not frozen:
                found.append(node.name)
    return found


def test_unfrozen_configs_are_found():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class AConfig: pass\n"
        "@dataclasses.dataclass(slots=True)\n"
        "class BConfig: pass\n"
        "@dataclass(frozen=False)\n"
        "class CConfig: pass\n"
        "@dataclass(frozen=True)\n"
        "class DConfig: pass\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class EConfig: pass\n"
        "@dataclass\n"
        "class Settings: pass\n"
        "class FConfig: pass\n"
    )
    assert unfrozen_configs(source) == ["AConfig", "BConfig", "CConfig"]


def test_every_config_dataclass_is_frozen():
    configs = {_scan_id(path): unfrozen_configs(path.read_text()) for path in PACKAGE.rglob("*.py")}
    assert {name: found for name, found in configs.items() if found} == {}


# The modules that may decode JSON: ``trace.decode_json`` reads every input
# file, and the wire adapters their peers' replies, whose unknown fields the
# protocol ignores.
JSON_DECODERS = {"trace.py", "prover/external.py"}


def decodes_json(source: str) -> bool:
    return names(source, "loads") or names(source, "load") or names(source, "JSONDecoder")


def test_json_decoding_is_found():
    assert decodes_json("import json\njson.loads(text)\n")
    assert decodes_json("from json import load\nload(fh)\n")
    assert decodes_json("import json\njson.JSONDecoder().decode(text)\n")
    assert not decodes_json('"""Read with json.loads."""\nimport json\njson.dumps(1)\n')
    assert not decodes_json("from .trace import decode_json\ndecode_json(text, 'where')\n")


def test_only_the_checked_readers_decode_json():
    decoders = {_scan_id(path) for path in PACKAGE.rglob("*.py") if decodes_json(path.read_text())}
    assert decoders == JSON_DECODERS


def shared_locks(source: str) -> list[str]:
    """What binds a new ``Lock`` or ``RLock`` outside any function of
    ``source``, one lock for the whole process: each target, after its
    class in a class body, or the scope of a statement that binds none."""
    found = []
    for scope, node in _scopes(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or not any(
            isinstance(sub, ast.Call) and (_refers(sub.func, "Lock") or _refers(sub.func, "RLock"))
            for sub in ast.walk(node)
        ):
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            found.append(scope)
            continue
        prefix = "" if scope == "<module>" else f"{scope}."
        found.extend(prefix + ast.unparse(target) for target in targets)
    return sorted(found)


def test_shared_locks_are_found():
    source = (
        "import threading\n"
        "from threading import RLock\n"
        "_LOCK = threading.Lock()\n"
        "_TABLE: dict = {'lock': RLock()}\n"
        "class Pool:\n"
        "    guard = threading.Lock()\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "def make():\n"
        "    return threading.RLock()\n"
        "LOCKS.append(threading.Lock())\n"
        "event = threading.Event()\n"
    )
    assert shared_locks(source) == ["<module>", "Pool.guard", "_LOCK", "_TABLE"]


def test_the_gate_memo_holds_the_one_shared_lock():
    # Per-object locks live in methods; a table of the whole process would
    # need a lock of its own here.
    found = {_scan_id(path): shared_locks(path.read_text()) for path in PACKAGE.rglob("*.py")}
    assert {name: locks for name, locks in found.items() if locks} == {"search.py": ["_GATE_QC_LOCK"]}


# What each low layer may import from the package, by its directory.
LAYERS = {
    "lang": ("provekit.lang", "provekit.errors"),
    "prover": ("provekit.lang", "provekit.errors", "provekit.evaluator", "provekit.prover"),
}


def package_imports(path: Path) -> list[str]:
    """The package modules a module of this package imports, relative
    imports resolved; ``from provekit import x`` counts as ``provekit.x``."""
    # The package a module (or an __init__.py) sits in: its path minus the file.
    package = ["provekit", *path.relative_to(PACKAGE).parent.parts]
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            if module == "provekit":
                found.extend(f"provekit.{alias.name}" for alias in node.names)
            else:
                found.append(module)
    return sorted(name for name in found if name.split(".")[0] == "provekit")


def _outside(imports: list[str], allowed: tuple[str, ...]) -> list[str]:
    return [name for name in imports if not any(
        name == prefix or name.startswith(prefix + ".") for prefix in allowed
    )]


def test_package_imports_resolve_relative_imports():
    assert package_imports(PACKAGE / "prover" / "builtin.py")[:3] == [
        "provekit.errors", "provekit.evaluator", "provekit.lang.ast",
    ]
    assert "provekit.lang.ast" in package_imports(PACKAGE / "lang" / "__init__.py")
    assert "provekit.pool" in package_imports(PACKAGE / "config.py")


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_low_layers_import_only_from_below(layer):
    paths = sorted((PACKAGE / layer).rglob("*.py"))
    assert paths
    leaks = {_scan_id(path): _outside(package_imports(path), LAYERS[layer]) for path in paths}
    assert {name: leak for name, leak in leaks.items() if leak} == {}


@pytest.mark.parametrize(
    "module, absent",
    [
        ("provekit.lang", ("provekit.evaluator", "provekit.search", "provekit.pool")),
        ("provekit.prover", ("provekit.search", "provekit.pool", "provekit.quickcheck")),
    ],
)
def test_a_low_layer_loads_without_the_engine(module, absent):
    code = f"import sys, {module}; print(sorted(set({list(absent)!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"


# --- the Python 3.10 floor ------------------------------------------------------

OLDEST_PYTHON = (3, 10)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")) + TEST_MODULES + PERFBENCH_MODULES, ids=_scan_id
)
def test_module_parses_on_the_oldest_supported_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST_PYTHON)


def regex_opcodes(pattern: re.Pattern) -> set[str]:
    """Names of the opcodes in ``pattern``'s parse tree, nested ones included."""
    found: set[str] = set()
    stack: list = [re._parser.parse(pattern.pattern, pattern.flags)]
    while stack:
        node = stack.pop()
        if isinstance(node, re._parser.SubPattern):
            stack.extend(node.data)
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
        elif isinstance(node, re._constants._NamedIntConstant):
            found.add(node.name)
    return found


NEWER_THAN_3_10 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}

needs_311_parser = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="re._parser and its 3.11 opcodes are new in 3.11"
)


@needs_311_parser
def test_regex_opcodes_newer_than_3_10_are_found():
    assert regex_opcodes(re.compile(r"a*+(?>b)")) >= NEWER_THAN_3_10
    assert not regex_opcodes(re.compile(r"(?:[ \t]+|#[^\n]*)*(a|b)")) & NEWER_THAN_3_10


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@needs_311_parser
def test_package_regexes_compile_on_the_oldest_supported_python():
    patterns = {
        f"{_module_name(path)}.{name}": value
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, value in vars(importlib.import_module(_module_name(path))).items()
        if isinstance(value, re.Pattern)
    }
    assert "provekit.lang.parser._TOKEN" in patterns
    newer = {name: regex_opcodes(p) & NEWER_THAN_3_10 for name, p in patterns.items()}
    assert {name: ops for name, ops in newer.items() if ops} == {}
