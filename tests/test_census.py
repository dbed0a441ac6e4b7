"""A census of the knobs, catch-all handlers and public names in ``src/repro``.

Six checks keep these counts from creeping back (ROADMAP aims 2 and 3):

* the ``REPRO_*`` environment variables the package names as whole
  string constants are exactly :data:`ENV_VARS`;
* every ``except Exception``, ``except BaseException`` and bare
  ``except`` sits in a function listed in :data:`CATCH_ALLS`;
* there is no ``Exec`` value, and no function or class field takes an
  ``execution``: no caller picks an engine, the input does (a fault
  plan runs the literal flood);
* the only functions that take a ``store`` are :data:`STORE_TAKERS`:
  the serving layer owns the artifact store, and the scheme pipelines
  always build and derive;
* the constructor parameters of the serving stack's artifact store,
  concurrent front and file lock are exactly :data:`CONSTRUCTORS`;
* every public top-level function and class, and every public method
  of a public class, is named in ``src/``, ``examples/``, ``tools/``,
  ``servebench/`` or ``benchmarks/`` outside its own ``def`` line, or
  is listed in :data:`UNCALLED` with its reason.

A change that adds a variable, a catch-all, an engine switch, a store
parameter, a constructor knob or a name nothing calls has to edit this
file, with its reason, in its own diff.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import repro
from repro.service import ConcurrentSimulationService
from repro.store import ArtifactStore, FileLock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

ENV_VARS = {
    "REPRO_OBS",  # the telemetry plane's gate
    "REPRO_STORE_CHAOS",  # the store's fault-injection hook
}

STORE_TAKERS = {
    "service/service.py::SimulationService.__init__",
    "service/concurrent.py::ConcurrentSimulationService.__init__",
}

# Where a public name counts as called: everything but the tests.
CALLER_DIRS = ("src", "examples", "tools", "servebench", "benchmarks")

UNCALLED = {
    # Network is exported in repro.__all__; this is its networkx bridge.
    "local/network.py::Network.to_networkx",
    # Knowledge is exported in repro.__all__; the KT0/KT1 edge-id flag.
    "local/knowledge.py::Knowledge.exposes_edge_ids",
}

CATCH_ALLS = {
    # Maps zip or format damage of any shape to ArtifactError; OSError
    # is re-raised first, so transient I/O still reaches the retries.
    "store/serialize.py::_read_npz",
    # Records the failed request's outcome, then re-raises.
    "service/concurrent.py::ConcurrentSimulationService.submit",
}

CONSTRUCTORS = {
    # The disk directory; the tuning values are module constants.
    ArtifactStore: ("path",),
    # The inner service's own arguments (or the service itself), the
    # worker pool's size and the batching window; deadlines are per call.
    ConcurrentSimulationService: (
        "network",
        "service",
        "store",
        "params",
        "gamma",
        "seed",
        "max_workers",
        "merge_window",
    ),
    # The lock file and how long to wait on a live holder.
    FileLock: ("path", "timeout"),
}

_ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_BROAD = {"Exception", "BaseException"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, ast.parse(path.read_text(encoding="utf-8"), filename=rel)


def _env_constants() -> dict[str, list[str]]:
    """``{REPRO_* name: [file:line, ...]}`` over every string constant."""
    found: dict[str, list[str]] = {}
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _ENV_NAME.fullmatch(node.value)
            ):
                found.setdefault(node.value, []).append(f"{rel}:{node.lineno}")
    return found


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in _BROAD for t in types)


def _catch_alls() -> list[tuple[str, str]]:
    """``(file::qualified function, file:line)`` of every catch-all."""
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, rel: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.ExceptHandler) and _is_catch_all(child):
                found.append((f"{rel}::{'.'.join(scope)}", f"{rel}:{child.lineno}"))
            visit(child, rel, inner)

    for rel, tree in _modules():
        visit(tree, rel, ())
    return found


def _takers(name: str) -> set[str]:
    """``file::function`` with a parameter called ``name``, and
    ``file::Class.name`` for a class-level field called ``name``."""
    found: set[str] = set()

    def visit(node: ast.AST, rel: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                names = args.posonlyargs + args.args + args.kwonlyargs
                if any(arg.arg == name for arg in names):
                    found.add(f"{rel}::{'.'.join(scope + (child.name,))}")
                visit(child, rel, scope + (child.name,))
            elif isinstance(child, ast.ClassDef):
                for item in child.body:
                    if (
                        isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and item.target.id == name
                    ):
                        found.add(f"{rel}::{child.name}.{name}")
                visit(child, rel, scope + (child.name,))

    for rel, tree in _modules():
        visit(tree, rel, ())
    return found


def _public_defs() -> list[tuple[str, str, Path, int]]:
    """``(file::qualified name, name, path, def line)`` of every public
    top-level function and class, and every public method of a public
    top-level class."""
    found = []
    for rel, tree in _modules():
        path = SRC / rel
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            found.append((f"{rel}::{node.name}", node.name, path, node.lineno))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{rel}::{node.name}.{item.name}", item.name, path, item.lineno)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                )
    return found


def _uncalled() -> set[str]:
    """Public names no line under :data:`CALLER_DIRS` names, apart from
    their own ``def`` line."""
    seen: dict[str, set[tuple[Path, int]]] = {}
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*")):
            if path.suffix not in (".py", ".sh") or "__pycache__" in path.parts:
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            for lineno, line in enumerate(lines, 1):
                for word in set(_WORD.findall(line)):
                    seen.setdefault(word, set()).add((path, lineno))
    return {
        qualified
        for qualified, name, path, lineno in _public_defs()
        if not seen.get(name, set()) - {(path, lineno)}
    }


def test_repro_env_vars_are_the_census():
    found = _env_constants()
    assert set(found) == ENV_VARS, {
        name: found.get(name, "listed in ENV_VARS but never named")
        for name in sorted(set(found) ^ ENV_VARS)
    }


def test_catch_alls_sit_in_allowlisted_functions():
    found = _catch_alls()
    stray = [where for scope, where in found if scope not in CATCH_ALLS]
    assert stray == [], f"catch-all handler outside CATCH_ALLS at {stray}"
    stale = CATCH_ALLS - {scope for scope, _ in found}
    assert not stale, f"CATCH_ALLS entries without a catch-all: {sorted(stale)}"


def test_exec_fields_are_the_census():
    """No engine value is left to hold a field: ``repro.execution`` and
    the package's ``Exec`` export are gone."""
    assert importlib.util.find_spec("repro.execution") is None
    assert not hasattr(repro, "Exec")


def test_execution_takers_are_the_census():
    assert _takers("execution") == set()


def test_store_takers_are_the_census():
    assert _takers("store") == STORE_TAKERS


def test_every_public_name_is_called_or_listed():
    found = _uncalled()
    assert found <= UNCALLED, f"public names nothing calls: {sorted(found - UNCALLED)}"
    stale = UNCALLED - found
    assert not stale, f"UNCALLED entries that are called now: {sorted(stale)}"


def test_serving_constructors_are_the_census():
    found = {
        cls: tuple(inspect.signature(cls.__init__).parameters)[1:]
        for cls in CONSTRUCTORS
    }
    assert found == CONSTRUCTORS
