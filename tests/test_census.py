"""A census of the knobs and catch-all handlers in ``src/repro``.

Four checks keep these counts from creeping back (ROADMAP aims 2 and 3):

* the ``REPRO_*`` environment variables the package names as whole
  string constants are exactly :data:`ENV_VARS`;
* every ``except Exception``, ``except BaseException`` and bare
  ``except`` sits in a function listed in :data:`CATCH_ALLS`;
* there is no ``Exec`` value, and no function or class field takes an
  ``execution``: no caller picks an engine, the input does (a fault
  plan runs the literal flood);
* the constructor parameters of the serving stack's artifact store,
  concurrent front and file lock are exactly :data:`CONSTRUCTORS`.

A change that adds a variable, a catch-all, an engine switch or a
constructor knob has to edit this file, with its reason, in its own
diff.
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

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ENV_VARS = {
    "REPRO_OBS",  # the telemetry plane's gate
    "REPRO_STORE",  # directory of the process-default artifact store
    "REPRO_STORE_CHAOS",  # the store's fault-injection hook
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


def _execution_takers() -> set[str]:
    """``file::function`` with an ``execution`` parameter, and
    ``file::Class.execution`` for a class-level ``execution`` field."""
    found: set[str] = set()

    def visit(node: ast.AST, rel: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                names = args.posonlyargs + args.args + args.kwonlyargs
                if any(arg.arg == "execution" for arg in names):
                    found.add(f"{rel}::{'.'.join(scope + (child.name,))}")
                visit(child, rel, scope + (child.name,))
            elif isinstance(child, ast.ClassDef):
                for item in child.body:
                    if (
                        isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and item.target.id == "execution"
                    ):
                        found.add(f"{rel}::{child.name}.execution")
                visit(child, rel, scope + (child.name,))

    for rel, tree in _modules():
        visit(tree, rel, ())
    return found


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
    assert _execution_takers() == set()


def test_serving_constructors_are_the_census():
    found = {
        cls: tuple(inspect.signature(cls.__init__).parameters)[1:]
        for cls in CONSTRUCTORS
    }
    assert found == CONSTRUCTORS
