"""A census of the knobs, catch-all handlers, public names, parameters
and imports in ``src/repro``.

Eight checks keep these counts from creeping back (ROADMAP aims 2 and 3):

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
  of a public class, is read by code outside ``tests/`` (see
  :func:`uncalled`), or is listed in :data:`UNCALLED` with its reason;
* every defaulted parameter or dataclass field of a public callable is
  passed by some call in the repository, tests included (see
  :func:`unpassed`), or is listed in :data:`UNPASSED` with its reason;
* every import in ``src/``, ``tests/``, ``tools/`` and ``examples/`` is
  read by its module (see :func:`unused_imports`).

The last three find readers and callers on the AST, not as words of a
line: an import, an ``__all__`` entry or a local variable that shares a
method's name is no caller.  :class:`TestScanRules` pins those rules on
small sources.

A change that adds a variable, a catch-all, an engine switch, a store
parameter, a constructor knob, a name nothing reads, a default nothing
overrides or an import nothing uses has to edit this file, with its
reason, in its own diff.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import re
import textwrap
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.service import ConcurrentSimulationService
from repro.store import ArtifactStore, FileLock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
# The prefix of a package module's key in the scans' ``{key: tree}`` maps.
PACKAGE = "src/repro/"
# Every directory the scans parse; ``tests/`` supplies calls and imports,
# never readers of a public name.
SCANNED_DIRS = ("src", "tests", "tools", "examples", "servebench")
# Where every import must be read (``servebench/`` is the benchmark's own).
IMPORT_DIRS = ("src", "tests", "tools", "examples")

ENV_VARS = {
    "REPRO_OBS",  # the telemetry plane's gate
    "REPRO_STORE_CHAOS",  # the store's fault-injection hook
}

STORE_TAKERS = {
    "service/service.py::SimulationService.__init__",
    "service/concurrent.py::ConcurrentSimulationService.__init__",
}

# Public names no code outside ``tests/`` reads, each with its reason.
# The Context methods are the node-program API: user programs and the
# tests' programs call all of it, the package's own programs a subset.
UNCALLED = {
    "local/node.py::Context.neighbor": "Context API: KT1 neighbor ids",
    "local/node.py::Context.rng": "Context API: a node's private random stream",
    "local/node.py::Context.wake": "Context API: ends the sleep a node asked for",
    "local/node.py::Context.reactive": "Context API: a node's halt mode",
    "local/node.py::Context.sleeping": "Context API: a node's sleep state",
    "local/edges.py::EdgeRef.other": "the far endpoint of an edge Network.edge returns",
}

# Defaulted parameters no call passes, each with its reason.
UNPASSED: dict[str, str] = {}

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
    # The inner service's own arguments, the worker pool's size and the
    # batching window; deadlines are per call.
    ConcurrentSimulationService: (
        "network",
        "store",
        "params",
        "seed",
        "max_workers",
        "merge_window",
    ),
    # The lock file and how long to wait on a live holder.
    FileLock: ("path", "timeout"),
}

_ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
_BROAD = {"Exception", "BaseException"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, ast.parse(path.read_text(encoding="utf-8"), filename=rel)


def _walk(tree: ast.AST):
    """Yield ``(node, scope)`` for every node of ``tree``; ``scope`` is the
    tuple of enclosing function and class definitions.  The values of
    ``__all__`` assignments are not visited: a listing is no reader."""
    stack = [(tree, ())]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                continue
        inner = scope + (node,) if isinstance(node, _SCOPES) else scope
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


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
    return [
        (f"{rel}::{'.'.join(s.name for s in scope)}", f"{rel}:{node.lineno}")
        for rel, tree in _modules()
        for node, scope in _walk(tree)
        if isinstance(node, ast.ExceptHandler) and _is_catch_all(node)
    ]


def _takers(name: str) -> set[str]:
    """``file::function`` with a parameter called ``name``, and
    ``file::Class.name`` for a class-level field called ``name``."""
    found: set[str] = set()
    for rel, tree in _modules():
        for node, scope in _walk(tree):
            if isinstance(node, _DEFS):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(arg.arg == name for arg in args):
                    found.add(f"{rel}::{'.'.join(s.name for s in scope + (node,))}")
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == name
                and scope
                and isinstance(scope[-1], ast.ClassDef)
            ):
                found.add(f"{rel}::{scope[-1].name}.{name}")
    return found


# --- the AST scans: names, parameters, imports ------------------------------


def parse_sources(sources: dict[str, str]) -> dict[str, ast.Module]:
    """``{key: tree}`` for ``{key: source}``; a key is a path from the
    repository root, such as ``src/repro/graphs/distance.py``."""
    return {
        key: ast.parse(textwrap.dedent(text), filename=key)
        for key, text in sources.items()
    }


def _repo_trees() -> dict[str, ast.Module]:
    return parse_sources(
        {
            path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
            for directory in SCANNED_DIRS
            for path in sorted((ROOT / directory).rglob("*.py"))
        }
    )


def _api_classes() -> set[str]:
    """``file::Class`` of every class in ``repro.__all__``: their methods
    and constructor parameters are the package's API by rule."""
    found = set()
    for name in repro.__all__:
        value = getattr(repro, name)
        if inspect.isclass(value):
            path = Path(inspect.getsourcefile(value)).resolve()
            found.add(f"{path.relative_to(SRC).as_posix()}::{name}")
    return found


def _annotation_strings(tree: ast.AST) -> set[int]:
    """``id()`` of every string constant inside an annotation."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            annotations += [a.annotation for a in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return {
        id(const)
        for annotation in annotations
        if annotation is not None
        for const in ast.walk(annotation)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    }


def _reads(tree: ast.AST):
    """Yield ``(name, kind, scope)`` for every read in ``tree``: kind
    ``"name"`` for a ``Name`` load, ``"attr"`` for an attribute load and
    ``"str"`` for a string constant.  A string annotation is also read as
    the code it holds."""
    in_annotation = _annotation_strings(tree)
    for node, scope in _walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, "name", scope
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, "attr", scope
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, "str", scope
            if id(node) in in_annotation:
                try:
                    inner = ast.parse(node.value.strip(), mode="eval")
                except SyntaxError:  # a Literal's text, not code
                    continue
                for name, kind, _ in _reads(inner):
                    yield name, kind, scope


@dataclass(frozen=True)
class _Def:
    """A public definition under ``src/repro``."""

    qualified: str  # "local/node.py::Context.send"
    key: str  # the module's key
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    owner: ast.ClassDef | None  # the class of a method

    @property
    def cls(self) -> str:
        """``file::Class`` of a class or a method (a function's own name)."""
        return f"{self.key[len(PACKAGE):]}::{(self.owner or self.node).name}"


def _public_defs(trees: dict[str, ast.Module]):
    """Every public top-level function and class, and every public method
    of a public top-level class, of the package's modules."""
    for key, tree in trees.items():
        if not key.startswith(PACKAGE):
            continue
        rel = key[len(PACKAGE):]
        for node in tree.body:
            if not isinstance(node, _SCOPES) or node.name.startswith("_"):
                continue
            yield _Def(f"{rel}::{node.name}", key, node, None)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not item.name.startswith("_"):
                        yield _Def(f"{rel}::{node.name}.{item.name}", key, item, node)


def uncalled(trees: dict[str, ast.Module], api: set[str] = frozenset()) -> set[str]:
    """Public names that no code outside ``tests/`` reads.

    A top-level function or class is read by a ``Name`` load, an attribute
    load or a string constant; a method only by an attribute load or a
    string constant.  Neither is read by an import, an ``__all__`` entry
    or a read inside its own body.  The methods of the classes in ``api``
    are exempt."""
    readers: dict[tuple[str, str], list[tuple[str, tuple]]] = {}
    for key, tree in trees.items():
        if key.startswith("tests/"):
            continue
        for name, kind, scope in _reads(tree):
            readers.setdefault((name, kind), []).append((key, scope))

    def outside(definition: _Def, where: tuple[str, tuple]) -> bool:
        key, scope = where
        return key != definition.key or all(
            node is not definition.node for node in scope
        )

    found = set()
    for definition in _public_defs(trees):
        if definition.owner is not None:
            if definition.cls in api:
                continue
            kinds = ("attr", "str")
        else:
            kinds = ("name", "attr", "str")
        name = definition.node.name
        if not any(
            outside(definition, where)
            for kind in kinds
            for where in readers.get((name, kind), ())
        ):
            found.add(definition.qualified)
    return found


def _decorators(node: ast.AST) -> set[str]:
    names = set()
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(target.attr if isinstance(target, ast.Attribute) else target.id)
    return names


def _dataclass_fields(node: ast.ClassDef):
    """Yield ``(name, annotation, index, defaulted)`` for each constructor
    field of a dataclass or ``NamedTuple``; ``init=False`` fields are left
    out."""
    bases = {b.id if isinstance(b, ast.Name) else b.attr for b in node.bases}
    if "dataclass" not in _decorators(node) and "NamedTuple" not in bases:
        return
    index = 0
    for item in node.body:
        if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        defaulted = value is not None
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in keywords or "default_factory" in keywords
        yield item.target.id, item.annotation, index, defaulted
        index += 1


def _parameters(definition: _Def):
    """Yield ``(name, annotation, positional index or None)`` for each
    defaulted parameter of a callable; a class's are its constructor's."""
    node = definition.node
    if isinstance(node, ast.ClassDef):
        init = next(
            (i for i in node.body if isinstance(i, _DEFS) and i.name == "__init__"),
            None,
        )
        if init is None:
            for name, annotation, index, defaulted in _dataclass_fields(node):
                if defaulted:
                    yield name, annotation, index
            return
        node, bound = init, 1
    elif definition.owner is not None:
        bound = 0 if "staticmethod" in _decorators(node) else 1
    else:
        bound = 0
    args = node.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):]
    for arg in defaulted:
        yield arg.arg, arg.annotation, positional.index(arg) - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, arg.annotation, None


@dataclass(frozen=True)
class _Call:
    method: bool  # called through an attribute
    positional: int
    keywords: frozenset[str]
    star: bool  # a ``*args``: every positional parameter may be passed
    double_star: bool  # a ``**kwargs`` of unknown keys: every parameter may be


def _calls(trees: dict[str, ast.Module]) -> dict[str, list[_Call]]:
    """``{callee name: [call, ...]}`` over every call in ``trees``.
    ``cls(...)`` in a class's body is a call of that class."""
    found: dict[str, list[_Call]] = {}
    for tree in trees.values():
        for node, scope in _walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                callee, method = func.attr, True
            elif isinstance(func, ast.Name):
                callee, method = func.id, False
                classes = [s for s in scope if isinstance(s, ast.ClassDef)]
                if callee == "cls" and classes:
                    callee = classes[-1].name
            else:
                continue
            keywords, double_star = set(), False
            for keyword in node.keywords:
                if keyword.arg is not None:
                    keywords.add(keyword.arg)
                elif isinstance(keyword.value, ast.Dict) and all(
                    isinstance(k, ast.Constant) for k in keyword.value.keys
                ):
                    keywords.update(k.value for k in keyword.value.keys)
                else:
                    double_star = True
            found.setdefault(callee, []).append(
                _Call(
                    method,
                    sum(not isinstance(a, ast.Starred) for a in node.args),
                    frozenset(keywords),
                    any(isinstance(a, ast.Starred) for a in node.args),
                    double_star,
                )
            )
    return found


def _is_path(name: str, annotation: ast.expr | None) -> bool:
    if name == "path" or name.endswith("_path"):
        return True
    return annotation is not None and "Path" in ast.unparse(annotation)


def unpassed(trees: dict[str, ast.Module], api: set[str] = frozenset()) -> set[str]:
    """``file::callable(parameter=)`` for each defaulted parameter, or
    defaulted dataclass field, of a public callable under ``src/repro``
    that no call in ``trees`` passes, by keyword or by position.

    A call is matched to a callable by name: a function or class by any
    call of its name, a method by an attribute call.  File paths, private
    parameters and ``init=False`` fields are exempt, and so are the
    constructors and methods of the classes in ``api``."""
    calls = _calls(trees)
    found = set()
    for definition in _public_defs(trees):
        if definition.cls in api:
            continue
        for name, annotation, index in _parameters(definition):
            if name.startswith("_") or _is_path(name, annotation):
                continue
            if not any(
                name in call.keywords
                or call.double_star
                or (index is not None and (index < call.positional or call.star))
                for call in calls.get(definition.node.name, ())
                if call.method or definition.owner is None
            ):
                found.add(f"{definition.qualified}({name}=)")
    return found


def unused_imports(trees: dict[str, ast.Module]) -> set[str]:
    """``file:line name`` for each import no code in its module reads.

    Package ``__init__.py`` files (whose imports are re-exports) and
    ``from __future__`` are skipped; a name read only in a string
    annotation is read."""
    found = set()
    for key, tree in trees.items():
        if key.partition("/")[0] not in IMPORT_DIRS or key.endswith("/__init__.py"):
            continue
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [
                    (alias.asname or alias.name.partition(".")[0], node.lineno)
                    for alias in node.names
                ]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [
                    (alias.asname or alias.name, node.lineno)
                    for alias in node.names
                    if alias.name != "*"
                ]
        read = {name for name, kind, _ in _reads(tree) if kind == "name"}
        found.update(f"{key}:{line} {name}" for name, line in bound if name not in read)
    return found


# --- the census -------------------------------------------------------------


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


def test_serving_constructors_are_the_census():
    found = {
        cls: tuple(inspect.signature(cls.__init__).parameters)[1:]
        for cls in CONSTRUCTORS
    }
    assert found == CONSTRUCTORS


@pytest.fixture(scope="module")
def repo_trees() -> dict[str, ast.Module]:
    return _repo_trees()


def test_every_public_name_is_called_or_listed(repo_trees):
    found = uncalled(repo_trees, _api_classes())
    stray = sorted(found - set(UNCALLED))
    assert not stray, f"public names nothing reads: {stray}"
    stale = set(UNCALLED) - found
    assert not stale, f"UNCALLED entries that are read now: {sorted(stale)}"


def test_every_default_is_passed_or_listed(repo_trees):
    found = unpassed(repo_trees, _api_classes())
    stray = sorted(found - set(UNPASSED))
    assert not stray, f"defaults no call passes: {stray}"
    stale = set(UNPASSED) - found
    assert not stale, f"UNPASSED entries that are passed now: {sorted(stale)}"


def test_every_import_is_read(repo_trees):
    assert unused_imports(repo_trees) == set()


class TestScanRules:
    """The scans' rules on small sources, so a later edit to a scan
    cannot widen it silently."""

    def test_a_package_reexport_is_no_reader(self):
        trees = parse_sources(
            {
                "src/repro/pkg/__init__.py": """
                    from repro.pkg.mod import helper, used

                    __all__ = ["helper", "used"]
                """,
                "src/repro/pkg/mod.py": """
                    def helper():
                        return helper.__name__

                    def used():
                        return 1
                """,
                "tests/test_mod.py": """
                    from repro.pkg import helper

                    helper()
                """,
                "examples/demo.py": """
                    import repro.pkg as pkg

                    pkg.used()
                """,
            }
        )
        assert uncalled(trees) == {"pkg/mod.py::helper"}

    def test_a_method_is_read_only_as_an_attribute(self):
        trees = parse_sources(
            {
                "src/repro/mod.py": """
                    class Box:
                        def size(self):
                            return 1

                        def heights(self):
                            return {}

                    def measure(box):
                        heights = box.size()
                        return heights
                """,
                "tests/test_mod.py": """
                    from repro.mod import Box

                    Box().heights()
                """,
                "tools/run.py": """
                    from repro.mod import Box, measure

                    measure(Box())
                """,
            }
        )
        assert uncalled(trees) == {"mod.py::Box.heights"}

    def test_a_keyword_passed_only_in_tests_counts(self):
        trees = parse_sources(
            {
                "src/repro/mod.py": """
                    def run(n, scale=1, *, fast=False, depth=1):
                        return n
                """,
                "examples/demo.py": """
                    from repro.mod import run

                    run(3, 2)
                """,
                "tests/test_mod.py": """
                    from repro.mod import run

                    run(3, fast=True)
                """,
            }
        )
        assert unpassed(trees) == {"mod.py::run(depth=)"}

    def test_cls_in_a_classmethod_calls_its_class(self):
        trees = parse_sources(
            {
                "src/repro/mod.py": """
                    from dataclasses import dataclass, field

                    @dataclass
                    class Plan:
                        seed: int = 0
                        rate: float = 0.5
                        notes: list = field(default_factory=list, init=False)

                        @classmethod
                        def parse(cls, text):
                            return cls(seed=int(text))
                """,
                "examples/demo.py": """
                    from repro.mod import Plan

                    Plan.parse("3")
                """,
            }
        )
        assert unpassed(trees) == {"mod.py::Plan(rate=)"}

    def test_an_import_read_only_in_a_string_annotation_is_read(self):
        trees = parse_sources(
            {
                "src/repro/mod.py": """
                    from __future__ import annotations

                    import json
                    from typing import TYPE_CHECKING

                    if TYPE_CHECKING:
                        from repro.other import Thing

                    def first(x: "Thing") -> "list[Thing]":
                        return [x]
                """,
                "src/repro/pkg/__init__.py": """
                    from repro.pkg.mod import helper
                """,
            }
        )
        assert unused_imports(trees) == {"src/repro/mod.py:4 json"}
