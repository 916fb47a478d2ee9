"""The rule registry and the five repo-specific invariant rules.

Each rule machine-checks one convention the reproduction's correctness
rests on (see README "Static analysis" for the invariant each protects):

Rows (CHANGES-style):
    capability-hook    REP001 - ``getattr(x, "name", ...)`` probes name real attrs
    determinism        REP003 - no global-state / unseeded RNGs, no wall clock
    ulp-mixed-math     REP004 - no scalar ``math.f`` in modules using ``numpy.f``
    hot-loop           REP005 - no scalar sensor-axis ``for`` loops in hot modules
    async-blocking     REP006 - no blocking calls inside ``async def`` service code
"""

from __future__ import annotations

import ast
import difflib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .index import ModuleIndex, RepoIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import LintConfig

__all__ = ["Finding", "Rule", "RULES", "register"]


@dataclass(frozen=True, order=True)
class Finding:
    """One lint hit, pinned to a file/line and stable under reordering."""

    path: str
    line: int
    col: int
    rule: str
    code: str
    message: str


class Rule:
    """Base: subclass, set the class attrs, implement :meth:`check`."""

    id: str = ""
    code: str = ""
    summary: str = ""

    def check(
        self, module: ModuleIndex, repo: RepoIndex, config: "LintConfig"
    ) -> Iterator[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def finding(self, module: ModuleIndex, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            code=self.code,
            message=message,
        )


RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    RULES[cls.id] = cls()
    return cls


def _in_scope(relpath: str, scope: tuple[str, ...]) -> bool:
    return any(relpath == s or relpath.startswith(s + "/") for s in scope)


# ----------------------------------------------------------------------
# REP001 — capability-hook integrity
# ----------------------------------------------------------------------
@register
class CapabilityHookRule(Rule):
    """``getattr(x, "name", default)`` probes must name a defined attribute.

    A capability discovered through a bare string probe silently turns
    into a permanent miss when the providing class renames the attribute.  Every literal probe in the
    capability scope must resolve against the repo-wide defined-attribute
    table built by the index.
    """

    id = "capability-hook"
    code = "REP001"
    summary = "getattr capability probes must name an attribute defined in the repo"

    def check(self, module, repo, config):
        if not _in_scope(module.relpath, config.capability_scope):
            return
        known = repo.defined_attrs
        extra = set(config.extra_capabilities)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
            ):
                continue
            arg = node.args[1]
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                continue
            name = arg.value
            if not name.isidentifier() or name.startswith("__"):
                continue
            if name in known or name in extra:
                continue
            close = difflib.get_close_matches(name, known, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            yield self.finding(
                module,
                node,
                f'capability probe {node.func.id}(..., "{name}") names no '
                f"attribute defined anywhere in the indexed tree{hint}",
            )


# ----------------------------------------------------------------------
# REP003 — determinism
# ----------------------------------------------------------------------
_NP_RANDOM_SAFE = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64", "RandomState",
}
_SEEDED_CTORS = {"numpy.random.default_rng", "numpy.random.RandomState", "random.Random"}
_WALL_CLOCK = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}


@register
class DeterminismRule(Rule):
    """Replay/parity contracts require seeded RNGs and no wall clock.

    Every hot-path contract in the repo (fused-vs-per-row gains, service
    live-vs-offline, sweep reproducibility) is *bit-identical*; a single
    global-state RNG draw or wall-clock read breaks replay silently.
    Flags module-level ``np.random.*`` / ``random.*`` draws, RNG
    constructors called without a seed, and wall-clock reads —
    everywhere under ``src/repro/`` except the CLI entry points.
    (``time.perf_counter`` stays allowed: monotonic profiling only.)
    """

    id = "determinism"
    code = "REP003"
    summary = "no global-state or unseeded RNGs, no wall-clock reads"

    def check(self, module, repo, config):
        if _in_scope(module.relpath, config.determinism_exempt):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = module.qualified_name(node.func)
            if qualified is None:
                continue
            if qualified in _SEEDED_CTORS:
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        f"unseeded {qualified.rsplit('.', 1)[-1]}() — pass an "
                        f"explicit seed so replay/parity contracts stay "
                        f"bit-identical",
                    )
                continue
            if qualified.startswith("numpy.random."):
                tail = qualified.split(".", 2)[2]
                if tail not in _NP_RANDOM_SAFE:
                    yield self.finding(
                        module,
                        node,
                        f"global-state numpy RNG call {tail!r} — draw from a "
                        f"seeded np.random.Generator instead",
                    )
            elif qualified.startswith("random.") and qualified.count(".") == 1:
                yield self.finding(
                    module,
                    node,
                    f"global-state stdlib RNG call {qualified!r} — use a "
                    f"seeded random.Random or np.random.Generator",
                )
            elif qualified in _WALL_CLOCK:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read {_WALL_CLOCK[qualified]} — engine state "
                    f"must be a function of slot/seed only (time.perf_counter "
                    f"is fine for profiling)",
                )


# ----------------------------------------------------------------------
# REP004 — ULP hygiene
# ----------------------------------------------------------------------
_TRANSCENDENTALS = {
    "hypot", "sqrt", "exp", "expm1", "log", "log1p", "log2", "log10",
    "pow", "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
}


@register
class UlpMixedMathRule(Rule):
    """Scalar ``math.f`` is banned in modules that also use ``numpy.f``.

    ``np.hypot`` and ``math.hypot`` (and friends) may differ in the last
    ulp, so a module mixing the two forms for the same function is one
    refactor away from a bit-parity break between its scalar and batch
    paths (the PR-2 caveat).  Pinned scalar reference paths carry a
    pragma with the parity reason.
    """

    id = "ulp-mixed-math"
    code = "REP004"
    summary = "no scalar math.f in modules that also use the numpy form"

    def check(self, module, repo, config):
        mixed = {
            fn for fn in _TRANSCENDENTALS if f"numpy.{fn}" in module.qualified_refs
        }
        if not mixed:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = module.qualified_name(node.func)
            if qualified is None or not qualified.startswith("math."):
                continue
            fn = qualified.split(".", 1)[1]
            if fn in mixed:
                yield self.finding(
                    module,
                    node,
                    f"scalar math.{fn} in a module that also uses numpy.{fn} "
                    f"— the two can differ in the last ulp; use the numpy "
                    f"form, or pragma the pinned scalar parity path",
                )


# ----------------------------------------------------------------------
# REP005 — hot-path scalar loops
# ----------------------------------------------------------------------
@register
class HotLoopRule(Rule):
    """No scalar ``for`` loops over the sensor axis in hot modules.

    The sensor axis reaches 10^5; every hot path iterates it as stacked
    arrays.  A ``for`` statement over a sensor-indexed sequence
    (``sensors``, ``snapshots``, ``candidates``, ``announcements`` — bare,
    ``enumerate(...)`` or ``range(len(...))``) in a declared hot module is
    either a regression or a deliberate scalar parity oracle, which
    carries an allow-pragma with the reason.
    """

    id = "hot-loop"
    code = "REP005"
    summary = "no scalar sensor-axis for-loops in declared hot modules"

    def check(self, module, repo, config):
        if not _in_scope(module.relpath, config.hot_scope):
            return
        names = set(config.hot_iterables)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.For):
                continue
            target = self._sensor_axis_name(node.iter, names)
            if target is None:
                continue
            yield self.finding(
                module,
                node,
                f"scalar for-loop over sensor-indexed {target!r} in a hot "
                f"module — vectorize over the announcement block, or pragma "
                f"the deliberate scalar path with its reason",
            )

    @staticmethod
    def _sensor_axis_name(node: ast.expr, names: set[str]) -> str | None:
        if isinstance(node, ast.Name) and node.id in names:
            return node.id
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "enumerate" and node.args:
                inner = node.args[0]
                if isinstance(inner, ast.Name) and inner.id in names:
                    return inner.id
            if node.func.id == "range" and node.args:
                inner = node.args[0]
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "len"
                    and inner.args
                    and isinstance(inner.args[0], ast.Name)
                    and inner.args[0].id in names
                ):
                    return inner.args[0].id
        return None


# ----------------------------------------------------------------------
# REP006 — async hygiene
# ----------------------------------------------------------------------
_BLOCKING_CALLS = {
    "time.sleep": "await asyncio.sleep(...) instead",
    "subprocess.run": "use asyncio.create_subprocess_exec",
    "subprocess.call": "use asyncio.create_subprocess_exec",
    "subprocess.check_call": "use asyncio.create_subprocess_exec",
    "subprocess.check_output": "use asyncio.create_subprocess_exec",
    "subprocess.Popen": "use asyncio.create_subprocess_exec",
    "os.system": "use asyncio.create_subprocess_shell",
    "urllib.request.urlopen": "use an executor (run_in_executor)",
    "socket.create_connection": "use asyncio.open_connection",
}
_QUEUE_TYPES = {"queue.Queue", "queue.SimpleQueue", "queue.LifoQueue", "queue.PriorityQueue"}
_QUEUE_BLOCKING_METHODS = ("get", "put", "join")


@register
class AsyncBlockingRule(Rule):
    """No blocking calls inside ``async def`` in the service package.

    The marketplace ticker is a single event loop; one ``time.sleep`` or
    sync ``Queue.get`` inside a coroutine stalls every client's admission
    path.  Flags the known blocking stdlib calls and blocking methods on
    names bound to sync ``queue.Queue`` instances within the module.
    """

    id = "async-blocking"
    code = "REP006"
    summary = "no blocking calls inside async def service code"

    def check(self, module, repo, config):
        if not _in_scope(module.relpath, config.async_scope):
            return
        sync_queues = self._blocking_queue_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            yield from self._check_coroutine(module, node, sync_queues)

    @staticmethod
    def _blocking_queue_names(module: ModuleIndex) -> set[str]:
        """Names (locals and ``self.x`` attrs) bound to sync queue.Queue."""
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            if module.qualified_name(node.value.func) not in _QUEUE_TYPES:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    names.add(target.attr)
        return names

    def _check_coroutine(self, module, func: ast.AsyncFunctionDef, sync_queues):
        # Walk the coroutine body but stop at nested *sync* defs: those run
        # via executors/callbacks, not on the event loop's critical path.
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            for child in ast.iter_child_nodes(node):
                stack.append(child)
            if not isinstance(node, ast.Call):
                continue
            qualified = module.qualified_name(node.func)
            if qualified in _BLOCKING_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"blocking {qualified}() inside async def "
                    f"{func.name}() — {_BLOCKING_CALLS[qualified]}",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _QUEUE_BLOCKING_METHODS
            ):
                receiver = node.func.value
                name = (
                    receiver.id if isinstance(receiver, ast.Name)
                    else receiver.attr if isinstance(receiver, ast.Attribute)
                    else None
                )
                if name in sync_queues:
                    yield self.finding(
                        module,
                        node,
                        f"blocking {name}.{node.func.attr}() on a sync "
                        f"queue.Queue inside async def {func.name}() — use "
                        f"asyncio.Queue (or run it in an executor)",
                    )
