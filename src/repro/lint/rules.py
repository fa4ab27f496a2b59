"""The project-invariant rules (see ``docs/static-analysis.md``).

Each rule encodes one invariant the engine established in prose and
that a regression would break silently:

``lock-with-only``
    a bare ``acquire`` without a ``finally`` leaves the lock held on
    any exception between it and the ``release``.
``injectable-clock``
    direct wall-clock reads make span trees and queue-wait telemetry
    untestable (and non-deterministic under the counting clock).
``explicit-dtype``
    the paper's Section 3 kernels are 64-bit index arithmetic; a
    platform-dependent default integer (int32 on Windows) silently
    corrupts successor indices above 2**31.
``fingerprint-keyed-cache``
    a result cached under anything but the blessed structural
    fingerprint is a cache-poisoning hazard.

Two cross-function rules are static counterparts to the dynamic
detectors in ``repro.sanitize``:

``no-blocking-in-async``
    a blocking call inside an ``async def`` freezes every connection
    the serve loop multiplexes, not just the caller.
``lock-guard-inference``
    an attribute mutated both under and outside a ``with lock:`` block
    means one of the two sites is wrong about the locking discipline.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from .diagnostics import Diagnostic
from .framework import LintContext, Rule, register

__all__ = [
    "ExplicitDtypeRule",
    "FingerprintKeyedCacheRule",
    "InjectableClockRule",
    "LockGuardInferenceRule",
    "LockWithOnlyRule",
    "NoBlockingInAsyncRule",
]


def _call_name(node: ast.Call) -> str:
    """Trailing identifier of the called expression (``a.b.c()`` → ``c``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _receiver(node: ast.Call) -> ast.expr | None:
    """The object a method call is made on (``a.b()`` → ``a``)."""
    if isinstance(node.func, ast.Attribute):
        return node.func.value
    return None


def _keyword(node: ast.Call, name: str) -> ast.expr | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register
class LockWithOnlyRule(Rule):
    """No bare ``.acquire()``/``.release()`` on threading primitives."""

    name = "lock-with-only"
    rationale = (
        "a bare acquire without a finally leaves the lock held forever "
        "on any exception raised before the matching release"
    )
    hint = "replace the acquire/release pair with a `with lock:` block"

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        for call in _calls(context.tree):
            name = _call_name(call)
            if name not in ("acquire", "release"):
                continue
            yield self.diagnostic(
                context,
                call,
                f"bare .{name}() call outside a `with` block",
            )


@register
class InjectableClockRule(Rule):
    """Kernel/engine/trace modules read time only through an
    injectable clock parameter."""

    name = "injectable-clock"
    rationale = (
        "direct wall-clock reads make span trees and queue-wait "
        "telemetry non-deterministic; every timed component takes an "
        "injectable clock so tests drive a counting clock instead"
    )
    hint = (
        "take a `clock: Callable[[], float]` parameter defaulting to "
        "time.perf_counter (referencing the function is fine; calling "
        "it inline is not)"
    )
    paths = (
        "*/core/*.py",
        "*/engine/*.py",
        "*/trace/*.py",
        "*/serve/*.py",
        "*/calibrate/*.py",
    )

    _CLOCKS = frozenset(
        {"time", "perf_counter", "monotonic", "perf_counter_ns", "monotonic_ns"}
    )

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        imported = self._imported_clocks(context.tree)
        for call in _calls(context.tree):
            func = call.func
            flagged: str | None = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in self._CLOCKS
            ):
                flagged = f"time.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in imported:
                flagged = f"time.{imported[func.id]}"
            if flagged is not None:
                yield self.diagnostic(
                    context,
                    call,
                    f"direct {flagged}() call; clocks must be injected",
                )

    def _imported_clocks(self, tree: ast.Module) -> dict[str, str]:
        out: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._CLOCKS:
                        out[alias.asname or alias.name] = alias.name
        return out


@register
class ExplicitDtypeRule(Rule):
    """Array constructors in the kernels must pass ``dtype=``."""

    name = "explicit-dtype"
    rationale = (
        "the Section 3 kernels are 64-bit index arithmetic; numpy's "
        "platform-default integer (int32 on Windows) silently corrupts "
        "successor indices above 2**31"
    )
    hint = "pass dtype= explicitly (INDEX_DTYPE for successor arrays)"
    paths = (
        "*/core/*.py",
        "*/engine/workers.py",
        "*/apps/*.py",
        "*/analysis/*.py",
        "*/kernels/*.py",
        "*/bench/*.py",
    )

    #: constructor name -> number of positional args after which the
    #: dtype has been given positionally
    _CONSTRUCTORS = {"empty": 2, "zeros": 2, "ones": 2, "full": 3, "arange": 4}

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        for call in _calls(context.tree):
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
                and func.attr in self._CONSTRUCTORS
            ):
                continue
            if _keyword(call, "dtype") is not None:
                continue
            if len(call.args) >= self._CONSTRUCTORS[func.attr]:
                continue  # dtype given positionally
            yield self.diagnostic(
                context,
                call,
                f"np.{func.attr}(...) without an explicit dtype=",
            )


@register
class FingerprintKeyedCacheRule(Rule):
    """Cache keys may only come from the blessed fingerprint helper."""

    name = "fingerprint-keyed-cache"
    rationale = (
        "engine/cache.py's fingerprint() is the one digest that keys "
        "results; an ad-hoc key collides across structurally different "
        "problems and poisons every later hit"
    )
    hint = "derive the key with repro.engine.cache.fingerprint(...)"
    paths = ("*/engine/*.py",)

    _EXEMPT = ("*/engine/cache.py",)

    def applies_to(self, norm_path: str) -> bool:
        from fnmatch import fnmatch

        if any(fnmatch(norm_path, pat) for pat in self._EXEMPT):
            return False
        return super().applies_to(norm_path)

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        for call in _calls(context.tree):
            if _call_name(call) not in ("get", "put") or not call.args:
                continue
            recv = _receiver(call)
            if not self._is_cache(recv):
                continue
            scope: ast.AST = context.enclosing_function(call) or context.tree
            blessed_names, blessed_containers = self._blessings(scope)
            if self._blessed_key(call.args[0], blessed_names, blessed_containers):
                continue
            yield self.diagnostic(
                context,
                call,
                "cache key does not come from the blessed fingerprint() "
                "helper",
            )

    @staticmethod
    def _is_cache(recv: ast.expr | None) -> bool:
        if isinstance(recv, ast.Name):
            return "cache" in recv.id.lower()
        if isinstance(recv, ast.Attribute):
            return "cache" in recv.attr.lower()
        return False

    @staticmethod
    def _is_fingerprint_call(node: ast.expr) -> bool:
        return isinstance(node, ast.Call) and _call_name(node) == "fingerprint"

    def _blessings(self, scope: ast.AST) -> tuple[set[str], set[str]]:
        """Names assigned from ``fingerprint(...)`` and containers whose
        items are such names (one level of taint, same scope)."""
        names: set[str] = set()
        containers: set[str] = set()
        for node in ast.walk(scope):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if value is not None and self._is_fingerprint_call(value):
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        containers.add(target.value.id)
        # second pass: container[...] = blessed_name
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name)
                and node.value.id in names
            ):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        containers.add(target.value.id)
        return names, containers

    def _blessed_key(
        self,
        key: ast.expr,
        blessed_names: set[str],
        blessed_containers: set[str],
    ) -> bool:
        if self._is_fingerprint_call(key):
            return True
        if isinstance(key, ast.Name) and key.id in blessed_names:
            return True
        if (
            isinstance(key, ast.Subscript)
            and isinstance(key.value, ast.Name)
            and key.value.id in blessed_containers
        ):
            return True
        return False


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Nodes belonging to ``fn``'s own body, not to nested functions
    (a blocking call inside a nested def does not run on ``fn``'s
    caller unless something invokes it — that call site is analyzed
    separately)."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        todo.extend(ast.iter_child_nodes(node))


@register
class NoBlockingInAsyncRule(Rule):
    """No blocking calls inside ``async def`` — directly or one hop
    away through a sync helper in the same module."""

    name = "no-blocking-in-async"
    rationale = (
        "the serve loop multiplexes every connection on one thread; a "
        "single blocking call inside an async def freezes all of them "
        "at once (the stall watchdog catches this at runtime, this "
        "rule catches it in review)"
    )
    hint = (
        "cross into a thread with loop.run_in_executor/asyncio.to_thread, "
        "or use the async equivalent (asyncio.sleep)"
    )

    _TIME_BLOCKERS = frozenset({"sleep"})
    _OS_BLOCKERS = frozenset({"system", "waitpid", "wait"})
    _SUBPROCESS_BLOCKERS = frozenset({"run", "call", "check_call", "check_output"})

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        time_sleeps = self._imported_time_sleeps(context.tree)
        helpers = self._blocking_helpers(context.tree, time_sleeps)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for sub in _own_nodes(node):
                if not isinstance(sub, ast.Call):
                    continue
                reason = self._blocking_reason(sub, time_sleeps)
                if reason is None:
                    helper = self._helper_target(sub)
                    if helper is not None and helper in helpers:
                        reason = (
                            f"{helper}() blocks ({helpers[helper]} inside it); "
                            "called from an async def"
                        )
                if reason is not None:
                    yield self.diagnostic(
                        context,
                        sub,
                        f"blocking call in async def {node.name}: {reason}",
                    )

    def _imported_time_sleeps(self, tree: ast.Module) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._TIME_BLOCKERS:
                        out.add(alias.asname or alias.name)
        return out

    def _blocking_reason(self, call: ast.Call, time_sleeps: set[str]) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in time_sleeps:
                return "time.sleep()"
            if func.id == "input":
                return "input()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        recv = func.value
        if isinstance(recv, ast.Name):
            if recv.id == "time" and func.attr in self._TIME_BLOCKERS:
                return "time.sleep()"
            if recv.id == "os" and func.attr in self._OS_BLOCKERS:
                return f"os.{func.attr}()"
            if recv.id == "subprocess" and func.attr in self._SUBPROCESS_BLOCKERS:
                return f"subprocess.{func.attr}()"
        if func.attr == "result" and not call.args and not call.keywords:
            return ".result() on a future (await it instead)"
        if func.attr == "run_batch":
            return "Engine.run_batch() runs kernels on the event loop"
        return None

    def _blocking_helpers(
        self, tree: ast.Module, time_sleeps: set[str]
    ) -> dict[str, str]:
        """Sync functions in this module whose bodies block directly —
        the one-hop cross-function half of the rule."""
        out: dict[str, str] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for sub in _own_nodes(node):
                if isinstance(sub, ast.Call):
                    reason = self._blocking_reason(sub, time_sleeps)
                    if reason is not None:
                        out[node.name] = reason
                        break
        return out

    @staticmethod
    def _helper_target(call: ast.Call) -> str | None:
        """`helper()` or `self.helper()` — names resolvable in-module."""
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return func.attr
        return None


@register
class LockGuardInferenceRule(Rule):
    """An attribute mutated both under and outside a ``with lock:``
    block is evidence that one of the sites forgot the lock."""

    name = "lock-guard-inference"
    rationale = (
        "the locking discipline for shared attributes is implicit in "
        "the with-blocks around their writes; a class that mutates the "
        "same attribute both under a lock and bare has (at least) one "
        "site racing the others — the dynamic race detector proves it "
        "at runtime, this rule flags it from the source alone"
    )
    hint = (
        "wrap the bare mutation in the same `with lock:` (or `with "
        "guarded(lock, ...):`) the other sites use, or document the "
        "attribute as single-threaded and stop locking it elsewhere"
    )
    paths = (
        "*/engine/*.py",
        "*/serve/*.py",
        "*/calibrate/*.py",
    )

    _CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})
    _LOCKISH = ("lock", "mutex", "cv", "cond", "guard", "gate")

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(context, node)

    def _check_class(
        self, context: LintContext, cls: ast.ClassDef
    ) -> Iterable[Diagnostic]:
        locked: dict[str, list[ast.AST]] = {}
        bare: dict[str, list[ast.AST]] = {}
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in self._CONSTRUCTORS:
                continue
            for site, attr in self._self_mutations(method):
                bucket = locked if self._under_lock(context, site, method) else bare
                bucket.setdefault(attr, []).append(site)
        for attr, sites in sorted(bare.items()):
            if attr not in locked:
                continue
            for site in sites:
                yield self.diagnostic(
                    context,
                    site,
                    f"self.{attr} is mutated here without the lock that "
                    f"guards its other mutation sites in {cls.name}",
                )

    def _self_mutations(
        self, method: ast.AST
    ) -> Iterator[tuple[ast.AST, str]]:
        for node in _own_nodes(method):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Tuple):
                    for elt in target.elts:
                        attr = self._self_attr(elt)
                        if attr is not None:
                            yield node, attr
                else:
                    attr = self._self_attr(target)
                    if attr is not None:
                        yield node, attr

    @staticmethod
    def _self_attr(target: ast.expr) -> str | None:
        # `self.x = ...` and `self.x[...] = ...` both mutate x
        if isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
        return None

    def _under_lock(
        self, context: LintContext, site: ast.AST, method: ast.AST
    ) -> bool:
        for anc in context.ancestors(site):
            if anc is method:
                return False
            # sync with-blocks only: `async with` guards the event loop's
            # cooperative tasks, not cross-thread attribute access
            if isinstance(anc, ast.With) and any(
                self._lockish(item.context_expr) for item in anc.items
            ):
                return True
        return False

    def _lockish(self, expr: ast.expr) -> bool:
        for node in ast.walk(expr):
            ident = ""
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            lowered = ident.lower()
            if lowered and any(token in lowered for token in self._LOCKISH):
                return True
        return False

