"""Rule base class, registry, and the per-file lint context.

A rule is a small class: a unique kebab-case ``name``, a one-line
``rationale``, a default ``hint`` (the fix-it suggestion attached to
its diagnostics), a set of ``paths`` glob patterns selecting the files
it applies to, and a ``check(context)`` generator yielding
:class:`~repro.lint.diagnostics.Diagnostic` records.

Rules register themselves with the :func:`register` decorator; the
runner and the CLI discover them through :func:`all_rules`.  Adding a
rule is therefore one class in ``rules.py`` plus a fixture in the
bad-fixture corpus — see ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import PurePosixPath
from collections.abc import Iterable, Iterator
from typing import Any

from .diagnostics import Diagnostic

__all__ = [
    "LintContext",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
    "rule_names",
]


@dataclass
class LintContext:
    """Everything a rule may inspect about one file.

    ``path`` is the path as given to the runner; ``norm_path`` is its
    POSIX form used for rule applicability matching, so path patterns
    behave identically on every platform.  ``tree`` is the parsed
    module AST (parents are linked — every node carries a
    ``_lint_parent`` attribute), ``source`` the raw text and ``lines``
    its splitlines.
    """

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        _link_parents(self.tree)

    @property
    def norm_path(self) -> str:
        return str(PurePosixPath(self.path.replace("\\", "/")))

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (``None`` for the module)."""
        return getattr(node, "_lint_parent", None)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The innermost function definition containing ``node``."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None


def _link_parents(tree: ast.AST) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._lint_parent = parent  # type: ignore[attr-defined]


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`.
    ``paths`` holds glob patterns matched against the *normalized
    POSIX* path (``fnmatch``); an empty tuple means every file.
    """

    #: unique kebab-case identifier (used in reports and suppressions)
    name: str = ""
    #: one-line reason the rule exists (shown by ``lint --list-rules``)
    rationale: str = ""
    #: default fix-it hint attached to this rule's diagnostics
    hint: str = ""
    #: applicability globs over the normalized path; empty = all files
    paths: tuple[str, ...] = ()

    def applies_to(self, norm_path: str) -> bool:
        if not self.paths:
            return True
        return any(fnmatch(norm_path, pat) for pat in self.paths)

    def check(self, context: LintContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # helpers shared by the concrete rules
    # ------------------------------------------------------------------

    def diagnostic(
        self,
        context: LintContext,
        node: ast.AST,
        message: str,
        hint: str | None = None,
        **data: Any,
    ) -> Diagnostic:
        return Diagnostic(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.name,
            message=message,
            hint=self.hint if hint is None else hint,
            data=data,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and index one rule by name."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"rule {cls.__name__} must set a name")
    if instance.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {instance.name!r}")
    _REGISTRY[instance.name] = instance
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, in name order."""
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def rule_names() -> list[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_rule(name: str) -> Rule:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown rule {name!r}; known rules: {', '.join(sorted(_REGISTRY))}"
        ) from None


def _ensure_loaded() -> None:
    # rules live in a sibling module that registers on import; imported
    # lazily so framework <-> rules stays acyclic
    from . import rules  # noqa: F401
