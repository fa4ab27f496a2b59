"""Project-invariant static analysis (``repro.lint``).

The engine accumulated concurrency and numeric invariants that
existed only as prose — no bare lock ``acquire``, injectable clocks
only, explicit dtypes in the kernels, cache keys only from the blessed
fingerprint helper.  This package turns each of
those invariants into an AST-based rule that CI enforces on every run
(``repro-c90 lint src``), so review memory is no longer the
enforcement mechanism.

Layout
------

``framework``
    :class:`Rule` base class, the rule registry, and the
    :class:`LintContext` each rule receives (parsed AST + source).
``rules``
    The six project rules (see ``docs/static-analysis.md`` for the
    catalog and rationale).
``suppress``
    ``# repolint: disable=RULE`` comment handling, including the
    unused-suppression check that keeps stale disables from rotting.
``runner``
    File collection and rule execution (:func:`lint_paths`).
``report``
    Human and JSON reporters.
``lockorder``
    The *runtime* companion: an instrumented lock wrapper that records
    the lock acquisition-order graph and raises on cycles, used by the
    engine-concurrency test suite to race-audit the thread-pool
    driver.
"""

from .diagnostics import Diagnostic
from .framework import LintContext, Rule, all_rules, get_rule, rule_names
from .lockorder import (
    CheckedLock,
    LockOrderError,
    LockOrderGraph,
    instrumented_locks,
)
from .report import render_human, render_json
from .runner import LintResult, lint_file, lint_paths, lint_source
from .suppress import Suppression, find_suppressions

__all__ = [
    "CheckedLock",
    "Diagnostic",
    "LintContext",
    "LintResult",
    "LockOrderError",
    "LockOrderGraph",
    "Rule",
    "Suppression",
    "all_rules",
    "find_suppressions",
    "get_rule",
    "instrumented_locks",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_human",
    "render_json",
    "rule_names",
]
