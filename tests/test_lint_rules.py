"""Table-driven tests for the project lint rules and the
suppression machinery.

Each rule gets (at least) one *bad* snippet that must produce exactly
that rule's diagnostic and one *good* snippet — the idiom the rule is
designed to allow — that must come back clean.  The paths are chosen to
match each rule's applicability globs (``engine/``, ``core/``, …).
A Hypothesis property then checks the suppression invariant: a
suppressed run reports exactly the unsuppressed diagnostics minus the
suppressed ones.
"""

from __future__ import annotations

import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import all_rules, get_rule, lint_source, rule_names
from repro.lint.suppress import UNUSED_SUPPRESSION

EXPECTED_RULES = [
    "explicit-dtype",
    "fingerprint-keyed-cache",
    "injectable-clock",
    "lock-guard-inference",
    "lock-with-only",
    "no-blocking-in-async",
]


def run(source: str, path: str, **kwargs) -> list:
    return lint_source(textwrap.dedent(source), path, **kwargs)


def rules_of(diagnostics) -> list[str]:
    return [d.rule for d in diagnostics]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_has_the_project_rules():
    assert rule_names() == EXPECTED_RULES


def test_every_rule_has_name_rationale_and_hint():
    for rule in all_rules():
        assert rule.name
        assert rule.rationale
        assert rule.hint


def test_get_rule_unknown_name_lists_known_rules():
    with pytest.raises(KeyError, match="lock-with-only"):
        get_rule("definitely-not-a-rule")


# ---------------------------------------------------------------------------
# table-driven rule cases
# ---------------------------------------------------------------------------

# (rule, path the snippet pretends to live at, bad snippet, good snippet)
CASES = [
    (
        "lock-with-only",
        "src/repro/engine/anywhere.py",
        """
        import threading
        lock = threading.Lock()

        def bump():
            lock.acquire()
            lock.release()
        """,
        """
        import threading
        lock = threading.Lock()

        def bump():
            with lock:
                pass
        """,
    ),
    (
        "injectable-clock",
        "src/repro/core/timer.py",
        """
        import time

        def stamp():
            return time.perf_counter()
        """,
        # referencing the function as a default is the blessed pattern
        """
        import time

        def stamp(clock=time.perf_counter):
            return clock()
        """,
    ),
    (
        "injectable-clock",
        "src/repro/trace/timer.py",
        """
        from time import monotonic

        def stamp():
            return monotonic()
        """,
        """
        from time import monotonic

        def stamp(clock=monotonic):
            return clock()
        """,
    ),
    (
        "explicit-dtype",
        "src/repro/core/kernel.py",
        """
        import numpy as np

        def ws(n):
            return np.empty(n)
        """,
        """
        import numpy as np

        def ws(n):
            return np.empty(n, dtype=np.float64)
        """,
    ),
    (
        "explicit-dtype",
        "src/repro/engine/workers.py",
        """
        import numpy as np
        a = np.arange(10)
        """,
        # positional dtype is accepted too
        """
        import numpy as np
        a = np.arange(0, 10, 1, np.int64)
        """,
    ),
    (
        "fingerprint-keyed-cache",
        "src/repro/engine/service.py",
        """
        def lookup(cache, lst, op):
            return cache.get((lst.n, op.name))
        """,
        """
        from repro.engine.cache import fingerprint

        def lookup(cache, lst, op):
            key = fingerprint(lst, op, False, "auto")
            return cache.get(key)
        """,
    ),
    (
        "fingerprint-keyed-cache",
        "src/repro/engine/service.py",
        """
        def put(self, result):
            self.cache.put(self.make_key(result), result)
        """,
        # keys stored into a container from a blessed name are blessed
        """
        from repro.engine.cache import fingerprint

        def put(self, cache, reqs, results):
            keys = {}
            for req in reqs:
                key = fingerprint(req.lst, req.op, False, "auto")
                keys[req.request_id] = key
            for req, result in zip(reqs, results):
                cache.put(keys[req.request_id], result)
        """,
    ),
    (
        "no-blocking-in-async",
        "src/repro/serve/handlers.py",
        """
        import time

        async def handler(payload):
            time.sleep(0.1)
            return payload
        """,
        """
        import asyncio

        async def handler(payload):
            await asyncio.sleep(0.1)
            return payload
        """,
    ),
    (
        "no-blocking-in-async",
        "src/repro/serve/handlers.py",
        """
        import time

        def warm_up():
            time.sleep(0.2)

        async def handler(payload):
            warm_up()
            return payload
        """,
        """
        import asyncio
        import time

        def warm_up():
            time.sleep(0.2)

        async def handler(payload):
            await asyncio.to_thread(warm_up)
            return payload
        """,
    ),
    (
        "lock-guard-inference",
        "src/repro/engine/stats.py",
        """
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.completed = 0

            def record(self, n):
                with self._lock:
                    self.completed += n

            def reset(self):
                self.completed = 0
        """,
        """
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.completed = 0

            def record(self, n):
                with self._lock:
                    self.completed += n

            def reset(self):
                with self._lock:
                    self.completed = 0
        """,
    ),
]


@pytest.mark.parametrize(
    "rule,path,bad,good",
    CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)],
)
def test_rule_flags_bad_and_allows_good(rule, path, bad, good):
    bad_diags = run(bad, path)
    assert rule in rules_of(bad_diags), f"{rule} missed its bad snippet"
    assert set(rules_of(bad_diags)) == {rule}, "unexpected extra findings"
    assert all(d.hint for d in bad_diags)
    good_diags = run(good, path)
    assert good_diags == [], f"{rule} flagged the blessed idiom: {good_diags}"


def test_path_scoping_keeps_scoped_rules_out_of_other_trees():
    # wall-clock calls are only a finding in core/engine/trace modules
    snippet = """
    import time
    t = time.time()
    """
    assert rules_of(run(snippet, "src/repro/core/x.py")) == ["injectable-clock"]
    assert run(snippet, "src/repro/bench/x.py") == []
    # a default dtype is only a finding where index arithmetic lives
    untyped = """
    import numpy as np
    a = np.zeros(4)
    """
    assert rules_of(run(untyped, "src/repro/core/x.py")) == ["explicit-dtype"]
    assert run(untyped, "src/repro/serve/x.py") == []


def test_serve_tree_carries_clock_and_lock_rules():
    # the serving front-end's latency accounting must stay deterministic
    # under injected clocks, exactly like core/engine/trace ...
    snippet = """
    import time
    t = time.perf_counter()
    """
    assert rules_of(run(snippet, "src/repro/serve/server.py")) == [
        "injectable-clock"
    ]
    # ... and the (unscoped) lock hygiene rule reaches it too
    locky = """
    def f(lock):
        lock.acquire()
        work()
        lock.release()
    """
    assert "lock-with-only" in rules_of(run(locky, "src/repro/serve/server.py"))


def test_cache_module_itself_is_exempt_from_cache_key_rule():
    snippet = """
    def get(self, key):
        return self._entries.get(key)
    """
    assert run(snippet, "src/repro/engine/cache.py") == []


def test_parse_error_becomes_a_diagnostic():
    diags = run("def broken(:\n", "src/repro/engine/x.py")
    assert rules_of(diags) == ["parse-error"]


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

BAD_LOCK = """
import threading
lock = threading.Lock()

def bump():
    lock.acquire(){marker}
    lock.release(){marker}
"""


def test_inline_suppression_silences_the_rule():
    marker = "  # repolint: disable=lock-with-only"
    diags = run(BAD_LOCK.format(marker=marker), "src/x.py")
    assert diags == []


def test_whole_line_suppression_covers_next_code_line():
    src = """
    import threading
    lock = threading.Lock()

    def bump():
        # repolint: disable=lock-with-only
        lock.acquire()
        lock.release()  # repolint: disable=lock-with-only
    """
    assert run(src, "src/x.py") == []


def test_suppressing_a_different_rule_does_not_silence():
    marker = "  # repolint: disable=explicit-dtype"
    diags = run(BAD_LOCK.format(marker=marker), "src/x.py")
    rules = rules_of(diags)
    assert rules.count("lock-with-only") == 2
    # and both useless markers are reported as unused
    assert rules.count(UNUSED_SUPPRESSION) == 2


def test_unused_suppression_is_reported_and_can_be_disabled():
    src = """
    x = 1  # repolint: disable=lock-with-only
    """
    assert rules_of(run(src, "src/x.py")) == [UNUSED_SUPPRESSION]
    assert run(src, "src/x.py", check_unused=False) == []


def test_unused_check_ignores_rules_outside_the_selected_set():
    # an explicit-dtype suppression is not "unused" when the rule never ran
    src = """
    import numpy as np
    a = np.zeros(4)  # repolint: disable=explicit-dtype
    """
    diags = run(
        src, "src/repro/engine/x.py", rules=[get_rule("lock-with-only")]
    )
    assert diags == []


def test_marker_inside_string_literal_is_not_a_suppression():
    src = '''
    import threading
    lock = threading.Lock()

    def bump():
        doc = "# repolint: disable=lock-with-only"
        lock.acquire()
        lock.release()  # repolint: disable=lock-with-only
        return doc
    '''
    assert rules_of(run(src, "src/x.py")) == ["lock-with-only"]


# ---------------------------------------------------------------------------
# Hypothesis property: suppressed == unsuppressed minus suppressed
# ---------------------------------------------------------------------------

_VIOLATIONS = [
    "lock.acquire()",
    "lock.release()",
    "hit = cache.get((1, 2))",
    "arr = np.zeros(4)",
    "t = time.perf_counter()",
]

_HEADER = (
    "import threading\n"
    "import numpy as np\n"
    "import time\n"
    "lock = threading.Lock()\n"
    "cache = {}\n"
)


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(
        st.sampled_from(range(len(_VIOLATIONS))), min_size=1, max_size=6
    ),
    suppress_mask=st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_suppression_property(picks, suppress_mask):
    """Suppressed runs report exactly the unsuppressed diagnostics minus
    those on suppressed lines."""
    path = "src/repro/engine/x.py"
    plain_lines, marked_lines = [], []
    for i, pick in enumerate(picks):
        stmt = _VIOLATIONS[pick]
        plain_lines.append(stmt)
        if suppress_mask[i]:
            marked_lines.append(stmt + "  # repolint: disable=" + ",".join(rule_names()))
        else:
            marked_lines.append(stmt)
    plain = _HEADER + "\n".join(plain_lines) + "\n"
    marked = _HEADER + "\n".join(marked_lines) + "\n"

    base = lint_source(plain, path, check_unused=False)
    got = lint_source(marked, path, check_unused=False)

    suppressed_lines = {
        len(_HEADER.splitlines()) + 1 + i
        for i in range(len(picks))
        if suppress_mask[i]
    }
    expected = [d for d in base if d.line not in suppressed_lines]
    assert [(d.line, d.rule) for d in got] == [
        (d.line, d.rule) for d in expected
    ]
