"""Unit and golden-value tests for the kernel backends.

The contract under test (docs/kernels.md): the ``c`` backend is
*bit-identical* to the NumPy reference for every operator and dtype,
floats included, because it runs numpy's Phase 2 and its loops fold in
numpy's order.  The Hypothesis suites at the bottom are the
golden-value gate.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.serial import serial_list_scan
from repro.core.operators import (
    AFFINE,
    BUILTIN_OPERATORS,
    MAX,
    MIN,
    SUM,
    XOR,
    Operator,
)
from repro.core.early_reconnect import early_reconnect_list_scan
from repro.core.forest import Forest, forest_list_scan, forest_scan
from repro.kernels import (
    ENV_VAR,
    available_backends,
    clib,
    default_backend_name,
    resolve_backend,
)
from repro.kernels.backend import CBackend, NumpyBackend
from repro.lists.generate import INDEX_DTYPE, random_list
from repro.lists.validate import ListStructureError

from .conftest import HAVE_C, make_affine_values

#: The backends the golden suites compare with the NumPy reference.
COMPILED = ("c",) if HAVE_C else ()

needs_c = pytest.mark.skipif(not HAVE_C, reason="the c backend does not build here")


def _scan(lst, op, backend):
    """The sublist scan of one list on ``backend``."""
    return forest_list_scan(lst.next, lst.values, [lst.head], op, rng=0, kernel_backend=backend)


class TestBackendSelection:
    def test_available_contains_references(self):
        names = available_backends()
        assert "numpy" in names
        assert set(names) <= {"numpy", "c"}

    def test_default_is_c_where_it_builds(self):
        assert default_backend_name() == ("c" if HAVE_C else "numpy")
        assert ("c" in available_backends()) == HAVE_C

    @pytest.mark.parametrize("name", ["python", "numba"])
    def test_only_numpy_and_c_exist(self, name, monkeypatch):
        refused = rf"^unknown kernel backend '{name}'; the backends are numpy, c$"
        with pytest.raises(ValueError, match=refused):
            resolve_backend(name)
        monkeypatch.setenv(ENV_VAR, name)
        with pytest.raises(ValueError, match=refused):
            resolve_backend()

    def test_explicit_name(self):
        assert resolve_backend("numpy").name == "numpy"

    def test_instance_passthrough(self):
        backend = CBackend()
        assert resolve_backend(backend) is backend

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "c")
        assert resolve_backend("numpy").name == "numpy"

    def test_name_is_normalized(self):
        assert resolve_backend("  NumPy ").name == "numpy"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("fortran")


@pytest.fixture
def fresh_clib(monkeypatch, tmp_path):
    """The c library's loader as a new process finds it, caching under
    ``tmp_path``; the real state comes back after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(clib, "_tried", False)
    monkeypatch.setattr(clib, "_lib", None)
    return tmp_path / "repro-c90"


class TestCBuild:
    def test_failed_build_leaves_numpy_the_default(self, fresh_clib, monkeypatch):
        def fail():
            raise OSError("no compiler")

        monkeypatch.setattr(clib, "_build", fail)
        assert default_backend_name() == "numpy"
        assert resolve_backend().name == "numpy"
        assert "c" not in available_backends()
        with pytest.raises(ValueError, match="'c' requested.*no compiler"):
            resolve_backend("c")
        monkeypatch.setenv(ENV_VAR, "c")
        with pytest.raises(ValueError, match="'c' requested"):
            resolve_backend()

    def test_missing_compiler_is_a_failed_build(self, fresh_clib, monkeypatch):
        monkeypatch.setattr(clib, "_compiler", lambda: ["/nonexistent/cc"])
        assert clib.load() is None
        assert "FileNotFoundError" in clib.failure()
        assert list(fresh_clib.iterdir()) == []  # no temporary file left behind

    @needs_c  # a compiler that runs, to fail on the source
    def test_a_compile_error_is_a_failed_build(self, fresh_clib, monkeypatch, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(clib, "SOURCE", broken)
        assert clib.load() is None
        assert "CalledProcessError" in clib.failure()
        assert list(fresh_clib.iterdir()) == []

    def test_threads_build_once(self, fresh_clib, monkeypatch):
        builds = []

        def slow_build():
            time.sleep(0.05)
            builds.append(1)
            return object()

        monkeypatch.setattr(clib, "_build", slow_build)
        with ThreadPoolExecutor(max_workers=8) as pool:
            libs = list(pool.map(lambda _: clib.load(), range(16)))
        assert len(builds) == 1
        assert all(lib is libs[0] for lib in libs)

    def test_a_directory_others_can_write_is_not_used(self, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o777)
        assert not clib._private(shared)
        shared.chmod(0o700)
        assert clib._private(shared)
        (tmp_path / "link").symlink_to(shared)
        assert not clib._private(tmp_path / "link")

    @needs_c
    def test_built_once_then_loaded_from_the_cache(self, fresh_clib, monkeypatch):
        assert clib.load() is not None
        [lib] = fresh_clib.iterdir()
        assert lib.name.startswith("lockstep-") and lib.suffix == ".so"
        # the next process finds it: one dlopen, no compiler
        monkeypatch.setattr(clib, "_tried", False)
        monkeypatch.setattr(clib.subprocess, "run", None)
        assert clib.load() is not None


class TestSupports:
    def test_numpy_supports_everything(self):
        backend = NumpyBackend()
        assert backend.supports(SUM, np.zeros(4, dtype=np.uint64))

    def test_loop_backend_gates_unsigned(self):
        backend = CBackend()
        assert backend.supports(SUM, np.zeros(4, dtype=np.int64))
        assert not backend.supports(SUM, np.zeros(4, dtype=np.uint64))

    def test_loop_backend_gates_float_bitwise(self):
        backend = CBackend()
        assert backend.supports(XOR, np.zeros(4, dtype=np.int64))
        assert not backend.supports(XOR, np.zeros(4, dtype=np.float64))

    def test_loop_backend_checks_width(self):
        # the C loops fold one value per record: no (first, second) rows
        backend = CBackend()
        affine_vals = np.zeros((4, 2), dtype=np.float64)
        assert not backend.supports(AFFINE, affine_vals)
        assert not backend.supports(AFFINE, np.zeros(4, dtype=np.float64))
        assert not backend.supports(SUM, affine_vals)

    def test_unregistered_operator_unsupported(self):
        backend = CBackend()
        custom = Operator(name="custom", combine=np.add, identity=0)
        assert not backend.supports(custom, np.zeros(4, dtype=np.int64))

    def test_identity_check_rejects_impostor(self):
        # same name, another object: must not run SUM's opcode
        impostor = Operator(name="sum", combine=np.subtract, identity=0)
        assert not CBackend().supports(impostor, np.zeros(4, dtype=np.int64))

    def test_c_backend_envelope(self):
        # every width-1 builtin over int64; ADD and MUL over float64
        backend = CBackend()
        ints, floats = np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.float64)
        for op in BUILTIN_OPERATORS.values():
            assert backend.supports(op, ints) == (op is not AFFINE), op.name
            assert backend.supports(op, floats) == (op.name in ("sum", "prod")), op.name
        for other in (np.int32, np.uint64, np.float32, np.bool_):
            assert not backend.supports(SUM, np.zeros(4, dtype=other))
        assert not backend.supports(SUM, np.zeros((4, 2), dtype=np.int64))
        assert not backend.supports(AFFINE, make_affine_values(np.random.default_rng(0), 4))
        custom = Operator(name="custom", combine=np.add, identity=0)
        assert not backend.supports(custom, ints)


# ----------------------------------------------------------------------
# golden-value gate: full algorithm, c backend vs NumPy reference
# ----------------------------------------------------------------------

INT_OPS = {"sum": SUM, "min": MIN, "max": MAX, "xor": XOR}


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4000),
    seed=st.integers(min_value=0, max_value=2**31),
    op_name=st.sampled_from(sorted(INT_OPS)),
)
def test_golden_int_bit_identical(n, seed, op_name):
    rng = np.random.default_rng(seed)
    op = INT_OPS[op_name]
    lst = random_list(n, rng, values=rng.integers(-100, 100, n))
    ref = _scan(lst, op, "numpy")
    np.testing.assert_array_equal(ref, serial_list_scan(lst, op))
    for backend in COMPILED:
        np.testing.assert_array_equal(_scan(lst, op, backend), ref, err_msg=backend)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4000),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_golden_affine_tolerance(n, seed):
    rng = np.random.default_rng(seed)
    values = np.stack(
        [rng.uniform(0.5, 1.5, n), rng.uniform(-1.0, 1.0, n)], axis=1
    )
    lst = random_list(n, rng, values=values)
    ref = _scan(lst, AFFINE, "numpy")
    np.testing.assert_allclose(ref, serial_list_scan(lst, AFFINE), rtol=1e-9, atol=1e-12)
    for backend in COMPILED:  # c runs AFFINE on the numpy code
        np.testing.assert_array_equal(_bits(_scan(lst, AFFINE, backend)), _bits(ref))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4000),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_golden_float_sum_tolerance(n, seed):
    rng = np.random.default_rng(seed)
    lst = random_list(n, rng, values=rng.uniform(-1, 1, n))
    ref = _scan(lst, SUM, "numpy")
    for backend in COMPILED:
        np.testing.assert_array_equal(_bits(_scan(lst, SUM, backend)), _bits(ref))


def test_unsupported_dtype_falls_back(rng):
    # uint64 is outside the c loops' envelope; the scan must
    # silently use the NumPy reference instead of failing
    n = 2000
    lst = random_list(n, rng, values=rng.integers(0, 100, n).astype(np.uint64))
    for backend in ("numpy", *COMPILED):
        np.testing.assert_array_equal(_scan(lst, SUM, backend), serial_list_scan(lst, SUM))


@pytest.mark.parametrize("case", ["int32", "affine"])
def test_unsupported_scan_stays_on_process_backend(case, monkeypatch):
    # the c loops cover neither case, but each of c's hooks falls back
    # to numpy per call: the scans must still run every hook on the
    # process's backend and read numpy's result bit for bit
    rng = np.random.default_rng(7)
    n = 100_000
    if case == "int32":
        op, values = SUM, rng.integers(-100, 100, n).astype(np.int32)
    else:
        op, values = AFFINE, make_affine_values(rng, n)
    lst = random_list(n, rng, values=values)
    want = _scan(lst, op, "numpy")  # before the shims, which may wrap numpy too
    calls = {"traverse_phase1": 0, "traverse_phase3": 0}
    process = resolve_backend(None)
    for hook in calls:

        def counted(*args, _hook=hook, _real=getattr(process, hook)):
            calls[_hook] += 1
            return _real(*args)

        monkeypatch.setattr(process, hook, counted)
    scans = {
        "forest_list_scan": lambda: _scan(lst, op, None),
        "early_reconnect": lambda: early_reconnect_list_scan(lst, op, rng=0),
    }
    for name, scan in scans.items():
        calls.update(dict.fromkeys(calls, 0))
        got = scan()
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=name)
        assert all(calls.values()), (name, calls)


def test_input_restored_bit_identical(rng):
    n = 3000
    lst = random_list(n, rng, values=rng.integers(-9, 9, n))
    before_next, before_vals = lst.next.copy(), lst.values.copy()
    for backend in ("numpy", *COMPILED):
        _scan(lst, SUM, backend)
        np.testing.assert_array_equal(lst.next, before_next)
        np.testing.assert_array_equal(lst.values, before_vals)


# ----------------------------------------------------------------------
# the c backend: bit for bit numpy's, and no access outside its arrays
# ----------------------------------------------------------------------

#: Every (operator, dtype) the c loops run.
C_CASES = [(name, "int64") for name in sorted(BUILTIN_OPERATORS) if name != "affine"]
C_CASES += [("sum", "float64"), ("prod", "float64")]


def _c_values(rng, n, dtype):
    if dtype == "int64":  # wide enough that sums and products wrap
        return rng.integers(-(2**62), 2**62, n, dtype=np.int64)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, 1e308, -5e-324])
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
    pick = rng.random(n) < 0.05
    values[pick] = rng.choice(specials, int(pick.sum()))
    return values


def _out_for(rng, values):
    """A fresh out, a strided one, or one of another dtype, which the
    c backend leaves to the numpy pass."""
    kind = rng.integers(3)
    if kind == 0:
        return np.empty_like(values)
    if kind == 1:
        return np.empty(2 * values.shape[0], dtype=values.dtype)[::2]
    return np.empty(values.shape[0], dtype=np.int32 if values.dtype.kind == "i" else np.float32)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@needs_c
@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=12),
    seed=st.integers(min_value=0, max_value=2**31),
    case=st.sampled_from(C_CASES),
    inclusive=st.booleans(),
)
def test_c_bit_identical_to_numpy(sizes, seed, case, inclusive):
    """Forests of many members, through the c loops and through numpy:
    the same bits, NaNs, infinities and signed zeros included."""
    name, dtype = case
    rng = np.random.default_rng(seed)
    lists = [random_list(n, rng, values=_c_values(rng, n, dtype)) for n in sizes]
    forest = Forest.of_lists(lists)
    results = {}
    for backend in ("numpy", "c"):
        out_rng = np.random.default_rng(seed)  # the same out kinds on both backends
        outs = [_out_for(out_rng, lst.values) for lst in lists]
        with np.errstate(all="ignore"):
            forest_scan(forest, outs, name, inclusive=inclusive, rng=0, kernel_backend=backend)
        results[backend] = outs
    for ref, got in zip(results["numpy"], results["c"]):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(_bits(got), _bits(ref))


@needs_c
class TestCLoopBounds:
    """The C loops check every index before they follow it."""

    def records(self, nxt):
        rec = np.zeros(len(nxt), dtype=[("next", INDEX_DTYPE), ("value", np.int64)])
        rec["next"] = nxt
        return rec["next"], rec["value"]

    def test_phase1_refuses_a_processor_outside_the_records(self):
        for start in (-3, 4, 1 << 40):
            nxt, values = self.records([1, 2, 2, 3])  # record 3 is the sink
            vp_next = np.array([0, start], dtype=INDEX_DTYPE)
            vp_sum, vp_proc = np.zeros(2, dtype=np.int64), np.arange(2, dtype=INDEX_DTYPE)
            with pytest.raises(ListStructureError, match="already visited"):
                CBackend().traverse_phase1(nxt, values, vp_next, vp_sum, vp_proc, 3, SUM)

    def test_phase3_refuses_an_owner_past_the_carries(self):
        # marks name processors 0 and 5 of two: processor 5 has no carry
        nxt, values = self.records([4 + 0, 4 + 5, 4 + 0, 3])
        out = np.empty(3, dtype=np.int64)
        with pytest.raises(ListStructureError, match="not reached"):
            CBackend().traverse_phase3(
                nxt, values, np.zeros(2, dtype=np.int64), SUM, [out], np.array([0])
            )
