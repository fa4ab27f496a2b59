"""Unit and golden-value tests for the pluggable kernel backends.

The contract under test (docs/kernels.md): for integer operators every
backend is *bit-identical* to the NumPy reference; for float operators
the blocked Phase-2 scan re-associates, so results are element-wise
equal within a small tolerance.  The Hypothesis suites at the bottom
are the golden-value gate for both.
"""

from __future__ import annotations

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
from repro.core.forest import forest_list_scan
from repro.kernels import (
    ENV_VAR,
    HAVE_NUMBA,
    PairSpec,
    available_backends,
    default_backend_name,
    pair_for,
    resolve_backend,
)
from repro.kernels.backend import NumpyBackend, PythonLoopBackend
from repro.kernels.loops import BLOCK, py_kernels
from repro.kernels.pairs import OP_ADD, OP_MUL, OP_XOR
from repro.lists.generate import random_list

from .conftest import make_affine_values


def _scan(lst, op, backend):
    """The sublist scan of one list on ``backend``."""
    return forest_list_scan(lst.next, lst.values, [lst.head], op, rng=0, kernel_backend=backend)


class TestPairSpec:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            PairSpec(width=3, companion=OP_ADD)

    def test_rejects_unknown_opcode(self):
        with pytest.raises(ValueError, match="opcode"):
            PairSpec(width=1, companion=99)

    def test_width_2_validates_cross_and_plus(self):
        with pytest.raises(ValueError, match="opcode"):
            PairSpec(width=2, companion=OP_MUL)  # cross/plus default -1

    def test_integer_only(self):
        assert PairSpec(width=1, companion=OP_XOR).integer_only()
        assert not PairSpec(width=1, companion=OP_ADD).integer_only()


class TestPairRegistry:
    def test_builtins_are_registered(self):
        for op in BUILTIN_OPERATORS.values():
            assert pair_for(op) is not None, op.name

    def test_affine_is_width_2(self):
        spec = pair_for(AFFINE)
        assert spec is not None and spec.width == 2

    def test_builtin_widths_match_value_width(self):
        # the constant table must agree with the operators it describes
        for op in BUILTIN_OPERATORS.values():
            assert pair_for(op).width == (2 if op.value_width else 1), op.name

    def test_identity_check_rejects_impostor(self):
        # same name, different object: must NOT get SUM's opcodes
        impostor = Operator(name="sum", combine=np.subtract, identity=0)
        assert pair_for(impostor) is None


class TestBackendSelection:
    def test_available_contains_references(self):
        names = available_backends()
        assert "numpy" in names and "python" in names
        assert ("numba" in names) == HAVE_NUMBA

    def test_default_matches_numba_presence(self):
        assert default_backend_name() == ("numba" if HAVE_NUMBA else "numpy")

    def test_explicit_name(self):
        assert resolve_backend("numpy").name == "numpy"
        assert resolve_backend("python").name == "python"

    def test_instance_passthrough(self):
        backend = resolve_backend("python")
        assert resolve_backend(backend) is backend

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "python")
        assert resolve_backend(None).name == "python"

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "python")
        assert resolve_backend("numpy").name == "numpy"

    def test_name_is_normalized(self):
        assert resolve_backend("  NumPy ").name == "numpy"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("fortran")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is importable here")
    def test_numba_unavailable_rejected(self):
        with pytest.raises(ValueError, match="numba"):
            resolve_backend("numba")


class TestSupports:
    def test_numpy_supports_everything(self):
        backend = NumpyBackend()
        assert backend.supports(SUM, np.zeros(4, dtype=np.uint64))

    def test_loop_backend_gates_unsigned(self):
        backend = PythonLoopBackend()
        assert backend.supports(SUM, np.zeros(4, dtype=np.int64))
        assert not backend.supports(SUM, np.zeros(4, dtype=np.uint64))

    def test_loop_backend_gates_float_bitwise(self):
        backend = PythonLoopBackend()
        assert backend.supports(XOR, np.zeros(4, dtype=np.int64))
        assert not backend.supports(XOR, np.zeros(4, dtype=np.float64))

    def test_loop_backend_checks_width(self):
        backend = PythonLoopBackend()
        affine_vals = np.zeros((4, 2), dtype=np.float64)
        assert backend.supports(AFFINE, affine_vals)
        assert not backend.supports(AFFINE, np.zeros(4, dtype=np.float64))
        assert not backend.supports(SUM, affine_vals)

    def test_unregistered_operator_unsupported(self):
        backend = PythonLoopBackend()
        custom = Operator(name="custom", combine=np.add, identity=0)
        assert not backend.supports(custom, np.zeros(4, dtype=np.int64))


def exclusive_cumsum(vals, seed):
    out = np.empty_like(vals)
    acc = seed
    for i in range(vals.shape[0]):
        out[i] = acc
        acc = acc + vals[i]
    return out


class TestBlockedScan:
    @pytest.mark.parametrize("n", [0, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_int_exact(self, n, rng):
        k = py_kernels()
        vals = rng.integers(-50, 50, n).astype(np.int64)
        scanned = np.empty_like(vals)
        temp = np.empty(BLOCK, dtype=np.int64)
        k["blocked_exscan"](vals, scanned, np.int64(3), np.int64(0), 0, BLOCK, temp)
        np.testing.assert_array_equal(scanned, exclusive_cumsum(vals, np.int64(3)))

    def test_float_tolerance(self, rng):
        k = py_kernels()
        vals = rng.uniform(-1, 1, 1000)
        scanned = np.empty_like(vals)
        temp = np.empty(BLOCK, dtype=np.float64)
        k["blocked_exscan"](vals, scanned, 0.5, 0.0, 0, BLOCK, temp)
        np.testing.assert_allclose(scanned, exclusive_cumsum(vals, 0.5), rtol=1e-12)

    def test_noncommutative_pair_order(self, rng):
        # AFFINE composition is non-commutative: the down-sweep must
        # keep the earlier operand on the left or this diverges wildly
        k = py_kernels()
        n = 3 * BLOCK + 17
        vals = make_affine_values(rng, n).astype(np.float64)
        scanned = np.empty_like(vals)
        temp = np.empty((BLOCK, 2), dtype=np.float64)
        k["blocked_exscan_pair"](
            vals, scanned, 1.0, 0.0, 1.0, 0.0, OP_MUL, OP_MUL, OP_ADD, BLOCK, temp
        )
        expect = np.empty_like(vals)
        acc = np.array([1.0, 0.0])
        for i in range(n):
            expect[i] = acc
            acc = AFFINE.combine(acc, vals[i])
        np.testing.assert_allclose(scanned, expect, rtol=1e-9)


# ----------------------------------------------------------------------
# golden-value gate: full algorithm, loop backend vs NumPy reference
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
    got = _scan(lst, op, "python")
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(got, serial_list_scan(lst, op))


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
    got = _scan(lst, AFFINE, "python")
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        got, serial_list_scan(lst, AFFINE), rtol=1e-9, atol=1e-12
    )


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4000),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_golden_float_sum_tolerance(n, seed):
    rng = np.random.default_rng(seed)
    lst = random_list(n, rng, values=rng.uniform(-1, 1, n))
    ref = _scan(lst, SUM, "numpy")
    got = _scan(lst, SUM, "python")
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)


def test_unsupported_dtype_falls_back(rng):
    # uint64 is outside the loop backends' envelope; the scan must
    # silently use the NumPy reference instead of failing
    n = 2000
    lst = random_list(n, rng, values=rng.integers(0, 100, n).astype(np.uint64))
    got = _scan(lst, SUM, "python")
    np.testing.assert_array_equal(got, serial_list_scan(lst, SUM))


def test_input_restored_bit_identical(rng):
    n = 3000
    lst = random_list(n, rng, values=rng.integers(-9, 9, n))
    before_next, before_vals = lst.next.copy(), lst.values.copy()
    _scan(lst, SUM, "python")
    np.testing.assert_array_equal(lst.next, before_next)
    np.testing.assert_array_equal(lst.values, before_vals)
