import numpy as np
import pytest
import reference
from reference import nullspace, solve

from tensorltc.errors import ShapeError
from tensorltc.field import PrimeField, rref


def test_constructor_rejects_composites_and_range():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1 << 16)
    assert PrimeField(65521).p == 65521  # largest prime below 2^16


def test_basic_ops():
    assert PrimeField(7).inv(3) == 5
    assert PrimeField(5).inv(-2) == 2  # -2 = 3 and 3 * 2 = 6 = 1 mod 5
    assert PrimeField(65521).inv(65520) == 65520


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(2).inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(10)


@pytest.mark.parametrize("dtype", ["int8", "int32", "int64", "uint8", ">i4", "float64"])
def test_validate_accepts_entries_in_range_as_int64(dtype):
    out = PrimeField(3).validate(np.array([[0, 1], [2, 1]], dtype=dtype)[:, ::-1])
    assert out.dtype == np.int64 and out.tolist() == [[1, 0], [1, 2]]


@pytest.mark.parametrize("dtype", ["int8", "int32", "int64", "uint8", "bool", ">i4", "float64"])
def test_validate_accepts_empty_arrays(dtype):
    out = PrimeField(2).validate(np.zeros((0, 3), dtype=dtype))
    assert out.dtype == np.int64 and out.shape == (0, 3)


@pytest.mark.parametrize(
    "dtype, entries",
    [
        ("int8", [0, -1]),
        ("int8", [-128, 0]),
        ("int8", [3, 0]),
        ("int8", [127]),
        ("int32", [0, -1]),
        ("int32", [65521]),
        ("int64", [1, -1]),
        ("int64", [np.iinfo(np.int64).min]),
        ("int64", [np.iinfo(np.int64).max]),
        ("int64", [0, 3]),
        ("uint8", [255]),
        ("uint8", [3, 1]),
        (">i4", [1, -1]),
        (">i4", [4]),
        ("float64", [-0.5, 1.0]),
        ("float64", [3.0]),
    ],
)
def test_validate_rejects_entries_outside_the_field(dtype, entries):
    with pytest.raises(ValueError, match=r"entries must lie in \[0, 3\)"):
        PrimeField(3).validate(np.array(entries, dtype=dtype))
    with pytest.raises(ValueError):  # the same entries at a stride
        PrimeField(3).validate(np.repeat(np.array(entries, dtype=dtype), 2)[::2])


def test_validate_takes_whole_floats_and_keeps_int64_input_uncopied():
    assert PrimeField(3).validate(np.array([0.0, 2.0])).tolist() == [0, 2]
    assert PrimeField(2).validate(np.array([True, False])).tolist() == [1, 0]
    with pytest.raises(ValueError):
        PrimeField(2).validate(np.array(2))  # a 0-d array
    assert PrimeField(3).validate([2, 0]).tolist() == [2, 0]
    entries = np.array([[0, 1], [2, 0]], dtype=np.int64)
    assert PrimeField(3).validate(entries) is entries
    view = entries.T
    assert PrimeField(3).validate(view) is view


FRACTIONS = [[0.5, 2.9], [1.5], [[0.7, 1.2], [1.0, 0.0]], [np.nan], [1.0, -0.0, 2.25]]


@pytest.mark.parametrize("entries", FRACTIONS)
def test_check_and_array_refuse_fractions(entries):
    """An int64 cast truncates these, so they are refused, not rounded down."""
    field = PrimeField(3)
    for dtype in ("float64", "float32", ">f8"):
        arr = np.array(entries, dtype=dtype)
        for call in (field.check, field.validate, field.array):
            with pytest.raises(ValueError, match="whole numbers"):
                call(arr)
    with pytest.raises(ValueError, match="whole numbers"):
        field.array(entries)  # a nested list, as rref takes it


@pytest.mark.parametrize("arr", [np.array(["1", "0"]), np.array([1 + 0j]), np.array([1, 0], dtype=object)])
def test_check_and_array_refuse_non_numeric_dtypes(arr):
    field = PrimeField(2)
    for call in (field.check, field.validate, field.array):
        with pytest.raises(ValueError, match="real numbers"):
            call(arr)


def test_array_reduces_whole_floats_and_bools():
    field = PrimeField(5)
    assert field.array([[7.0, -1.0], [0.0, 4.0]]).tolist() == [[2, 4], [0, 4]]
    assert field.array(np.array([True, False])).tolist() == [1, 0]
    assert field.array(np.zeros((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    # every nonzero element has exactly one inverse, and inv returns it
    f = PrimeField(p)
    for a in range(1, p):
        assert [b for b in range(p) if a * b % p == 1] == [f.inv(a)]


def test_rref_already_reduced():
    gf2 = PrimeField(2)
    M = [[1, 0, 1], [0, 1, 1]]
    R, pivots, rank = rref(gf2, M)
    assert np.array_equal(R, M)
    assert pivots == [0, 1]
    assert rank == 2


def test_rref_duplicate_rows():
    gf2 = PrimeField(2)
    R, pivots, rank = rref(gf2, [[1, 1], [1, 1]])
    assert np.array_equal(R, [[1, 1], [0, 0]])
    assert rank == 1


def test_rref_gf3_singular():
    # det([[2,1],[1,2]]) = 3 = 0 mod 3, so elimination leaves one pivot:
    # scale row 0 by inv(2)=2 -> (1,2); row 1 - (1,2) = (0,0).
    gf3 = PrimeField(3)
    R, pivots, rank = rref(gf3, [[2, 1], [1, 2]])
    assert np.array_equal(R, [[1, 2], [0, 0]])
    assert pivots == [0]
    assert rank == 1


def test_rref_gf3_invertible():
    gf3 = PrimeField(3)
    R, pivots, rank = rref(gf3, [[2, 1], [1, 1]])
    assert np.array_equal(R, np.eye(2, dtype=np.int64))
    assert rank == 2


def test_rref_idempotent_on_random_matrices():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        f = PrimeField(p)
        for _ in range(20):
            M = rng.integers(0, p, size=(4, 6))
            R1, piv1, rank1 = rref(f, M)
            R2, piv2, rank2 = rref(f, R1)
            assert np.array_equal(R1, R2)
            assert piv1 == piv2 and rank1 == rank2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_matches_row_by_row_reference(p):
    """Whole-column elimination against the row-by-row loop, on random
    matrices of every shape, rank-deficient ones among them."""
    f = PrimeField(p)
    rng = np.random.default_rng(p)
    for trial in range(60):
        rows, cols = (int(v) for v in rng.integers(1, 9, size=2))
        M = rng.integers(0, p, size=(rows, cols))
        if trial % 3 == 0 and rows > 1:  # repeat a combination of rows
            M[-1] = (rng.integers(0, p, size=rows - 1) @ M[:-1]) % p
        if trial % 5 == 0:
            M[:, rng.integers(0, cols)] = 0
        R, pivots, rank = rref(f, M)
        R_ref, pivots_ref, rank_ref = reference.rref(f, M)
        assert np.array_equal(R, R_ref)
        assert pivots == pivots_ref and rank == rank_ref


def test_solve_identity():
    gf2 = PrimeField(2)
    x, null = solve(gf2, np.eye(2, dtype=int), [1, 0])
    assert np.array_equal(x, [1, 0])
    assert null.shape[0] == 0


def test_solve_underdetermined():
    gf2 = PrimeField(2)
    x, null = solve(gf2, [[1, 1]], [1])
    assert np.array_equal(x, [1, 0])
    assert np.array_equal(null, [[1, 1]])


def test_solve_inconsistent():
    gf2 = PrimeField(2)
    assert solve(gf2, [[1, 0], [1, 0]], [0, 1]) is None


def test_solve_shape_mismatch():
    with pytest.raises(ShapeError):
        solve(PrimeField(2), [[1, 0]], [1, 0])


def test_solutions_satisfy_system():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        f = PrimeField(p)
        for _ in range(30):
            A = rng.integers(0, p, size=(3, 5))
            b = rng.integers(0, p, size=3)
            result = solve(f, A, b)
            if result is None:
                continue
            x, null = result
            assert np.array_equal((A @ x) % p, b % p)
            for v in null:
                assert not ((A @ v) % p).any()


def test_nullspace_spans_kernel():
    gf2 = PrimeField(2)
    basis = nullspace(gf2, [[1, 1, 0], [0, 1, 1]])
    assert basis.shape == (1, 3)
    assert np.array_equal(basis[0], [1, 1, 1])
