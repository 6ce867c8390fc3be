import itertools

import numpy as np
import pytest

from tensorltc.errors import ShapeError
from tensorltc.field import PrimeField, nullspace, rref, solve


def test_constructor_rejects_composites_and_range():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1 << 16)
    assert PrimeField(65521).p == 65521  # largest prime below 2^16


def test_basic_ops():
    gf5 = PrimeField(5)
    assert gf5.add(3, 4) == 2
    assert gf5.sub(1, 3) == 3
    assert gf5.mul(3, 4) == 2
    assert gf5.neg(2) == 3
    gf7 = PrimeField(7)
    assert gf7.inv(3) == 5
    assert gf7.div(1, 3) == 5


def test_inverse_of_zero_raises():
    gf2 = PrimeField(2)
    with pytest.raises(ZeroDivisionError):
        gf2.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf2.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(np.array([1, 0, 2]))


def test_vectorized_ops_match_scalar():
    gf7 = PrimeField(7)
    a = np.arange(7)
    b = np.arange(1, 8) % 7
    assert np.array_equal(gf7.add(a, b), (a + b) % 7)
    nz = np.arange(1, 7)
    inv = gf7.inv(nz)
    assert np.array_equal(gf7.mul(nz, inv), np.ones(6, dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    f = PrimeField(p)
    elems = range(p)
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.neg(a)) == 0
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, p):
        assert f.mul(a, f.inv(a)) == 1


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
