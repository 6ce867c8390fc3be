import io
import itertools
from fractions import Fraction

import numpy as np
import pytest
import reference
from reference import all_planes

from tensorltc.analysis import compute_opinions, inconsistency
from tensorltc.errors import CapacityError, ShapeError
from tensorltc.experiment import distance_lower_bound_batch, word_relative_distance
from tensorltc.field import PrimeField
from tensorltc.linear_code import LinearCode, parity_code, random_linear_code, repetition_code
from tensorltc.local_testing import (
    _pair_fails,
    rejection_probability_exact,
    rejection_probability_sampled,
)
from tensorltc.tensor_code import (
    PLAN_CACHE,
    EncodeCounter,
    TensorCode,
    TensorWord,
    check_index_size,
    line_syndromes,
    load_tensor,
    plane_index,
    point_index,
    save_tensor,
)


def test_word_shape_validation():
    gf2 = PrimeField(2)
    with pytest.raises(ShapeError):
        TensorWord(gf2, np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        TensorWord(gf2, np.full((2, 2), 5))
    w = TensorWord(gf2, np.zeros((2, 2), dtype=int))
    assert (w.m, w.n, w.size) == (2, 2, 4)


def test_fractional_entries_are_refused_not_truncated(parity3):
    gf2 = PrimeField(2)
    with pytest.raises(ValueError, match="whole numbers"):
        TensorWord(gf2, np.array([[0.7, 1.2], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="whole numbers"):
        parity3.encode([0.9, 1.5])
    with pytest.raises(ValueError, match="whole numbers"):
        TensorCode(parity3, 2).encode(np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="whole numbers"):
        LinearCode(gf2, [[1.5, 0]])
    word = TensorWord(gf2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert word.entries.dtype == np.int64 and word.entries.tolist() == [[0, 1], [1, 0]]
    assert parity3.encode([1.0, 0.0]).tolist() == [1, 0, 1]
    assert LinearCode(gf2, [[1.0, 0.0]]) == LinearCode(gf2, [[1, 0]])


def test_linear_index_convention():
    # axis 1 slowest: point (i1, i2, i3) sits at flat index i1*n^2 + i2*n + i3
    ramp = TensorWord(PrimeField(11), np.arange(8).reshape(2, 2, 2))
    assert ramp.entries[1, 0, 1] == ramp.flat()[1 * 4 + 0 * 2 + 1] == 5


def test_params_examples(parity3):
    square = TensorCode(parity3, 2)
    assert square.params() == (9, 4, 4, Fraction(4, 9), Fraction(4, 9))
    single = TensorCode(parity3, 1)
    assert single.params() == (3, 2, 2, Fraction(2, 3), Fraction(2, 3))
    cube = TensorCode(parity3, 3)
    assert cube.params() == (27, 8, 8, Fraction(8, 27), Fraction(8, 27))


def test_enumeration_counts():
    assert len(all_planes(3, 3)) == 9
    assert len(all_planes(4, 3)) == 12
    assert len(all_planes(4, 3, axes=(1, 2, 3))) == 9


def test_membership(parity3, cube3):
    rng = np.random.default_rng(4)
    word = cube3.encode(rng.integers(0, 2, size=8))
    assert cube3.contains(word)
    assert cube3.contains(TensorWord(cube3.field, np.zeros((3, 3, 3), dtype=int)))
    square = TensorCode(parity3, 2)
    lonely = np.zeros((3, 3), dtype=int)
    lonely[1, 1] = 1
    assert not square.contains(TensorWord(square.field, lonely))


def test_membership_matches_flat_oracle(parity3):
    rng = np.random.default_rng(17)
    square = TensorCode(parity3, 2)
    flat = square.flattened()
    for _ in range(200):
        entries = rng.integers(0, 2, size=(3, 3))
        word = TensorWord(square.field, entries)
        assert square.contains(word) == (not flat.syndrome(entries.reshape(-1)).any())


def test_encode_base_case(parity3):
    single = TensorCode(parity3, 1)
    assert np.array_equal(single.encode([1, 1]).entries, [1, 1, 0])


def test_encode_outer_product(parity3):
    square = TensorCode(parity3, 2)
    word = square.encode([1, 0, 0, 0])
    expected = np.outer([1, 0, 1], [1, 0, 1]) % 2
    assert np.array_equal(word.entries, expected)


def test_encode_matches_kronecker_generator(parity3):
    rng = np.random.default_rng(1)
    for m in (2, 3):
        code = TensorCode(parity3, m)
        flat = code.flattened()
        for _ in range(25):
            msg = rng.integers(0, 2, size=code.dimension)
            assert np.array_equal(code.encode(msg).flat(), flat.encode(msg))


def test_encode_membership_property(parity3):
    rng = np.random.default_rng(2)
    cube = TensorCode(parity3, 3)
    for _ in range(20):
        word = cube.encode(rng.integers(0, 2, size=8))
        assert cube.contains(word)


def test_encode_counter_recurrence(parity3):
    # base calls satisfy f(1)=1, f(m) = k f(m-1) + n^(m-1) <= m n^(m-1)
    k, n = parity3.k, parity3.n
    expected = 1
    for m in range(1, 5):
        if m > 1:
            expected = k * expected + n ** (m - 1)
        counter = EncodeCounter()
        TensorCode(parity3, m).encode(np.zeros(k**m, dtype=int), counter)
        assert counter.base_calls == expected
        assert counter.base_calls <= m * n ** (m - 1)


def test_encode_rejects_bad_message(parity3):
    with pytest.raises(ShapeError):
        TensorCode(parity3, 2).encode([1, 0, 0])


def test_distance_multiplicativity_smoke(parity3):
    square = TensorCode(parity3, 2)
    assert square.flattened().minimum_distance() == 4


def test_distance_to_and_nearest(cube3):
    word = np.zeros((3, 3, 3), dtype=int)
    word[0, 0, 0] = 1
    word = TensorWord(cube3.field, word)
    assert word_relative_distance(cube3, word) == (Fraction(1, 27), "exact")
    nearest, dist, _ = cube3.flattened().nearest_batch(word.flat())
    assert dist[0] == 1 and not nearest.any()


def test_tensor_file_round_trip(tmp_path, cube3):
    rng = np.random.default_rng(9)
    word = cube3.encode(rng.integers(0, 2, size=8))
    path = tmp_path / "word.txt"
    save_tensor(word, path)
    again = load_tensor(path)
    assert again == word
    header = path.read_text().splitlines()[0]
    assert header == "2 3 3"


def test_tensor_file_rejects_bad_input():
    with pytest.raises(ValueError):
        load_tensor(io.StringIO("2 2 2\n1 0 1\n"))  # wrong count
    with pytest.raises(ValueError):
        load_tensor(io.StringIO("2 1 2\n1 3\n"))  # out of range
    with pytest.raises(ValueError):
        load_tensor(io.StringIO("9 1 2\n1 0\n"))  # composite modulus
    buffer = io.StringIO()
    save_tensor(TensorWord(PrimeField(3), np.arange(4).reshape(2, 2) % 3), buffer)
    assert buffer.getvalue() == "3 2 2\n0 1\n2 0\n"


def test_sub_and_check_shape(cube3, parity3):
    assert cube3.sub().m == 2
    with pytest.raises(ShapeError):
        TensorCode(parity3, 1).sub()
    wrong = TensorWord(cube3.field, np.zeros((3, 3), dtype=int))
    with pytest.raises(ShapeError):
        cube3.check_shape(wrong)


# -- index arrays ------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_index_plan_matches_axis_formulation(n, m):
    """Every index array against the moveaxis / np.ix_ form it replaces."""
    views = plane_index(n, m)
    gather, pairs, pair_cell = point_index(n, m)
    shape = (n,) * m
    grid = np.arange(n**m).reshape(shape)
    point = np.ix_(*[np.arange(n)] * m)  # point[b] broadcasts to x_b
    pair_list = list(itertools.combinations(range(m), 2))
    rng = np.random.default_rng(10 * n + m)
    for array in (views, gather, pairs, pair_cell):
        assert array.dtype == np.intp and array.flags.c_contiguous and not array.flags.writeable

    planes = [np.take(grid, i, axis=b).reshape(-1) for b in range(m) for i in range(n)]
    assert np.array_equal(views, np.stack(planes))
    nearest = rng.integers(0, 1000, size=(m, n, n ** (m - 1)))
    at = nearest.reshape(-1)[gather]
    for b in range(m):
        assert np.array_equal(at[b].reshape(shape), np.moveaxis(nearest[b].reshape(shape), 0, b))

    assert pairs.T.tolist() == [list(pair) for pair in pair_list]
    for q, (b, c) in enumerate(pair_list):
        cell = (q * n + point[b]) * n + point[c]
        assert np.array_equal(pair_cell[q].reshape(shape), np.broadcast_to(cell, shape))

    # column [a, :, j] of the line syndromes is line j along axis a, lines in
    # row-major order of the other axes
    for p in (2, 3, 5):
        for k in range(1, n + 1):
            line_code = random_linear_code(n, k, p, seed=rng.integers(2**32))
            e = rng.integers(0, p, size=shape)
            syndromes = line_syndromes(line_code, e)
            assert syndromes.shape == (m, n - k, n ** (m - 1))
            for a in range(m):
                lines = np.moveaxis(e, a, -1).reshape(-1, n)
                assert np.array_equal(syndromes[a].T, line_code.syndrome(lines))

    # the slice-fail masks against the square-power check of every slice:
    # pair (b, c) free, the other axes fixed at the mask's coordinates
    base = parity_code(n)
    code = TensorCode(base, m)
    for density in (0.05, 0.3, 0.8):
        entries = (rng.random(shape) < density).astype(np.int64)
        fails = _pair_fails(entries, code)
        assert len(fails) == len(pair_list)
        for (b, c), fail in zip(pair_list, fails):
            others = [a for a in range(m) if a not in (b, c)]
            assert fail.shape == (n,) * (m - 2)
            for rest in itertools.product(range(n), repeat=m - 2):
                square = entries
                for a, x in reversed(list(zip(others, rest))):
                    square = np.take(square, x, axis=a)
                assert fail[rest] == (not reference.is_square_member(base, square))


def test_index_plans_are_cached_per_shape():
    for index in (plane_index, point_index):
        assert index(3, 4) is index(3, 4)
        assert index(3, 4) is not index(4, 3)
        assert index.cache_info().maxsize == PLAN_CACHE


def test_line_only_paths_leave_the_point_arrays_unbuilt():
    """Membership, exact and sampled rejection and the distance lower bound
    read the plane views only; the disagreement analysis builds the point
    arrays."""
    code = TensorCode(parity_code(2), 7)
    word = TensorWord(code.field, np.random.default_rng(7).integers(0, 2, size=(2,) * 7))
    planes, points = plane_index.cache_info(), point_index.cache_info()
    code.contains(word)
    rejection_probability_exact(word, code)
    rejection_probability_sampled(word, code, 50, 0)
    distance_lower_bound_batch(code, word.entries[None])
    assert plane_index.cache_info() != planes
    assert point_index.cache_info() == points
    inconsistency(word, compute_opinions(word, code))
    assert point_index.cache_info() != points


def test_index_plan_refuses_arrays_above_the_cap():
    """Each array of the 3^15 cube would hold at least 15 * 3^15 entries:
    refused before anything is allocated. At m = 13 the pair cells, 78
    entries per point, exceed it, while the plane views fit."""
    for index in (plane_index, point_index):
        with pytest.raises(CapacityError, match="3\\^15 cube exceeds cap"):
            index(3, 15)
    check_index_size(3, 13)
    with pytest.raises(CapacityError, match="3\\^13 cube exceeds cap"):
        point_index(3, 13)
