import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorltc.errors import ShapeError
from tensorltc.linear_code import random_linear_code
from tensorltc.noise import (
    codeword_plus_errors,
    erase_planes,
    exact_errors_channel,
    planted_word,
    random_codeword,
    random_word,
)
from tensorltc.tensor_code import PlaneIndex, TensorCode, TensorWord


def test_exact_errors_distance_contract(cube3):
    word = random_word(cube3, 0)
    assert exact_errors_channel(word, 0, 1) == word
    for t in (1, 5, 27):
        noisy = exact_errors_channel(word, t, 1)
        assert np.count_nonzero(noisy.entries != word.entries) == t
    with pytest.raises(ShapeError):
        exact_errors_channel(word, 28, 1)


def test_exact_errors_deterministic(cube3):
    word = random_word(cube3, 2)
    assert exact_errors_channel(word, 3, 9) == exact_errors_channel(word, 3, 9)
    assert exact_errors_channel(word, 3, 9) != exact_errors_channel(word, 3, 10)


def test_exact_errors_nonbinary():
    from tensorltc.field import PrimeField

    word = TensorWord(PrimeField(5), np.zeros((4, 4), dtype=int))
    noisy = exact_errors_channel(word, 7, 3)
    assert np.count_nonzero(noisy.entries != word.entries) == 7
    assert noisy.entries.max() < 5


def test_erase_planes(cube3):
    word = random_codeword(cube3, 4)
    masked, sets = erase_planes(word, [PlaneIndex(1, 0), PlaneIndex(3, 2)])
    assert sets == ((1, 2), (0, 1, 2), (0, 1))
    assert not masked.entries[0].any()
    assert not masked.entries[:, :, 2].any()
    assert np.array_equal(masked.entries[1:, :, :2], word.entries[1:, :, :2])
    with pytest.raises(ShapeError):
        erase_planes(word, [PlaneIndex(5, 0)])


def test_random_codeword_membership(cube3):
    for seed in range(10):
        assert cube3.contains(random_codeword(cube3, seed))


def test_codeword_plus_errors(cube3):
    clean, noisy = codeword_plus_errors(cube3, 4, 8)
    assert cube3.contains(clean)
    assert np.count_nonzero(clean.entries != noisy.entries) == 4
    again = codeword_plus_errors(cube3, 4, 8)
    assert again[0] == clean and again[1] == noisy


def test_planted_word_deterministic_and_in_shape(cube3):
    a = planted_word(cube3, 3)
    b = planted_word(cube3, 3)
    assert a == b
    assert a.entries.shape == (3, 3, 3)


def _outcome(call, *args):
    try:
        return call(*args)
    except ShapeError as exc:
        return f"ShapeError: {exc}"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.data())
def test_plane_slabs_match_the_indexer_reference(p, m, data):
    """Planes selected through the plane views erase and plant the same entries
    as one indexer per plane, repeated planes included, and an
    out-of-range plane raises the same ShapeError."""
    n = data.draw(st.integers(1, 4 if m <= 3 else 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    code = TensorCode(random_linear_code(n, data.draw(st.integers(1, n)), p, seed), m)
    word = TensorWord(code.field, np.random.default_rng(seed).integers(0, p, size=(n,) * m))
    planes = data.draw(st.lists(st.builds(PlaneIndex, st.integers(1, m), st.integers(0, n - 1))))
    planes += planes[: data.draw(st.integers(0, 2))]  # repeat some
    if data.draw(st.booleans()):
        outside = st.builds(PlaneIndex, st.sampled_from([0, m + 1]), st.integers(0, n - 1))
        outside |= st.builds(PlaneIndex, st.integers(1, m), st.sampled_from([-1, n]))
        planes.insert(data.draw(st.integers(0, len(planes))), data.draw(outside))
    assert _outcome(erase_planes, word, planes) == _outcome(reference.erase_planes, word, planes)
    assert planted_word(code, seed) == reference.planted_word(code, seed)
