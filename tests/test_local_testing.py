from fractions import Fraction

import numpy as np
import pytest
import reference
from reference import all_planes

from tensorltc.errors import ShapeError
from tensorltc.experiment import word_relative_distance
from tensorltc.linear_code import parity_code, repetition_code
from tensorltc.local_testing import (
    composed_robustness_bound,
    rejection_probability_exact,
    rejection_probability_sampled,
    robustness_exact,
    robustness_lower_bound,
)
from tensorltc.noise import random_word
from tensorltc.tensor_code import TensorCode, TensorWord


def single_flip(code):
    entries = reference.zero_word(code).entries
    entries[(0,) * code.m] = 1
    return TensorWord(code.field, entries)


def test_plane_tester_requires_three_axes(parity3):
    square = TensorCode(parity3, 2)
    word = reference.zero_word(square)
    with pytest.raises(ShapeError):
        robustness_exact(word, square)
    with pytest.raises(ShapeError):
        rejection_probability_exact(word, square)
    with pytest.raises(ShapeError):
        rejection_probability_sampled(word, square, 10, seed=0)


def test_plane_enumeration():
    assert len(all_planes(3, 3)) == 9
    assert len(all_planes(4, 3)) == 12
    assert {pl.axis for pl in all_planes(4, 3, axes=(1, 2, 3))} == {1, 2, 3}


def test_robustness_lower_bound_values(parity3):
    assert robustness_lower_bound(TensorCode(parity3, 3)) == Fraction(4, 243)
    assert robustness_lower_bound(TensorCode(repetition_code(3), 3)) == Fraction(1, 18)
    assert robustness_lower_bound(TensorCode(parity_code(4), 4)) == Fraction(1, 512)


def test_composed_bound_is_stage_product(parity3):
    assert composed_robustness_bound(TensorCode(parity3, 3)) == Fraction(4, 243)
    expected = robustness_lower_bound(TensorCode(parity3, 4)) * Fraction(4, 243)
    assert composed_robustness_bound(TensorCode(parity3, 4)) == expected


def test_robustness_exact_on_codeword(cube3):
    rng = np.random.default_rng(6)
    word = cube3.encode(rng.integers(0, 2, size=8))
    assert robustness_exact(word, cube3) == 0


def test_robustness_exact_single_flip(cube3):
    # three planes see the flip at local distance 1/9 each
    assert robustness_exact(single_flip(cube3), cube3) == Fraction(1, 27)


def test_robustness_bound_on_random_words(cube3):
    bound = robustness_lower_bound(cube3)
    for seed in range(100):
        word = random_word(cube3, seed)
        delta, mode = word_relative_distance(cube3, word)
        assert mode == "exact"
        assert robustness_exact(word, cube3) >= bound * delta


def test_first_three_axis_mode_changes_average(cube4):
    # a flip is seen by 4 of 12 planes in all-axes mode, 3 of 9 otherwise
    word = single_flip(cube4)
    assert robustness_exact(word, cube4, "all") == Fraction(4, 12 * 27)
    assert robustness_exact(word, cube4, "first-three") == Fraction(3, 9 * 27)


def test_composed_completeness(cube4):
    rng = np.random.default_rng(7)
    word = cube4.encode(rng.integers(0, 2, size=16))
    for axis_mode in ("all", "first-three"):
        assert rejection_probability_exact(word, cube4, axis_mode) == 0
        assert rejection_probability_sampled(word, cube4, 200, 3, axis_mode).rejections == 0


def test_rejection_exact_single_flip(cube3):
    # exactly the three planes through the flipped point reject
    assert rejection_probability_exact(single_flip(cube3), cube3) == Fraction(1, 3)


def test_rejection_exact_matches_plane_enumeration(cube3):
    # At m = 3 a tester path is one plane, in either axis mode.
    word = random_word(cube3, 11)
    inconsistent = 0
    for pl in all_planes(3, 3):
        view = np.take(word.entries, pl.coord, axis=pl.axis - 1)
        inconsistent += not reference.is_square_member(cube3.base, view)
    for axis_mode in ("all", "first-three"):
        assert rejection_probability_exact(word, cube3, axis_mode) == Fraction(inconsistent, 9)


def test_rejection_sampled_determinism(cube3):
    word = random_word(cube3, 19)
    a = rejection_probability_sampled(word, cube3, 500, seed=4)
    b = rejection_probability_sampled(word, cube3, 500, seed=4)
    assert a == b


def test_sampled_agrees_with_exact_within_three_sigma(cube3, cube4):
    for code, seed in ((cube3, 23), (cube4, 29)):
        word = random_word(code, seed)
        exact = float(rejection_probability_exact(word, code))
        sampled = rejection_probability_sampled(word, code, 4000, seed=1)
        sigma = max(np.sqrt(exact * (1 - exact) / 4000), 1 / 4000)
        assert abs(float(sampled.estimate) - exact) <= 3 * sigma


def test_strong_ltc_inequality_exact(cube3):
    bound = composed_robustness_bound(cube3)
    for seed in range(60):
        word = random_word(cube3, seed)
        delta, mode = word_relative_distance(cube3, word)
        assert mode == "exact"
        assert rejection_probability_exact(word, cube3) >= bound * delta


def test_exact_path_count_m4(cube4):
    # stage sizes 4*3 then 3*3 in all-axes mode
    word = single_flip(cube4)
    rejection = rejection_probability_exact(word, cube4)
    assert rejection.denominator in (108, 54, 36, 27, 12, 9, 4, 3, 2, 1)  # divides 108
    assert 108 % rejection.denominator == 0
