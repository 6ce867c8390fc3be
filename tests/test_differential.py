"""Differential tests: each whole-tensor path against its loop reference."""

from fractions import Fraction
from math import ceil

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorltc.analysis import OpinionTable, PlaneOpinion, compute_opinions, inconsistency
from tensorltc.errors import ZeroCodeError
from tensorltc.experiment import distance_lower_bound
from tensorltc.field import PrimeField
from tensorltc.linear_code import LinearCode
from tensorltc.local_testing import rejection_probability_exact, rejection_probability_sampled
from tensorltc.noise import planted_word, random_word
from tensorltc.tensor_code import EncodeCounter, TensorCode, TensorWord, all_planes

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
AXIS_MODES = ("all", "first-three")


@st.composite
def codes(draw, p=st.sampled_from([2, 3, 5]), n=st.integers(2, 4)):
    """A random base code: a uniform generator matrix of nonzero rank."""
    p, n = draw(p), draw(n)
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    try:
        return LinearCode(PrimeField(p), rng.integers(0, p, size=(k, n)))
    except ZeroCodeError:
        return LinearCode(PrimeField(p), np.eye(1, n, dtype=np.int64))


def near_codeword(code: TensorCode, rng: np.random.Generator) -> TensorWord:
    """A codeword with up to three entries overwritten by random symbols."""
    p = code.field.p
    entries = code.encode(rng.integers(0, p, size=code.dimension)).entries.copy()
    flat = entries.reshape(-1)
    for pos in rng.choice(flat.size, size=min(int(rng.integers(0, 4)), flat.size), replace=False):
        flat[pos] = rng.integers(0, p)
    return TensorWord(code.field, entries)


@PROPERTY
@given(codes(), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_contains_and_lower_bound_match_reference(base, m, seed):
    code = TensorCode(base, m)
    word = near_codeword(code, np.random.default_rng(seed))
    assert code.contains(word) == reference.contains(code, word)
    violated = reference.violated_checks(code, word)
    max_col = int(np.count_nonzero(base.H, axis=0).max()) if base.H.size else 0
    expected = 0 if violated == 0 or max_col == 0 else max(1, ceil(violated / (m * max_col)))
    assert distance_lower_bound(code, word) == expected


@PROPERTY
@given(codes(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_encode_matches_recursive_reference(base, m, seed):
    code = TensorCode(base, m)
    message = np.random.default_rng(seed).integers(0, base.p, size=code.dimension)
    counter, ref_counter = EncodeCounter(), EncodeCounter()
    word = code.encode(message, counter)
    assert word == reference.encode(code, message, ref_counter)
    assert word.entries.flags.c_contiguous
    assert counter.base_calls == ref_counter.base_calls


@PROPERTY
@given(codes(), st.integers(3, 4), st.sampled_from(AXIS_MODES), st.integers(0, 2**32 - 1))
def test_exact_rejection_matches_path_enumeration(base, m, axis_mode, seed):
    code = TensorCode(base, m)
    rng = np.random.default_rng(seed)
    for word in (near_codeword(code, rng), random_word(code, seed)):
        expected = reference.rejection_probability_exact(word, code, axis_mode)
        assert rejection_probability_exact(word, code, axis_mode) == expected


@PROPERTY
@given(
    codes(),
    st.integers(3, 4),
    st.sampled_from(AXIS_MODES),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)
def test_sampled_rejection_matches_per_draw_loop(base, m, axis_mode, trials, seed):
    code = TensorCode(base, m)
    word = near_codeword(code, np.random.default_rng(seed))
    sampled = rejection_probability_sampled(word, code, trials, seed, axis_mode)
    assert sampled.rejections == reference.sampled_rejections(word, code, trials, seed, axis_mode)


def mixed_opinions(code: TensorCode, rng: np.random.Generator) -> tuple[TensorWord, OpinionTable]:
    """A near-codeword and plane opinions that are codewords of the
    (m-1)-fold power: each is the plane's view of one codeword, or, for
    about a third of the planes, an unrelated codeword."""
    p = code.field.p
    sub = code.sub()
    clean = code.encode(rng.integers(0, p, size=code.dimension)).entries
    word = near_codeword(code, rng)
    opinions = {}
    for pl in all_planes(code.m, code.n):
        if rng.random() < 1 / 3:
            opinion = sub.encode(rng.integers(0, p, size=sub.dimension)).entries
        else:
            opinion = np.take(clean, pl.coord, axis=pl.axis - 1)
        view = np.take(word.entries, pl.coord, axis=pl.axis - 1)
        opinions[pl] = PlaneOpinion(pl, opinion, int(np.count_nonzero(opinion != view)))
    return word, OpinionTable(code=code, word=word, opinions=opinions)


def assert_report_matches(word, opinions):
    report = inconsistency(word, opinions)
    E, to_fix, heavy_planes, heavy_lines = reference.inconsistency(word, opinions)
    assert report.disagreement.dtype == E.dtype
    assert np.array_equal(report.disagreement, E)
    assert report.to_fix == to_fix
    assert report.heavy_planes == heavy_planes
    assert report.heavy_lines == heavy_lines


@PROPERTY
@given(codes(), st.integers(3, 4), st.integers(0, 2**32 - 1))
def test_inconsistency_matches_pairwise_loop(base, m, seed):
    word, opinions = mixed_opinions(TensorCode(base, m), np.random.default_rng(seed))
    assert_report_matches(word, opinions)


@pytest.mark.parametrize("m", [3, 4])
def test_inconsistency_matches_pairwise_loop_on_nearest_opinions(parity3, m):
    code = TensorCode(parity3, m)
    for seed in range(15):
        for word in (random_word(code, seed), planted_word(code, seed)):
            assert_report_matches(word, compute_opinions(word, code))


def test_exact_rejection_without_path_cap():
    # parity(2)^12 has 12*11*...*3 * 2^10 tester paths, far beyond any
    # enumeration; a single flip is seen by every path through its point.
    code = TensorCode(LinearCode(PrimeField(2), [[1, 1]]), 12)
    entries = np.zeros((2,) * 12, dtype=np.int64)
    entries[(0,) * 12] = 1
    rejection = rejection_probability_exact(TensorWord(code.field, entries), code)
    assert rejection == Fraction(1, 2**10)
