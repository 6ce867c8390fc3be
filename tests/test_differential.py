"""Differential tests: each whole-tensor path against its loop reference."""

from fractions import Fraction
from math import ceil

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorltc import linear_code
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
def codes(draw, p=st.sampled_from([2, 3, 5]), n=st.integers(2, 4), max_k=None):
    """A random base code: a uniform generator matrix of nonzero rank, with
    k at most ``max_k[p]`` when given."""
    p, n = draw(p), draw(n)
    k = draw(st.integers(1, n if max_k is None else min(n, max_k[p])))
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


# -- nearest-codeword oracle ---------------------------------------------------

# At most 1,024, 729, 625 and 169 codewords; GF(13) symbols take four
# bit-planes, and n up to 70 crosses the 64-bit word boundary.
ORACLE_MAX_K = {2: 10, 3: 6, 5: 4, 13: 2}
wide_codes = codes(p=st.sampled_from([2, 3, 5, 13]), n=st.integers(1, 70), max_k=ORACLE_MAX_K)
ORACLE_PATHS = (
    {},  # cached packed codebook, one chunk of words
    {"_BLOCK": 30, "_PAIRS": 7},  # cached, built from many blocks, a few words per chunk
    {"CODEBOOK_CAP": 1, "_BLOCK": 30},  # packed blocks streamed from the enumerator
)


def oracle_batch(code: LinearCode, rng: np.random.Generator) -> np.ndarray:
    """Random words, codewords, codewords with one symbol changed, and
    repeats of all of these, so that distances tie."""
    p, n = code.p, code.n
    picks = reference.codewords(code)[rng.integers(0, code.num_codewords(), size=3)]
    near = picks.copy()
    near[np.arange(3), rng.integers(0, n, size=3)] = rng.integers(0, p, size=3)
    words = np.concatenate([rng.integers(0, p, size=(5, n)), picks, near])
    return np.concatenate([words, words[rng.integers(0, len(words), size=4)]])


@PROPERTY
@given(wide_codes, st.sampled_from(ORACLE_PATHS), st.integers(0, 2**32 - 1))
def test_nearest_batch_matches_reencoding_reference(code, path, seed):
    words = oracle_batch(code, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        for name, value in path.items():
            mp.setattr(linear_code, name, value)
        result = code.nearest_batch(words)
        assert (code.packed_codebook() is None) == ("CODEBOOK_CAP" in path)
    for got, expected in zip(result, reference.nearest_batch(code, words)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@PROPERTY
@given(wide_codes, st.sampled_from([1 << 14, 30]))
def test_enumeration_matches_reencoding_reference(code, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear_code, "_BLOCK", block)
        codebook = code.codewords()
        distance = code.minimum_distance()
    assert codebook.dtype == np.int64
    assert np.array_equal(codebook, reference.codewords(code))
    assert distance == reference.minimum_distance(code)
