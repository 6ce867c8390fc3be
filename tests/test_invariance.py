"""Metamorphic relations: exact symmetries the maths guarantees, checked
without a reference implementation."""

import numpy as np
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorltc.decoding import DecoderConfig, decode_square
from tensorltc.experiment import word_relative_distance
from tensorltc.field import PrimeField
from tensorltc.linear_code import LinearCode
from tensorltc.local_testing import (
    rejection_probability_exact,
    rejection_probability_sampled,
    robustness_exact,
)
from tensorltc.tensor_code import TensorCode, TensorWord, line_syndromes

AXIS_MODES = ("all", "first-three")
# largest k whose flat code, p^(k^m) codewords, is at most 2^16: the exact
# distance then enumerates quickly for every drawn code
MAX_K = {(2, 3): 2, (2, 4): 2, (3, 3): 2, (3, 4): 1, (5, 3): 1, (5, 4): 1}


@st.composite
def coded_words(draw):
    """(code, word, rng) for a random code C^m over GF(2), GF(3) or GF(5),
    m in {3, 4}. The word is uniform or a codeword with a few errors."""
    p, m = draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([3, 4]))
    n = draw(st.integers(2, 4 if m == 3 else 3))
    k = draw(st.integers(1, min(n, MAX_K[p, m])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    generator = rng.integers(0, p, size=(k, n))
    generator[0, 0] = 1  # rank >= 1
    code = TensorCode(LinearCode(PrimeField(p), generator), m)
    if draw(st.booleans()):
        word = TensorWord(code.field, rng.integers(0, p, size=(n,) * m))
    else:
        clean = code.encode(rng.integers(0, p, size=code.dimension))
        t, seed = draw(st.integers(1, 3)), int(rng.integers(2**31))
        word = reference.exact_errors_channel(clean, t, seed)
    return code, word, rng


@st.composite
def shifted_words(draw):
    """(code, word, word + c) for a coded word and a nonzero codeword c of C^m."""
    code, word, rng = draw(coded_words())
    message = rng.integers(0, code.field.p, size=code.dimension)
    message[0] = 1  # a nonzero message encodes to a nonzero codeword
    shift = code.encode(message).entries
    return code, word, TensorWord(code.field, (word.entries + shift) % code.field.p)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shifted_words(), st.integers(0, 2**32 - 1))
def test_adding_a_codeword_changes_no_coset_invariant(case, seed):
    """Distance, robustness, exact and seeded sampled rejection and the line
    syndromes depend only on the word's coset of C^m."""
    code, word, shifted = case
    assert not np.array_equal(word.entries, shifted.entries)
    distance = word_relative_distance(code, word)
    assert distance[1] == "exact" and word_relative_distance(code, shifted) == distance
    assert np.array_equal(
        line_syndromes(code.base, shifted.entries), line_syndromes(code.base, word.entries)
    )
    for axis_mode in AXIS_MODES:
        assert robustness_exact(shifted, code, axis_mode) == robustness_exact(word, code, axis_mode)
        assert rejection_probability_exact(shifted, code, axis_mode) == (
            rejection_probability_exact(word, code, axis_mode)
        )
        assert rejection_probability_sampled(shifted, code, 40, seed, axis_mode) == (
            rejection_probability_sampled(word, code, 40, seed, axis_mode)
        )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(coded_words(), st.data())
def test_scaling_by_a_nonzero_element_changes_no_invariant(case, data):
    """Multiplying by a nonzero a maps C^m onto itself and keeps every
    support: distance, robustness, exact rejection and which line checks
    fail are unchanged."""
    code, word, _ = case
    a = data.draw(st.integers(1, code.field.p - 1))
    scaled = TensorWord(code.field, (a * word.entries) % code.field.p)
    distance = word_relative_distance(code, word)
    assert distance[1] == "exact" and word_relative_distance(code, scaled) == distance
    assert np.array_equal(
        line_syndromes(code.base, scaled.entries) != 0,
        line_syndromes(code.base, word.entries) != 0,
    )
    for axis_mode in AXIS_MODES:
        assert robustness_exact(scaled, code, axis_mode) == robustness_exact(word, code, axis_mode)
        assert rejection_probability_exact(scaled, code, axis_mode) == (
            rejection_probability_exact(word, code, axis_mode)
        )


@st.composite
def square_words(draw):
    """(config, word, c): the default decoder of a random [n, k] code over
    GF(2), GF(3) or GF(5), an n x n word and a codeword c of C^2. The code
    is an [n, 1, n] code with a nonzero generator row, or a random one with
    k <= 2. The word is uniform, a codeword with errors, or a codeword with
    one row overwritten, which, when n >= 7 and d = n, the decoder removes
    alone and re-extends in pass 4."""
    kind = draw(st.sampled_from(["uniform", "errors", "burst"]))
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(7 if kind == "burst" else 3, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        generator = rng.integers(1, p, size=(1, n))  # weight n
    else:
        generator = rng.integers(0, p, size=(draw(st.integers(1, 2)), n))
    generator[0, 0] = 1  # rank >= 1
    square = TensorCode(LinearCode(PrimeField(p), generator), 2)
    if kind == "uniform":
        entries = rng.integers(0, p, size=(n, n))
    else:
        entries = square.encode(rng.integers(0, p, size=square.dimension)).entries.copy()
    if kind == "errors":
        entries = reference.exact_errors_channel(
            TensorWord(square.field, entries), draw(st.integers(1, n)), int(rng.integers(2**31))
        ).entries
    elif kind == "burst":
        entries[rng.integers(0, n)] = rng.integers(0, p, size=n)
    shift = square.encode(rng.integers(0, p, size=square.dimension)).entries
    return DecoderConfig.for_code(square.base), TensorWord(square.field, entries), shift


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(square_words())
def test_square_decoder_commutes_with_adding_a_codeword(case):
    """At the default radius every pass is equivariant under adding a
    codeword c of C^2: the trace is unchanged and a decoded word moves by c."""
    cfg, word, shift = case
    p = cfg.base.p
    decoded, trace = decode_square(word, cfg)
    moved, moved_trace = decode_square(TensorWord(word.field, (word.entries + shift) % p), cfg)
    assert moved_trace.to_json_dict() == trace.to_json_dict()
    if decoded is None:
        assert moved is None
    else:
        assert np.array_equal(moved.entries, (decoded.entries + shift) % p)
