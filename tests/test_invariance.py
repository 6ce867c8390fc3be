"""Metamorphic relations: exact symmetries the maths guarantees, checked
without a reference implementation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorltc.field import PrimeField
from tensorltc.linear_code import LinearCode
from tensorltc.local_testing import (
    rejection_probability_exact,
    rejection_probability_sampled,
    robustness_exact,
)
from tensorltc.noise import exact_errors_channel
from tensorltc.tensor_code import TensorCode, TensorWord, line_syndromes

AXIS_MODES = ("all", "first-three")
# largest k whose flat code, p^(k^m) codewords, is at most 2^16: the exact
# distance then enumerates quickly for every drawn code
MAX_K = {(2, 3): 2, (2, 4): 2, (3, 3): 2, (3, 4): 1, (5, 3): 1, (5, 4): 1}


@st.composite
def shifted_words(draw):
    """(code, word, word + c) for a random code C^m over GF(2), GF(3) or
    GF(5), m in {3, 4}, and a nonzero codeword c of C^m. The word is
    uniform or a codeword with a few errors."""
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
        word = exact_errors_channel(clean, draw(st.integers(1, 3)), int(rng.integers(2**31)))
    message = rng.integers(0, p, size=code.dimension)
    message[0] = 1  # a nonzero message encodes to a nonzero codeword
    shift = code.encode(message).entries
    return code, word, TensorWord(code.field, (word.entries + shift) % p)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shifted_words(), st.integers(0, 2**32 - 1))
def test_adding_a_codeword_changes_no_coset_invariant(case, seed):
    """Distance, robustness, exact and seeded sampled rejection and the line
    syndromes depend only on the word's coset of C^m."""
    code, word, shifted = case
    assert not np.array_equal(word.entries, shifted.entries)
    assert code.distance_to(shifted) == code.distance_to(word)
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
