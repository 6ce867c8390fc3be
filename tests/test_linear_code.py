import io
import itertools

import numpy as np
import pytest

from tensorltc.errors import CapacityError, ShapeError, ZeroCodeError
from tensorltc.field import PrimeField
from tensorltc.linear_code import (
    AMBIGUOUS,
    INCONSISTENT,
    LinearCode,
    PartialWord,
    exceeds_cap,
    hamming74,
    load_code,
    parity_code,
    parse_code,
    random_linear_code,
    repetition_code,
    save_code,
)


def all_words(p, n):
    return [np.array(w) for w in itertools.product(range(p), repeat=n)]


def distance_by_dual_membership(code):
    """Independent oracle: enumerate GF(p)^n, keep words killed by H."""
    best = None
    for w in all_words(code.p, code.n):
        if not ((code.H @ w) % code.p).any() and w.any():
            weight = int(np.count_nonzero(w))
            best = weight if best is None else min(best, weight)
    return best


def test_from_generator_parity():
    code = parity_code(3)
    assert (code.n, code.k) == (3, 2)
    assert np.array_equal(code.H, [[1, 1, 1]])
    assert not ((code.G @ code.H.T) % 2).any()


def test_from_generator_rank_collapse():
    code = LinearCode(PrimeField(2), [[1, 1], [1, 1]])
    assert (code.n, code.k) == (2, 1)
    assert np.array_equal(code.G, [[1, 1]])


def test_from_generator_full_space():
    code = LinearCode(PrimeField(3), np.eye(3, dtype=int))
    assert (code.n, code.k) == (3, 3)
    assert code.H.shape == (0, 3)
    assert not code.syndrome([2, 1, 0]).any()


def test_from_generator_zero_matrix():
    with pytest.raises(ZeroCodeError):
        LinearCode(PrimeField(2), [[0, 0], [0, 0]])


def test_parity_check_orthogonal_on_random_codes():
    for seed in range(10):
        code = random_linear_code(8, 4, 3, seed)
        assert not ((code.G @ code.H.T) % 3).any()
        assert np.linalg.matrix_rank(code.H) == code.n - code.k


def test_encode_examples():
    parity = parity_code(3)
    assert np.array_equal(parity.encode([1, 1]), [1, 1, 0])
    assert not parity.encode([0, 0]).any()
    rep = repetition_code(3)
    assert np.array_equal(rep.encode([1]), [1, 1, 1])
    with pytest.raises(ShapeError):
        parity.encode([1, 0, 0])


def test_encode_membership_property():
    rng = np.random.default_rng(3)
    for code in (parity_code(4), hamming74(), random_linear_code(6, 3, 5, 1)):
        for _ in range(20):
            x = rng.integers(0, code.p, size=code.k)
            assert not code.syndrome(code.encode(x)).any()


def test_is_codeword_examples():
    parity = parity_code(3)
    assert not parity.syndrome([1, 1, 0]).any()
    assert parity.syndrome([1, 0, 0]).any()
    assert not parity.syndrome([0, 0, 0]).any()
    with pytest.raises(ShapeError):
        parity.syndrome([1, 0])


def test_minimum_distance_examples():
    assert parity_code(3).minimum_distance() == 2
    assert repetition_code(5).minimum_distance() == 5
    assert hamming74().minimum_distance() == 3


def test_minimum_distance_against_dual_membership_oracle():
    for code in (
        parity_code(3),
        parity_code(4, p=3),
        repetition_code(4),
        hamming74(),
        random_linear_code(6, 3, 2, 9),
        random_linear_code(5, 2, 3, 4),
    ):
        assert code.minimum_distance() == distance_by_dual_membership(code)


def test_minimum_distance_capacity_guard():
    big = random_linear_code(30, 27, 2, 0)
    with pytest.raises(CapacityError):
        big.minimum_distance()


def test_exceeds_cap_matches_the_power_and_skips_huge_ones():
    for base, exponent, cap in itertools.product(range(5), range(40), [1, 7, 8, 1 << 24]):
        assert exceeds_cap(base, exponent, cap) == (base**exponent > cap)
    # 2^(2^64) is never computed
    assert exceeds_cap(2, 1 << 64) and exceeds_cap(3, 63**64, 1 << 20)
    assert not exceeds_cap(1, 1 << 64)


def test_nearest_codeword_examples():
    parity = parity_code(3)
    cw, dist, _ = parity.nearest_batch([[1, 1, 0], [1, 0, 0]])
    assert dist.tolist() == [0, 1]
    assert np.array_equal(cw, [[1, 1, 0], [0, 0, 0]])  # message (0,0) wins the tie
    hamming = hamming74()
    original = hamming.encode([1, 0, 1, 1])
    flipped = original.copy()
    flipped[2] ^= 1
    cw, dist, _ = hamming.nearest_batch(flipped)
    assert dist[0] == 1 and np.array_equal(cw[0], original)


def test_nearest_distance_bounded_by_weight():
    rng = np.random.default_rng(5)
    code = random_linear_code(7, 3, 2, 2)
    for _ in range(30):
        w = rng.integers(0, 2, size=7)
        _, dist, _ = code.nearest_batch(w)
        assert dist[0] <= np.count_nonzero(w)


def test_nearest_tie_break_is_lexicographic_message():
    # Distance from (1,0,0) is 1 for codewords (0,0,0), (1,0,1), (1,1,0);
    # messages (0,0) < (1,0) < (1,1) so the zero codeword is returned.
    parity = parity_code(3)
    _, dist, index = parity.nearest_batch(np.array([[1, 0, 0]]))
    assert dist[0] == 1 and index[0] == 0


def test_restrict_injective_above_distance_threshold():
    for code in (parity_code(3), hamming74()):
        d = code.minimum_distance()
        words = code.codewords()
        for size in range(code.n - d + 1, code.n + 1):
            S = list(range(size))
            projections = {tuple(w[S]) for w in words}
            assert len(projections) == len(words)


def test_dual_examples():
    # the rows of H generate the dual code
    parity = parity_code(3)
    assert LinearCode(parity.field, parity.H) == repetition_code(3)
    simplex = LinearCode(PrimeField(2), hamming74().H)
    assert (simplex.n, simplex.k) == (7, 3)
    weights = {int(np.count_nonzero(w)) for w in simplex.codewords() if w.any()}
    assert weights == {4}
    with pytest.raises(ZeroCodeError):  # the full space has the zero code as dual
        LinearCode(PrimeField(2), LinearCode(PrimeField(2), np.eye(2, dtype=int)).H)


def test_erasure_decode_examples():
    first_known = PartialWord([1, 0, 0], [True, False, False])
    rep = repetition_code(3)
    assert np.array_equal(rep.erasure_decode(first_known), [1, 1, 1])
    parity = parity_code(3)
    assert parity.erasure_decode(first_known) is AMBIGUOUS
    assert parity.erasure_decode(PartialWord([1, 1, 1], [True] * 3)) is INCONSISTENT


def test_erasure_decode_recovers_within_distance():
    rng = np.random.default_rng(8)
    for code in (parity_code(4), hamming74(), repetition_code(5, p=3)):
        d = code.minimum_distance()
        for _ in range(25):
            cw = code.encode(rng.integers(0, code.p, size=code.k))
            erased = rng.choice(code.n, size=d - 1, replace=False)
            known = np.ones(code.n, dtype=bool)
            known[erased] = False
            out = code.erasure_decode(PartialWord(cw.copy(), known))
            assert np.array_equal(out, cw)


def test_partial_word_needs_a_known_entry():
    with pytest.raises(ValueError):
        PartialWord([0, 0], [False, False])


def test_bounded_distance_examples():
    hamming = hamming74()
    cw = hamming.encode([0, 1, 1, 0])
    noisy = cw.copy()
    noisy[6] ^= 1
    assert np.array_equal(hamming.bounded_distance_decode(noisy, 1), cw)
    rep = repetition_code(5)
    assert np.array_equal(
        rep.bounded_distance_decode(np.array([1, 1, 0, 0, 0]), 2), np.zeros(5, dtype=int)
    )
    parity = parity_code(3)
    assert parity.bounded_distance_decode(np.array([1, 0, 0]), 0) is None


def test_bounded_distance_syndrome_matches_brute_force():
    rng = np.random.default_rng(13)
    code = hamming74()
    for _ in range(40):
        w = rng.integers(0, 2, size=7)
        via_table = code.bounded_distance_decode(w, 1)
        nearest, dist, _ = code.nearest_batch(w)
        if dist[0] <= 1:
            assert np.array_equal(via_table, nearest[0])
        else:
            assert via_table is None


def test_bounded_distance_radius_zero_roundtrip():
    code = parity_code(4)
    cw = code.encode([1, 0, 1])
    assert np.array_equal(code.bounded_distance_decode(cw, 0), cw)


def test_random_linear_code_contract():
    a = random_linear_code(3, 2, 2, 0)
    b = random_linear_code(3, 2, 2, 0)
    assert a == b
    c = random_linear_code(4, 1, 3, 7)
    assert (c.n, c.k) == (4, 1)
    assert c.num_codewords() == 3
    with pytest.raises(ShapeError):
        random_linear_code(2, 3, 2, 0)


def test_nearest_batch_matches_singletons():
    rng = np.random.default_rng(21)
    code = random_linear_code(6, 3, 3, 5)
    words = rng.integers(0, 3, size=(10, 6))
    batch_cw, batch_d, _ = code.nearest_batch(words)
    for i, w in enumerate(words):
        cw, dist, _ = code.nearest_batch(w)
        assert dist[0] == batch_d[i]
        assert np.array_equal(cw[0], batch_cw[i])


def test_code_file_round_trip(tmp_path):
    code = random_linear_code(6, 3, 5, 11)
    path = tmp_path / "code.txt"
    save_code(code, path)
    again = load_code(path)
    assert again == code


def test_code_file_rank_warning():
    text = "2 3 2\n1 0 1\n1 0 1\n"
    with pytest.warns(UserWarning, match="rank"):
        code = parse_code(text)
    assert code.k == 1


def test_code_file_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_code("4 3 1\n1 1 1\n")  # composite modulus
    with pytest.raises(ValueError):
        parse_code("2 3 1\n1 1\n")  # wrong entry count
    with pytest.raises(ValueError):
        parse_code("3 2 1\n1 5\n")  # entry outside the field
    buffer = io.StringIO()
    save_code(parity_code(3), buffer)
    assert buffer.getvalue().splitlines()[0] == "2 3 2"
