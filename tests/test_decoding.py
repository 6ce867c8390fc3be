from fractions import Fraction

import numpy as np
import pytest
import reference

from tensorltc.decoding import DecoderConfig, decode_square
from tensorltc.errors import ShapeError
from tensorltc.field import PrimeField
from tensorltc.linear_code import LinearCode, parity_code, repetition_code
from tensorltc.noise import codeword_plus_errors, random_codeword, random_word
from tensorltc.tensor_code import TensorCode, TensorWord


@pytest.fixture(scope="module")
def rep50():
    return repetition_code(50)


@pytest.fixture(scope="module")
def rep50_square(rep50):
    return TensorCode(rep50, 2)


def test_config_defaults(rep50, hamming):
    cfg = DecoderConfig.for_code(rep50)
    assert cfg.radius == 24
    assert Fraction(cfg.radius, rep50.n) == Fraction(12, 25)
    assert cfg.removal_threshold == Fraction(24, 100)
    cfg = DecoderConfig.for_code(hamming)
    assert cfg.radius == 1
    assert Fraction(cfg.radius, hamming.n) == Fraction(1, 7)


def test_error_budget_examples(rep50, hamming):
    assert DecoderConfig.for_code(rep50).error_budget() == 5
    assert DecoderConfig.for_code(hamming).error_budget() == 0
    degenerate = DecoderConfig.for_code(parity_code(3))  # d = 2 gives radius 0
    assert Fraction(degenerate.radius, degenerate.base.n) == 0
    assert degenerate.error_budget() == 0


def test_error_budget_is_the_exact_fraction_floor(rep50, hamming):
    for base in (rep50, hamming, parity_code(3)):
        n = base.n
        for radius in range(201):
            cfg = DecoderConfig.for_code(base, radius=radius, removal_threshold=1)
            assert cfg.error_budget() == int(Fraction(radius, n) ** 2 * n**2 / 100)


def test_codeword_passes_through(rep50_square, hamming, parity3):
    # every configuration with a zero budget must at least fix its codewords
    for base in (rep50_square.base, hamming, parity3):
        cfg = DecoderConfig.for_code(base)
        word = random_codeword(TensorCode(base, 2), 1)
        out, trace = decode_square(word, cfg)
        assert out == word
        assert trace.removed_rows == () and trace.removed_cols == ()
        assert trace.status == "ok" and trace.result_distance == 0


def test_hamming_single_flips_in_one_row(hamming):
    square = TensorCode(hamming, 2)
    cfg = DecoderConfig.for_code(hamming)
    clean = random_codeword(square, 7)
    for j in range(7):
        noisy = clean.entries.copy()
        noisy[3, j] ^= 1
        out, trace = decode_square(TensorWord(square.field, noisy), cfg)
        assert out == clean, f"flip at column {j}: {trace.status}"


def test_rep50_recovers_budget_errors(rep50_square):
    cfg = DecoderConfig.for_code(rep50_square.base)
    budget = cfg.error_budget()
    for seed in range(25):
        clean, noisy = codeword_plus_errors(rep50_square, budget, seed)
        out, trace = decode_square(noisy, cfg)
        assert out == clean
        # counting invariant: lines at the diagnostic threshold stay rare
        assert 100 * trace.bad_rows <= cfg.radius
        assert 100 * trace.bad_cols <= cfg.radius


def test_concentrated_row_corruption_triggers_removal(rep50_square):
    cfg = DecoderConfig.for_code(rep50_square.base)
    clean = random_codeword(rep50_square, 3)
    noisy = clean.entries.copy()
    flip = (noisy[20, :30] + 1) % 2
    noisy[20, :30] = flip  # 30 > radius errors in one row
    out, trace = decode_square(TensorWord(rep50_square.field, noisy), cfg)
    assert out == clean
    assert trace.removed_rows == (20,)
    assert trace.removed_cols == ()


def test_beyond_budget_never_returns_non_codeword(rep50_square):
    cfg = DecoderConfig.for_code(rep50_square.base)
    flat = rep50_square.flattened()
    rng = np.random.default_rng(0)
    for _ in range(5):
        garbage = TensorWord(rep50_square.field, rng.integers(0, 2, size=(50, 50)))
        out, _ = decode_square(garbage, cfg)
        assert out is None or not flat.syndrome(out.flat()).any()


def test_failure_is_clean_on_unremovable_junk(parity3):
    # radius 0: any non-codeword line fails its decode and gets removed
    square = TensorCode(parity3, 2)
    cfg = DecoderConfig.for_code(parity3)
    junk = np.zeros((3, 3), dtype=int)
    junk[0, 0] = 1
    out, trace = decode_square(TensorWord(square.field, junk), cfg)
    assert out is None
    assert trace.status != "ok"


def test_pass_five_checks_the_pivot_columns_not_the_first_k():
    """Column 0 of [0 1 1] is zero in every row codeword, so only the pivot
    column 1 shows that these rows, kept whole by a radius-1 column pass
    and a threshold that removes nothing, do not form a square codeword."""
    base = LinearCode(PrimeField(2), [[0, 1, 1]])
    cfg = DecoderConfig.for_code(base, radius=1, removal_threshold=1)
    word = TensorWord(base.field, np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]]))
    decoded, trace = decode_square(word, cfg)
    assert decoded is None and trace.status == "not-a-codeword"
    assert trace.removed_rows == () and trace.removed_cols == ()


def test_decode_trace_serializes(rep50_square):
    cfg = DecoderConfig.for_code(rep50_square.base)
    _, trace = decode_square(random_codeword(rep50_square, 2), cfg)
    doc = trace.to_json_dict()
    assert doc["status"] == "ok"
    assert doc["budget"] == 5
    assert len(doc["inconsistent"]) == 50


def test_shape_validation(rep50):
    cfg = DecoderConfig.for_code(rep50)
    with pytest.raises(ShapeError, match="50 x 50"):
        decode_square(TensorWord(rep50.field, np.zeros((3, 3), dtype=int)), cfg)
    with pytest.raises(ShapeError, match="GF"):
        decode_square(TensorWord(PrimeField(3), np.zeros((50, 50), dtype=int)), cfg)


def test_custom_radius_and_threshold(hamming):
    cfg = DecoderConfig.for_code(hamming, radius=0, removal_threshold=Fraction(1, 2))
    assert cfg.radius == 0
    square = TensorCode(hamming, 2)
    word = random_codeword(square, 4)
    out, _ = decode_square(word, cfg)
    assert out == word
    with pytest.raises(ValueError):
        DecoderConfig.for_code(hamming, removal_threshold=Fraction(3, 2))
    with pytest.raises(ValueError):
        DecoderConfig.for_code(hamming, radius=-1)


def decode_like_reference(word, cfg):
    """decode_square's result, checked against the per-line reference."""
    out, trace = decode_square(word, cfg)
    expected, expected_trace = reference.decode_square(word, cfg)
    assert out == expected
    assert trace.to_json_dict() == expected_trace.to_json_dict()
    return out, trace


def test_pass_four_completes_removed_rows_and_columns(rep50_square):
    cfg = DecoderConfig.for_code(rep50_square.base)
    clean = random_codeword(rep50_square, 3)
    noisy = clean.entries.copy()
    noisy[20, :30] ^= 1  # 30 > radius errors in row 20
    noisy[25:, 40] ^= 1  # and 25 > radius in column 40
    out, trace = decode_like_reference(TensorWord(rep50_square.field, noisy), cfg)
    assert trace.removed_rows == (20,) and trace.removed_cols == (40,)
    assert out == clean and trace.result_distance == 55


# A row reaching pass 4 is a decoded codeword, so its known part always
# fits one: "row-erasure-inconsistent" cannot occur. Each other status is
# reached on a hamming74^2 word with radius 1 and a low removal threshold.
# In the last two, ambiguous and inconsistent columns alternate, so only
# the first failing column gives the expected status.
@pytest.mark.parametrize(
    "status, errors, seed, threshold",
    [
        ("row-erasure-ambiguous", None, 2, Fraction(1, 7)),
        ("column-erasure-ambiguous", 3, 27, Fraction(1, 7)),
        ("column-erasure-inconsistent", None, 2, Fraction(1, 5)),
        ("column-erasure-ambiguous", 8, 160, Fraction(1, 5)),
        ("column-erasure-inconsistent", None, 199, Fraction(1, 5)),
    ],
)
def test_pass_four_failure_statuses(hamming, status, errors, seed, threshold):
    square = TensorCode(hamming, 2)
    cfg = DecoderConfig.for_code(hamming, radius=1, removal_threshold=threshold)
    if errors is None:
        word = random_word(square, seed)
    else:
        word = codeword_plus_errors(square, errors, seed)[1]
    out, trace = decode_like_reference(word, cfg)
    assert out is None and trace.status == status
    assert trace.removed_rows and trace.removed_cols
