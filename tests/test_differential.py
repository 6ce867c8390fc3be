"""Differential tests: each whole-tensor path against its loop reference."""

import importlib.util
import inspect
import io
import sys
import tracemalloc
from fractions import Fraction
from math import ceil, factorial

import numpy as np
import pytest
import reference
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from tensorltc import analysis, decoding, experiment, linear_code, local_testing, noise, tensor_code
from tensorltc.analysis import (
    OpinionTable,
    compute_opinions,
    extend_from_subcube,
    inconsistency,
)
from tensorltc.decoding import DecoderConfig, decode_square
from tensorltc.errors import InvariantError, ZeroCodeError
from tensorltc.experiment import (
    KINDS,
    MODES,
    ExperimentSpec,
    distance_lower_bound_batch,
    resolve_base_code,
    run_experiment,
)
from tensorltc.field import PrimeField
from tensorltc.linear_code import (
    ErasureFailure,
    LinearCode,
    PartialWord,
    hamming74,
    parity_code,
    random_linear_code,
    repetition_code,
)
from tensorltc.local_testing import (
    rejection_probability_exact,
    rejection_probability_sampled,
    robustness_exact,
)
from tensorltc.noise import codeword_plus_errors, planted_word, random_word
from tensorltc.tensor_code import EncodeCounter, PlaneIndex, TensorCode, TensorWord

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
    assert distance_lower_bound_batch(code, word.entries[None])[0] == expected


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


def check_exact_rejection(module, base, m, axis_mode, seed):
    code = TensorCode(base, m)
    rng = np.random.default_rng(seed)
    for word in (near_codeword(code, rng), random_word(code, seed)):
        expected = reference.rejection_probability_exact(word, code, axis_mode)
        assert module.rejection_probability_exact(word, code, axis_mode) == expected


def check_sampled_rejection(module, base, m, axis_mode, trials, seed):
    code = TensorCode(base, m)
    word = near_codeword(code, np.random.default_rng(seed))
    sampled = module.rejection_probability_sampled(word, code, trials, seed, axis_mode)
    assert sampled.rejections == reference.sampled_rejections(word, code, trials, seed, axis_mode)


def check_pair_weights(module, m, axis_mode):
    assert module._pair_weights(m, axis_mode) == reference.pair_weights(m, axis_mode)


# Path enumeration reads n^(m-2) squares per axis-choice sequence: at most
# 3,840 at n = 4, m = 5.
EXACT_ARGS = (codes(), st.integers(3, 5), st.sampled_from(AXIS_MODES), st.integers(0, 2**32 - 1))
SAMPLED_ARGS = (
    codes(),
    st.integers(3, 8),
    st.sampled_from(AXIS_MODES),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)
WEIGHT_ARGS = (st.integers(3, 14), st.sampled_from(AXIS_MODES))


@PROPERTY
@given(*EXACT_ARGS)
def test_exact_rejection_matches_path_enumeration(base, m, axis_mode, seed):
    check_exact_rejection(local_testing, base, m, axis_mode, seed)


@PROPERTY
@given(*SAMPLED_ARGS)
def test_sampled_rejection_matches_per_draw_loop(base, m, axis_mode, trials, seed):
    check_sampled_rejection(local_testing, base, m, axis_mode, trials, seed)


@pytest.mark.parametrize("axis_mode", AXIS_MODES)
@pytest.mark.parametrize("m", range(3, 15))
def test_pair_weights_match_memoised_count(m, axis_mode):
    check_pair_weights(local_testing, m, axis_mode)


def mixed_opinions(code: TensorCode, rng: np.random.Generator) -> tuple[TensorWord, OpinionTable]:
    """A near-codeword and plane opinions that are codewords of the
    (m-1)-fold power: each is the plane's view of one codeword, or, for
    about a third of the planes, an unrelated codeword."""
    p, m, n = code.field.p, code.m, code.n
    sub = code.sub()
    clean = code.encode(rng.integers(0, p, size=code.dimension)).entries
    word = near_codeword(code, rng)
    nearest = np.empty((m, n, n ** (m - 1)), dtype=np.int64)
    for b in range(m):
        for i in range(n):
            if rng.random() < 1 / 3:
                opinion = sub.encode(rng.integers(0, p, size=sub.dimension)).entries
            else:
                opinion = np.take(clean, i, axis=b)
            nearest[b, i] = opinion.reshape(-1)
    views = np.stack([np.moveaxis(word.entries, b, 0) for b in range(m)]).reshape(nearest.shape)
    distances = np.count_nonzero(nearest != views, axis=2)
    return word, OpinionTable(code=code, nearest=nearest, distances=distances)


def fixed_points(report):
    """The almost-fixed points of a report, in lexicographic order."""
    return tuple(map(tuple, np.argwhere(report.fix_mask).tolist()))


def assert_report_matches(word, opinions):
    report = inconsistency(word, opinions)
    E, to_fix, heavy_planes = reference.inconsistency(
        word, opinions.code, reference.table_opinions(opinions)
    )
    assert report.disagreement.dtype == E.dtype
    assert np.array_equal(report.disagreement, E)
    assert fixed_points(report) == to_fix
    assert report.heavy_planes == heavy_planes


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


# -- plane opinions, the heavy-plane cover and the subcube -----------------------

# The plane-view oracle scans the (m-1)-fold power's p^(k^(m-1)) codewords:
# at most 6,561 here (GF(3), k = 2, m = 4).
opinion_codes = codes(max_k={2: 2, 3: 2, 5: 1})


def outcome(f, *args):
    """f(*args), or the class of the InvariantError it raises."""
    try:
        return f(*args)
    except InvariantError as exc:
        return type(exc)


def subcube_sets(module, report):
    subcube = outcome(module.heavy_free_subcube, report)
    return subcube if isinstance(subcube, type) else subcube.sets


def check_analysis(module, base, m, axis_mode, seed):
    """Every array form of ``module`` against the loop references."""
    code = TensorCode(base, m)
    for word in (near_codeword(code, np.random.default_rng(seed)), random_word(code, seed)):
        table = module.compute_opinions(word, code)
        expected = reference.compute_opinions(word, code)
        assert table.nearest.shape == (m, code.n, code.n ** (m - 1))
        assert table.distances.shape == (m, code.n)
        for pl, op in expected.items():
            b, i = pl.axis - 1, pl.coord
            assert table.distances[b, i] == op.distance
            assert np.array_equal(table.nearest[b, i], op.opinion.reshape(-1))
        rho = robustness_exact(word, code, axis_mode)
        assert rho == reference.robustness_exact(word, code, axis_mode)

        report = module.inconsistency(word, table)
        E, to_fix, heavy_planes = reference.inconsistency(word, code, expected)
        assert np.array_equal(report.disagreement, E)
        assert fixed_points(report) == to_fix and report.num_to_fix == len(to_fix)
        assert report.heavy_planes == heavy_planes
        assert module.verify_heavy_cover(report) == reference.verify_heavy_cover(
            code, E, heavy_planes
        )
        expected_sets = outcome(reference.heavy_free_subcube, code, E, heavy_planes)
        assert subcube_sets(module, report) == expected_sets
        doc = outcome(lambda: module.analyze_word(word, code).to_json_dict())
        assert doc == outcome(reference.analysis_json, word, code)


def check_forged_report(module, base, m, seed):
    """Cover and subcube of reports with random marks and heavy planes."""
    code = TensorCode(base, m)
    n = code.n
    rng = np.random.default_rng(seed)
    E = (rng.random((n,) * m) < rng.random() / 2).astype(np.uint8)
    heavy = rng.random((m, n)) < rng.random()
    # drawn and unused, so that the fix-mask draw below keeps its values
    for _ in range(m):
        rng.random((n,) * (m - 1))
    fix_mask = rng.random(E.shape) < 0.2
    report = module.InconsistencyReport(code, E, fix_mask, heavy)
    planes = tuple(PlaneIndex(b + 1, i) for b in range(m) for i in range(n) if heavy[b, i])
    assert report.heavy_planes == planes
    assert report.num_to_fix == np.count_nonzero(fix_mask)
    assert module.verify_heavy_cover(report) == reference.verify_heavy_cover(code, E, planes)
    assert subcube_sets(module, report) == outcome(reference.heavy_free_subcube, code, E, planes)


ANALYSIS_ARGS = (
    opinion_codes, st.integers(3, 4), st.sampled_from(AXIS_MODES), st.integers(0, 2**32 - 1)
)
FORGED_ARGS = (codes(), st.integers(3, 4), st.integers(0, 2**32 - 1))


@PROPERTY
@given(*ANALYSIS_ARGS)
def test_analysis_arrays_match_loop_references(base, m, axis_mode, seed):
    check_analysis(analysis, base, m, axis_mode, seed)


@PROPERTY
@given(*FORGED_ARGS)
def test_cover_and_subcube_match_loop_references_on_forged_reports(base, m, seed):
    check_forged_report(analysis, base, m, seed)


MUTATIONS = {
    "covered along the next axis": (
        analysis,
        "[self.heavy.reshape(-1)]",
        "[np.roll(self.heavy, -1, axis=0).reshape(-1)]",
        check_forged_report,
        FORGED_ARGS,
    ),
    "strict heavy-plane threshold": (
        analysis,
        "heavy=2 * marks >= d ** (m - 1)",
        "heavy=2 * marks > d ** (m - 1)",
        check_analysis,
        ANALYSIS_ARGS,
    ),
    "plane views with axes 1 and 2 swapped": (
        tensor_code,
        "np.moveaxis(grid, b, 0) for b in range(m)",
        "np.moveaxis(grid, b, 0) for b in (1, 0, *range(2, m))",
        check_analysis,
        ANALYSIS_ARGS,
    ),
}


def load_mutant(monkeypatch, module, old, new):
    """A copy of a library module with one expression changed, held in
    memory under its own name."""
    source = inspect.getsource(module)
    assert source.count(old) == 1
    mutant_name = module.__name__.replace("tensorltc.", "tensorltc.mutated_")
    spec = importlib.util.spec_from_loader(mutant_name, loader=None)
    mutant = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mutant)
    exec(compile(source.replace(old, new), module.__file__, "exec"), mutant.__dict__)
    return mutant


def assert_property_fails(check, module, args, errors=AssertionError):
    @settings(PROPERTY, phases=[Phase.generate], report_multiple_bugs=False)
    @given(st.tuples(*args))
    def mutated_property(values):
        check(module, *values)

    with pytest.raises(errors):
        mutated_property()


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_analysis_properties_catch_mutations(monkeypatch, name):
    """A mutated library module must fail the property that guards the
    changed expression. A mutated ``tensor_code`` serves its plane views to
    the real analysis."""
    module, old, new, check, args = MUTATIONS[name]
    mutant = load_mutant(monkeypatch, module, old, new)
    if module is tensor_code:
        monkeypatch.setattr(tensor_code, "plane_index", mutant.plane_index)
        mutant = analysis
    assert_property_fails(check, mutant, args)


REJECTION_MUTATIONS = {
    "slices fail on one free axis's lines": (
        "along[c - 1][b] | along[b][c] for b, c",
        "along[c - 1][b] for b, c",
        [(check_exact_rejection, EXACT_ARGS), (check_sampled_rejection, SAMPLED_ARGS)],
    ),
    "first-three exponent c - b": (
        "2 ** max(0, c - max(b, 2))",
        "2 ** max(0, c - b)",
        [(check_pair_weights, WEIGHT_ARGS)],
    ),
    "Lehmer decode skips an equal entry": (
        "tail += tail >= order[i]",
        "tail += tail > order[i]",
        [(check_sampled_rejection, SAMPLED_ARGS)],
    ),
    "slice rank counts the wrong side of b": (
        "- (b > axes)",
        "- (b < axes)",
        [(check_sampled_rejection, SAMPLED_ARGS)],
    ),
    "slice rank compares c twice": (
        "- (b > axes) - (c > axes)",
        "- (c > axes) - (c > axes)",
        [(check_sampled_rejection, SAMPLED_ARGS)],
    ),
}
# Mutants whose replay can read past its tables: the property fails there
# on the out-of-range index, or else on a wrong count.
OUT_OF_RANGE_MUTATIONS = {"Lehmer decode skips an equal entry", "slice rank counts the wrong side of b"}


@pytest.mark.parametrize("name", sorted(REJECTION_MUTATIONS))
def test_rejection_properties_catch_mutations(monkeypatch, name):
    old, new, checks = REJECTION_MUTATIONS[name]
    mutant = load_mutant(monkeypatch, local_testing, old, new)
    errors = (AssertionError, IndexError) if name in OUT_OF_RANGE_MUTATIONS else AssertionError
    for check, args in checks:
        assert_property_fails(check, mutant, args, errors)


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
        assert isinstance(code._packed_blocks(), list) != ("CODEBOOK_CAP" in path)
    for got, expected in zip(result, reference.nearest_batch(code, words)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("path", ORACLE_PATHS)
def test_nearest_batch_returns_writeable_c_ordered_int64(path):
    """Callers own the codewords they get back, and may write into them."""
    for code in (hamming74(), random_linear_code(70, 2, 13, seed=0)):
        words = oracle_batch(code, np.random.default_rng(0))
        with pytest.MonkeyPatch.context() as mp:
            for name, value in path.items():
                mp.setattr(linear_code, name, value)
            codewords = code.nearest_batch(words)[0]
        assert codewords.dtype == np.int64 and codewords.shape == words.shape
        assert codewords.flags.c_contiguous and codewords.flags.writeable
        codewords[0] = 0


@PROPERTY
@given(wide_codes, st.sampled_from([1 << 14, 30]))
def test_enumeration_matches_reencoding_reference(code, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear_code, "_BLOCK", block)
        codebook = code.codewords()
        distance = code.minimum_distance()
    assert codebook.dtype == code.field.dtype
    assert np.array_equal(codebook, reference.codewords(code))
    assert distance == reference.minimum_distance(code)


@pytest.mark.parametrize("path", ORACLE_PATHS)
@pytest.mark.parametrize("n", [3, 70])
def test_sixteen_plane_code_matches_reencoding_reference(path, n):
    """GF(65521) symbols take 16 bit-planes, the most any field below 2**16
    needs; k = 1 keeps its 65,521 codewords under ENUM_CAP."""
    code = random_linear_code(n, 1, 65521, seed=n)
    words = oracle_batch(code, np.random.default_rng(n))
    with pytest.MonkeyPatch.context() as mp:
        for name, value in path.items():
            mp.setattr(linear_code, name, value)
        result = code.nearest_batch(words)
        distance = code.minimum_distance()
        assert isinstance(code._packed_blocks(), list) != ("CODEBOOK_CAP" in path)
    for got, expected in zip(result, reference.nearest_batch(code, words)):
        assert np.array_equal(got, expected)
    assert distance == reference.minimum_distance(code)
    if not path:
        assert code.codewords().dtype == np.uint16
        assert np.array_equal(code.codewords(), reference.codewords(code))


# With _BLOCK small each codebook spans many blocks (GF(65521) with k = 1
# spans one block of p columns), and for odd p a block spans several
# chunks of _BLOCK // planes columns, so a chunk boundary falls inside it.
@pytest.mark.parametrize("p, k, block", [(2, 9, 30), (3, 5, 30), (257, 2, 100), (65521, 1, 1 << 10)])
@pytest.mark.parametrize("n", [63, 64, 65])
def test_codewords_unpacked_block_by_block_match_reference(p, k, block, n):
    code = random_linear_code(n, k, p, seed=n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear_code, "_BLOCK", block)
        codebook = code.codewords()
        columns = [columns.shape[-1] for _, columns in code._packed_blocks()]
    planes = (p - 1).bit_length()
    assert len(columns) > 1 or p > block
    assert p == 2 or max(columns) > block // planes
    assert codebook.dtype == code.field.dtype and codebook.flags.c_contiguous
    assert np.array_equal(codebook, reference.codewords(code))


CODEBOOKS = {
    "parity(3)^4 flat": lambda: TensorCode(parity_code(3), 4).flattened(),
    "random:20,10,3,0": lambda: random_linear_code(20, 10, 3, seed=0),
    "GF(65521) [5,1]": lambda: random_linear_code(5, 1, 65521, seed=0),
}


@pytest.mark.parametrize("name", CODEBOOKS)
def test_codewords_peak_stays_within_4_mib_of_the_result(name):
    """Symbols are unpacked straight into the codebook, a chunk at a time:
    with the packed blocks built first, the traced peak of a cold
    ``codewords()`` is its result plus one chunk's temporaries."""
    code = CODEBOOKS[name]()
    code._packed_blocks()
    tracemalloc.start()
    try:
        codebook = code.codewords()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= codebook.nbytes + 4 * 2**20


# p = 2 adds by XOR; the odd primes take 2, 3, 3, 4 and 16 planes, and n up
# to 130 crosses a 64-bit word boundary twice.
ADD_ARGS = (st.sampled_from([2, 3, 5, 7, 13, 65521]), st.integers(1, 130), st.integers(0, 2**32 - 1))


def check_packed_add(module, p, n, seed):
    """The packed sum of packed a and b is packed (a + b) % p. Whole uint64
    words are compared, so the padding bits must stay zero too."""
    code = module.repetition_code(n, p)
    rng = np.random.default_rng(seed)
    a = np.concatenate([rng.integers(0, p, size=(4, n)), np.full((2, n), p - 1)])
    b = np.concatenate([rng.integers(0, p, size=(4, n)), np.full((1, n), p - 1), np.ones((1, n), int)])

    def columns(words):
        return code._pack(words).transpose(1, 2, 0)

    assert np.array_equal(code._add(columns(a), columns(b)), columns((a + b) % p))


@PROPERTY
@given(*ADD_ARGS)
def test_packed_add_matches_symbol_add(p, n, seed):
    check_packed_add(linear_code, p, n, seed)


def test_packed_add_property_catches_a_missing_reduction(monkeypatch):
    """The mutant "the sum is never reduced by p" must fail the property."""
    mutant = load_mutant(
        monkeypatch,
        linear_code,
        "np.stack([bit ^ (over & flip) for bit, flip in zip(total, flips)])",
        "np.stack(total)",
    )
    assert_property_fails(check_packed_add, mutant, ADD_ARGS)


# -- the line decoders -----------------------------------------

decoder_codes = codes(n=st.integers(1, 8), max_k={2: 6, 3: 4, 5: 3})


def noisy_lines(code: LinearCode, rng: np.random.Generator, max_errors: int) -> np.ndarray:
    """Twelve lines: nine codewords with up to ``max_errors`` symbols
    changed and three uniform random words."""
    p, n = code.p, code.n
    lines = code.encode(rng.integers(0, p, size=(12, code.k)))
    for line in lines[:9]:
        positions = rng.choice(n, size=int(rng.integers(0, min(max_errors, n) + 1)), replace=False)
        line[positions] = (line[positions] + rng.integers(1, p, size=positions.size)) % p
    lines[9:] = rng.integers(0, p, size=(3, n))
    return lines


@PROPERTY
@given(decoder_codes, st.integers(0, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_bounded_distance_decode_matches_per_line_reference(code, radius, enumerate_, seed):
    words = noisy_lines(code, np.random.default_rng(seed), radius + 2)
    with pytest.MonkeyPatch.context() as mp:
        if enumerate_:  # the nearest-codeword path
            mp.setattr(linear_code, "SYNDROME_CAP", 1)
        decoded = [code.bounded_distance_decode(w, radius) for w in words]
        rows, failed = code._decode_lines(words, radius)  # failed rows are zeroed
        expected = [reference.bounded_distance_decode(code, w, radius) for w in words]
    for got, row, miss, want in zip(decoded, rows, failed, expected):
        assert (got is None) == (want is None) == miss
        assert got is None or (got.dtype == np.int64 and np.array_equal(got, want))
        assert np.array_equal(row, np.zeros(code.n) if want is None else want)


@PROPERTY
@given(decoder_codes, st.integers(0, 2**32 - 1))
def test_erasure_batch_matches_per_line_reference(code, seed):
    rng = np.random.default_rng(seed)
    known = rng.random(code.n) < rng.random()  # often too few to fix the message
    known[rng.integers(code.n)] = True
    lines = noisy_lines(code, rng, 2)  # consistent, inconsistent and random lines
    codewords, status = code.erasure_decode_batch(lines, known)
    assert codewords.dtype == np.int64 and len(status) == len(lines)
    for line, got, state in zip(lines, codewords, status):
        want = reference.erasure_decode(code, PartialWord(line, known))
        if isinstance(want, ErasureFailure):
            assert state is want and not got.any()
        else:
            assert state is None and np.array_equal(got, want)
    single = code.erasure_decode(PartialWord(lines[0], known))
    assert single is status[0] if status[0] is not None else np.array_equal(single, codewords[0])


# Codes with d >= 3 beside random ones, so that lines decode, disagree and
# get removed in every way the decoder's passes allow.
square_codes = st.one_of(
    st.sampled_from(
        [hamming74(), repetition_code(5), random_linear_code(6, 2, 3, 1), random_linear_code(7, 3, 2, 4)]
    ),
    codes(n=st.integers(3, 7), max_k={2: 3, 3: 2, 5: 2}),
)


@PROPERTY
@given(
    square_codes,
    st.sampled_from([None, 0, 1, 2]),
    st.sampled_from([None, Fraction(1, 7), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]),
    st.integers(0, 2**32 - 1),
)
def test_decode_square_matches_per_line_reference(code, radius, threshold, seed):
    square = TensorCode(code, 2)
    cfg = DecoderConfig.for_code(code, radius=radius, removal_threshold=threshold)
    n = code.n
    rng = np.random.default_rng(seed)
    noisy = codeword_plus_errors(square, int(rng.integers(0, n + 1)), seed)[1]
    overloaded = codeword_plus_errors(square, int(rng.integers(n, n * n // 2 + 1)), seed)[1]
    for word in (noisy, overloaded, random_word(square, seed)):
        decoded, trace = decode_square(word, cfg)
        expected, expected_trace = reference.decode_square(word, cfg)
        assert decoded == expected
        assert trace.to_json_dict() == expected_trace.to_json_dict()


def check_information_set(columns_of, code, seed):
    """Pass 5's argument: when every row of a matrix is a codeword, its
    columns are all codewords exactly when its ``columns_of(code)`` columns
    are. The matrix is a square codeword with a few pivot columns perturbed
    and each row re-encoded from its pivot entries, so its rows stay
    codewords while some of its columns may not."""
    rng = np.random.default_rng(seed)
    n, k, p = code.n, code.k, code.p
    messages = (code.G.T @ rng.integers(0, p, size=(k, k))) % p  # row i is output[i, pivots]
    perturbed = rng.choice(k, size=int(rng.integers(0, k + 1)), replace=False)
    messages[:, perturbed] = rng.integers(0, p, size=(n, perturbed.size))
    output = (messages @ code.G) % p
    assert not code.syndrome(output).any()
    columns = code.syndrome(output.T).any()
    assert code.syndrome(output.T[columns_of(code)]).any() == columns


PIVOT_ARGS = (codes(n=st.integers(1, 8)), st.integers(0, 2**32 - 1))


@PROPERTY
@given(*PIVOT_ARGS)
@example(repetition_code(5, 3), 0)  # k = 1
@example(LinearCode(PrimeField(5), np.eye(4, dtype=np.int64)), 0)  # k = n
def test_pivot_columns_decide_column_membership(code, seed):
    check_information_set(lambda code: code.pivots, code, seed)


def test_pivot_column_property_catches_first_k_columns():
    """The mutant "first k columns instead of the pivots" must fail the
    property, and only on codes whose pivots are not 0..k-1."""
    pivots_of_failures = []

    @settings(PROPERTY, phases=[Phase.generate], report_multiple_bugs=False)
    @given(*PIVOT_ARGS)
    def mutated_property(code, seed):
        try:
            check_information_set(lambda code: np.arange(code.k), code, seed)
        except AssertionError:
            pivots_of_failures.append((code.pivots.tolist(), code.k))
            raise

    with pytest.raises(AssertionError):
        mutated_property()
    assert pivots_of_failures
    assert all(pivots != list(range(k)) for pivots, k in pivots_of_failures)


@PROPERTY
@given(
    codes(n=st.integers(2, 6)),
    st.sampled_from([None, 0, 1, 2]),
    st.sampled_from([None, Fraction(1, 5), Fraction(1, 2), Fraction(1)]),
    st.integers(0, 2**32 - 1),
)
def test_decode_square_status_matches_reference_on_random_words(code, radius, threshold, seed):
    """Pass 5 checks only the columns; on random words over GF(2), GF(3)
    and GF(5) every status must match the reference, which checks every
    line. Words whose rows are codewords keep their rows through pass 4,
    so their columns decide pass 5."""
    cfg = DecoderConfig.for_code(code, radius=radius, removal_threshold=threshold)
    n, p = code.n, code.p
    rng = np.random.default_rng(seed)
    rows = (rng.integers(0, p, size=(n, code.k)) @ code.G) % p
    near = rows.copy()
    near[rng.integers(0, n), rng.integers(0, n)] = rng.integers(0, p)
    for entries in (rng.integers(0, p, size=(n, n)), rows, near):
        word = TensorWord(code.field, entries)
        assert decode_square(word, cfg)[1].status == reference.decode_square(word, cfg)[1].status


# -- the stacked square decoder ---------------------------------------------------


def square_stack(code: LinearCode, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` words of the square power, in turn a codeword with up to
    n errors, a codeword with n to n^2/2 errors and a uniform random word."""
    square, n = TensorCode(code, 2), code.n
    words = []
    for i in range(count):
        seed = int(rng.integers(2**32))
        if i % 3 == 2:
            words.append(random_word(square, seed).entries)
        else:
            low, high = (0, n) if i % 3 == 0 else (n, n * n // 2)
            errors = int(rng.integers(low, high + 1))
            words.append(codeword_plus_errors(square, errors, seed)[1].entries)
    return np.stack(words)


def check_stacked_decoder(module, code, radius, threshold, enumerate_, count, seed):
    """The stacked decoder, given the stack in the field's narrow dtype as
    experiments build it, against the per-line int64 reference on each
    word of a mixed stack: output word, status and trace JSON."""
    cfg = DecoderConfig.for_code(code, radius=radius, removal_threshold=threshold)
    words = square_stack(code, np.random.default_rng(seed), count)
    with pytest.MonkeyPatch.context() as mp:
        if enumerate_:  # the nearest-codeword path of pass 1
            mp.setattr(linear_code, "SYNDROME_CAP", 1)
        stack = module.decode_stack(words.astype(code.field.dtype), cfg)
        expected = [reference.decode_square(TensorWord(code.field, w), cfg) for w in words]
    assert stack.output.dtype == code.field.dtype
    assert stack.status == [trace.status for _, trace in expected]
    for w, (decoded, trace) in enumerate(expected):
        assert stack.trace(w).to_json_dict() == trace.to_json_dict()
        if decoded is not None:
            assert np.array_equal(stack.output[w], decoded.entries)
    return stack.status


STACK_ARGS = (
    square_codes,
    st.sampled_from([None, 0, 1, 2]),
    st.sampled_from([None, Fraction(1, 5), Fraction(1, 2)]),
    st.booleans(),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)


@PROPERTY
@given(*STACK_ARGS)
def test_stacked_decoder_matches_per_line_reference(code, radius, threshold, enumerate_, count, seed):
    check_stacked_decoder(decoding, code, radius, threshold, enumerate_, count, seed)


ERASURE_FAILURES = {
    f"{axis}-erasure-{state.value}" for axis in ("row", "column") for state in ErasureFailure
}


@pytest.mark.parametrize("enumerate_", [False, True])
@pytest.mark.parametrize(
    "code, threshold, seed",
    [
        (random_linear_code(7, 3, 2, 4), Fraction(1, 5), 34),
        (random_linear_code(6, 2, 3, 1), Fraction(1, 2), 0),
        (random_linear_code(5, 2, 5, 2), Fraction(1, 2), 10),
    ],
)
def test_stacked_decoder_mixes_every_status(code, threshold, seed, enumerate_):
    """Radius 2, above the unique radius, with a custom removal threshold:
    one stack of 15 words over GF(2), GF(3) or GF(5) holds an ok word, an
    all-lines-removed one, an erasure failure, a non-codeword and one
    beyond the unique radius."""
    assert code.unique_decoding_radius() < 2
    statuses = set(check_stacked_decoder(decoding, code, 2, threshold, enumerate_, 15, seed))
    assert {"ok", "all-lines-removed", "not-a-codeword", "beyond-unique-radius"} <= statuses
    assert statuses & ERASURE_FAILURES


def test_stacked_decoder_property_catches_untransposed_columns(monkeypatch):
    """Pass 1 decoding the rows twice, instead of the rows and then the
    columns, must fail the stacked decoder's property."""
    mutant = load_mutant(monkeypatch, decoding, "words.transpose(0, 2, 1)", "words")
    assert_property_fails(check_stacked_decoder, mutant, STACK_ARGS)


def test_decode_experiment_bytes_do_not_depend_on_threads(monkeypatch):
    """Decode experiments in decoder slices of three words, on one thread
    and on two, write the same bytes."""
    spec = ExperimentSpec(
        kind="decode", base="hamming74", m=2, mode="errors", errors=2, trials=20, seed=5
    )
    monkeypatch.setattr(experiment, "DECODE_ENTRIES", 3 * 49)
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("TENSORLTC_THREADS", threads)
        out = io.StringIO()
        experiment.write_csv(run_experiment(spec), out)
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    assert {"0", "1"} <= {line.split(",")[9] for line in outputs[0].splitlines()[2:]}


@PROPERTY
@given(codes(n=st.integers(1, 6), max_k={2: 4, 3: 3, 5: 2}), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_extend_from_subcube_matches_per_line_reference(base, m, seed):
    code = TensorCode(base, m)
    rng = np.random.default_rng(seed)
    n = code.n
    sets = tuple(
        tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()))
        for _ in range(m)
    )
    for word in (near_codeword(code, rng), random_word(code, seed)):
        assert extend_from_subcube(word, sets, code) == reference.extend_from_subcube(word, sets, code)


@PROPERTY
@given(codes(n=st.integers(1, 6), max_k={2: 4, 3: 3, 5: 2}), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_extend_from_subcube_with_repeated_coordinates_matches_reference(base, m, seed):
    """Sets drawn with repetition, often n entries that miss a coordinate:
    an axis is skipped only when every coordinate is kept."""
    code = TensorCode(base, m)
    rng = np.random.default_rng(seed)
    n = code.n
    sets = tuple(tuple(rng.choice(n, size=int(rng.integers(1, n + 2))).tolist()) for _ in range(m))
    for word in (near_codeword(code, rng), random_word(code, seed)):
        assert extend_from_subcube(word, sets, code) == reference.extend_from_subcube(word, sets, code)


# -- experiments: stacked trials against one word at a time -----------------------


@PROPERTY
@given(codes(), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_stacked_encode_matches_one_word_encodes(base, m, count, seed):
    code = TensorCode(base, m)
    messages = np.random.default_rng(seed).integers(0, base.p, size=(count, code.dimension))
    stacked, one_by_one = EncodeCounter(), EncodeCounter()
    words = code.encode_batch(messages, stacked)
    assert words.shape == (count,) + (code.n,) * m
    for message, entries in zip(messages, words):
        assert np.array_equal(entries, code.encode(message, one_by_one).entries)
    assert stacked.base_calls == one_by_one.base_calls


@PROPERTY
@given(
    codes(), st.integers(3, 4), st.sampled_from(AXIS_MODES), st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_stacked_pair_fails_match_one_word_calls(base, m, axis_mode, count, seed):
    code = TensorCode(base, m)
    rng = np.random.default_rng(seed)
    words = np.stack([near_codeword(code, rng).entries for _ in range(count)])
    fails = np.stack(local_testing._pair_fails(words, code))
    assert fails.shape == (m * (m - 1) // 2,) + (code.n,) * (m - 2) + (count,)
    for w, entries in enumerate(words):
        assert np.array_equal(fails[..., w], np.stack(local_testing._pair_fails(entries, code)))
    expected = [
        rejection_probability_exact(TensorWord(code.field, e), code, axis_mode) for e in words
    ]
    assert local_testing.rejection_probability_exact_batch(words, code, axis_mode) == expected


@PROPERTY
@given(
    codes(), st.integers(2, 4), st.sampled_from(MODES), st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_noise_builders_match_one_word_generators(base, m, mode, count, seed):
    """The stacked words of W trials' draws are the words each trial's
    generator builds alone, and the one-word generators match the loop
    references."""
    code = TensorCode(base, m)
    t = seed % (code.blocklength + 1)
    seeds = [seed + 2 * i for i in range(count)]
    draws = [noise.word_draws(code, mode, t, s) for s in seeds]
    clean, words = noise.build_words(code, mode, draws)
    for s, clean_entries, entries in zip(seeds, clean, words):
        if mode == "random":
            expected = expected_clean = reference.random_word(code, s)
            assert noise.random_word(code, s) == expected
        elif mode == "errors":
            expected_clean, expected = reference.codeword_plus_errors(code, t, s)
            assert noise.codeword_plus_errors(code, t, s) == (expected_clean, expected)
        else:
            expected = expected_clean = reference.planted_word(code, s)
            assert noise.planted_word(code, s) == expected
        assert np.array_equal(entries, expected.entries)
        assert np.array_equal(clean_entries, expected_clean.entries)
    assert clean.dtype == words.dtype == code.field.dtype


# kind, mode and sampled draws of every valid experiment; decode words are
# codewords with errors on the square power
EXPERIMENTS = [
    (kind, mode, sample) for kind in ("robustness", "rejection") for mode in MODES
    for sample in ((False, True) if kind == "rejection" else (False,))
] + [("decode", "errors", False)]


@st.composite
def experiment_specs(draw, kind, mode, sample):
    """A spec over a random base code small enough for every path: the
    plane oracle enumerates at most 3^8 codewords and the flat oracle at
    most 2^16, or, for GF(3) codes with k = 2 at m = 4 (3^16 codewords),
    the distance is the lower bound."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, min(n, {2: 2, 3: 2, 5: 1}[p])))
    m = 2 if kind == "decode" else draw(st.integers(3, 4))
    return ExperimentSpec(
        kind=kind,
        base=f"random:{n},{k},{p},{draw(st.integers(0, 2**16))}",
        m=m,
        mode=mode,
        errors=draw(st.integers(0, n**m)),
        trials=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**32 - 1)),
        axis_mode=draw(st.sampled_from(AXIS_MODES)),
        sample_trials=draw(st.integers(1, 60)) if sample else 0,
    )


def check_experiment_rows(spec, words_per_chunk, threads):
    """Chunks of ``words_per_chunk`` words (None: the default budget, so
    the whole run), decoded in slices of two words, on ``threads`` threads
    give the per-trial loop's rows."""
    expected = reference.experiment_rows(spec)
    with pytest.MonkeyPatch.context() as patch:
        if words_per_chunk is not None:
            entries = experiment.resolve_base_code(spec.base).n ** spec.m
            patch.setattr(experiment, "CHUNK_ENTRIES", words_per_chunk * entries)
            patch.setattr(experiment, "DECODE_ENTRIES", 2 * entries)
        patch.setenv("TENSORLTC_THREADS", threads)
        assert run_experiment(spec) == expected


@pytest.mark.parametrize("kind, mode, sample", EXPERIMENTS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from([1, 7, None]), st.sampled_from(["1", "2"]))
def test_experiment_rows_match_per_trial_loop(kind, mode, sample, data, words_per_chunk, threads):
    spec = data.draw(experiment_specs(kind, mode, sample))
    check_experiment_rows(spec, words_per_chunk, threads)


@pytest.mark.parametrize("kind, mode, sample", [e for e in EXPERIMENTS if e[0] != "decode"])
def test_experiment_rows_match_per_trial_loop_with_lower_bounds(kind, mode, sample):
    """A GF(3) base with k = 2 at m = 4 has 3^16 codewords: every row's
    distance is the line-syndrome lower bound, from one stacked pass."""
    spec = ExperimentSpec(
        kind=kind, base="random:3,2,3,5", m=4, mode=mode, errors=5, trials=9, seed=11,
        axis_mode="first-three", sample_trials=30 if sample else 0,
    )
    assert run_experiment(spec)[0].distance_mode == "lower_bound"
    for words_per_chunk, threads in ((1, "1"), (7, "2"), (None, "1")):
        check_experiment_rows(spec, words_per_chunk, threads)


def test_exact_rejection_weighted_sum_passes_int64():
    """Every line of the parity(2)^18 word x -> (x_1 + ... + x_18) mod 2
    holds a 0 and a 1, so every slice of all 153 pairs fails: each pair
    weighs 16! and has 2^16 slices, so the rejecting paths number
    153 * 16! * 2^16 > 2^63, which an int64 sum would wrap."""
    m = 18
    code = TensorCode(parity_code(2), m)
    weights = local_testing._pair_weights(m, "all")
    assert weights == (factorial(16),) * 153
    assert sum(weights) * 2 ** (m - 2) > 2**63
    entries = np.indices((2,) * m, dtype=np.int8).sum(axis=0, dtype=np.int64) % 2
    word = TensorWord(code.field, entries)
    assert rejection_probability_exact(word, code) == 1
    stack = np.stack([entries, np.zeros_like(entries)])
    assert local_testing.rejection_probability_exact_batch(stack, code) == [1, 0]


# -- narrow symbols: stacks in the field's dtype, products that cannot overflow ----

# GF(13) symbols fill a uint8 and their sums need uint16; GF(65521) symbols
# take uint16 and their products 64 bits; k = 1 keeps its 65,521 codewords
# in memory.
NARROW_PRIMES = [2, 3, 5, 13, 65521]
NARROW_MAX_K = {2: 4, 3: 3, 5: 2, 13: 2, 65521: 1}
narrow_codes = codes(p=st.sampled_from(NARROW_PRIMES), n=st.integers(1, 4), max_k=NARROW_MAX_K)
NARROW_ARGS = (narrow_codes, st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))


def int64_line_syndromes(base: LinearCode, words: np.ndarray) -> np.ndarray:
    """Each line's syndrome from the int64 one-line API, laid out as
    ``line_syndromes`` lays it out: [axis, :, line * W + word]."""
    count, n = len(words), base.n
    per_axis = []
    for axis in range(1, words.ndim):
        lines = np.moveaxis(words.astype(np.int64), axis, -1).reshape(count, -1, n)
        syndromes = base.syndrome(lines).transpose(2, 1, 0)  # (n - k, line, word)
        per_axis.append(syndromes.reshape(n - base.k, lines.shape[1] * count))
    return np.stack(per_axis)


def check_narrow_products(modules, code, m, count, seed):
    """Stacks of W words in the field's narrow dtype, built by
    ``encode_batch`` and ``build_words`` and read by ``line_syndromes``,
    hold the values of the int64 one-word references and stay narrow; the
    syndromes come back in the narrowest dtype that holds n(p - 1)^2."""
    linear, tensor = modules
    base = linear.LinearCode(code.field, code.G)
    power = tensor.TensorCode(base, m)
    p, dtype = base.p, base.field.dtype
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, p, size=(count, power.dimension))
    encoded = power.encode_batch(messages)
    assert encoded.dtype == dtype
    for message, entries in zip(messages, encoded):
        assert np.array_equal(entries, reference.encode(power, message).entries)
    words = np.concatenate([encoded, rng.integers(0, p, size=encoded.shape).astype(dtype)])
    syndromes = tensor.line_syndromes(base, words, m)
    assert syndromes.dtype == np.min_scalar_type(base.n * (p - 1) ** 2)
    assert np.array_equal(syndromes, int64_line_syndromes(base, words))
    seeds = [seed + i for i in range(count)]
    references = (reference.random_word, reference.planted_word, reference.codeword_plus_errors)
    for mode, one_word in zip(("random", "planted", "errors"), references):
        t = seed % (power.blocklength + 1)
        clean, built = noise.build_words(power, mode, [noise.word_draws(power, mode, t, s) for s in seeds])
        assert clean.dtype == built.dtype == dtype
        for s, entries in zip(seeds, built):
            expected = one_word(power, t, s)[1] if mode == "errors" else one_word(power, s)
            assert np.array_equal(entries, expected.entries)


@PROPERTY
@given(*NARROW_ARGS)
def test_narrow_stacks_match_int64_references(code, m, count, seed):
    check_narrow_products((linear_code, tensor_code), code, m, count, seed)


# A product dtype that holds one symbol, not the sums of products, wraps
# at p = 65521, where a product of two symbols passes 2^32.
NARROW_MUTATIONS = {
    "parity checks in the symbol dtype": (
        linear_code,
        "np.min_scalar_type(self.n * (self.p - 1) ** 2)",
        "np.min_scalar_type(self.p - 1)",
    ),
    "generator in the symbol dtype": (
        tensor_code,
        "np.min_scalar_type(base.k * (base.p - 1) ** 2)",
        "np.min_scalar_type(base.p - 1)",
    ),
}


@pytest.mark.parametrize("name", sorted(NARROW_MUTATIONS))
def test_narrow_product_property_catches_a_planted_overflow(monkeypatch, name):
    module, old, new = NARROW_MUTATIONS[name]
    mutant = load_mutant(monkeypatch, module, old, new)
    modules = (mutant, tensor_code) if module is linear_code else (linear_code, mutant)
    args = (codes(p=st.just(65521), n=st.integers(2, 4), max_k=NARROW_MAX_K), *NARROW_ARGS[1:])
    assert_property_fails(check_narrow_products, modules, args)


@settings(PROPERTY, max_examples=40)
@given(
    codes(p=st.sampled_from(NARROW_PRIMES), n=st.integers(2, 4), max_k=NARROW_MAX_K),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_narrow_decode_stack_matches_int64_reference(code, count, seed):
    """The stacked decoder over GF(13) and GF(65521), too; its line
    decoder reads the narrow stack as it is."""
    dtypes = []
    decode_lines = LinearCode._decode_lines

    def spy(self, words, radius):
        dtypes.append(words.dtype)
        return decode_lines(self, words, radius)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LinearCode, "_decode_lines", spy)
        check_stacked_decoder(decoding, code, None, None, False, count, seed)
    assert dtypes == [code.field.dtype]


def test_experiment_stacks_reach_the_testers_and_decoder_narrow(monkeypatch):
    """No experiment stack is widened on its way in: the chunk's check
    returns the built stack itself, and each stacked layer reads the stack,
    or a slice of it, in the field's narrow dtype."""
    built, seen = [], []
    build_words = noise.build_words

    def build_spy(*args):
        clean, words = build_words(*args)
        built.append(words)
        return clean, words

    monkeypatch.setattr(noise, "build_words", build_spy)
    # each layer, and the position of the stack among its arguments
    for module, name, at in (
        (experiment, "rejection_probability_exact_batch", 0),
        (experiment, "word_relative_distance_batch", 1),
        (experiment, "decode_stack", 0),
        (PrimeField, "check", 1),
    ):
        layer = getattr(module, name)

        def spy(*args, layer=layer, name=name, at=at):
            result = layer(*args)
            if any(np.shares_memory(args[at], words) for words in built):
                seen.append((name, args[at].dtype, name != "check" or result is args[at]))
            return result

        monkeypatch.setattr(module, name, spy)
    for spec, layers in (
        (
            ExperimentSpec(kind="rejection", base="random:4,2,13,1", m=3, mode="planted", trials=3),
            {"check", "rejection_probability_exact_batch", "word_relative_distance_batch"},
        ),
        (
            ExperimentSpec(kind="decode", base="repetition:5", m=2, mode="errors", errors=2, trials=3),
            {"check", "decode_stack"},
        ),
    ):
        built.clear()
        seen.clear()
        run_experiment(spec)
        assert {name for name, _, _ in seen} == layers
        assert all(dtype == np.uint8 and same for _, dtype, same in seen)


# GF(2) and GF(3) symbols take uint8, GF(257) symbols uint16.
NARROW_TESTER_CASES = [("parity:3", 3), ("parity:3", 4), ("random:4,2,3,1", 3), ("random:3,1,257,0", 3)]


@pytest.mark.parametrize("axis_mode", AXIS_MODES)
@pytest.mark.parametrize("base, m", NARROW_TESTER_CASES)
def test_one_word_testers_receive_the_chunks_narrow_rows(monkeypatch, base, m, axis_mode):
    """Robustness and sampled-rejection experiments hand each row of the
    chunk's checked stack to the one-word tester as it is, in the field's
    narrow dtype, and their rows stay those of the int64 per-trial loop."""
    received = []
    for name in ("robustness_exact", "rejection_probability_sampled"):

        def spy(word, *args, tester=getattr(experiment, name)):
            received.append(word.entries.dtype)
            return tester(word, *args)

        monkeypatch.setattr(experiment, name, spy)
    dtype = resolve_base_code(base).field.dtype
    for kind, sample in (("robustness", 0), ("rejection", 40)):
        for mode in MODES:
            spec = ExperimentSpec(
                kind=kind, base=base, m=m, mode=mode, errors=2, trials=3, seed=5,
                axis_mode=axis_mode, sample_trials=sample,
            )
            received.clear()
            assert run_experiment(spec) == reference.experiment_rows(spec)
            assert received == [dtype] * spec.trials


@pytest.mark.parametrize("axis_mode", AXIS_MODES)
@pytest.mark.parametrize("base, m", NARROW_TESTER_CASES)
def test_testers_read_narrow_and_int64_entries_alike(base, m, axis_mode):
    """A word's narrow and int64 entries get the same plane opinions, in
    the oracle's narrow symbols either way, and the same tester values."""
    code = TensorCode(resolve_base_code(base), m)
    field, axes = code.field, m if axis_mode == "all" else 3
    for mode in MODES:
        draws = [noise.word_draws(code, mode, 2, seed) for seed in range(4)]
        for row in noise.build_words(code, mode, draws)[1]:
            narrow, wide = TensorWord._from_valid(field, row), TensorWord(field, row)
            assert narrow.entries.dtype == field.dtype and wide.entries.dtype == np.int64
            (nearest, distances), (wide_nearest, wide_distances) = (
                code.plane_opinions(word, axes) for word in (narrow, wide)
            )
            assert nearest.dtype == wide_nearest.dtype == field.dtype
            assert np.array_equal(nearest, wide_nearest)
            assert np.array_equal(distances, wide_distances)
            for tester in (robustness_exact, rejection_probability_exact):
                assert tester(narrow, code, axis_mode) == tester(wide, code, axis_mode)
            assert rejection_probability_sampled(
                narrow, code, 50, 7, axis_mode
            ) == rejection_probability_sampled(wide, code, 50, 7, axis_mode)


@PROPERTY
@given(codes(), st.integers(1, 4))
def test_flattened_code_matches_row_reduced_kronecker_power(base, m):
    """The Kronecker power taken as RREF, its pivots combined as
    p1 * n + p2, is the code ``LinearCode`` row-reduces from it."""
    flat = TensorCode(base, m).flattened()
    generator = base.G
    for _ in range(m - 1):
        generator = np.kron(generator, base.G) % base.p
    expected = LinearCode(base.field, generator)
    assert (flat.n, flat.k) == (expected.n, expected.k)
    assert flat.G.dtype == np.int64 and np.array_equal(flat.G, expected.G)
    assert np.array_equal(flat.pivots, expected.pivots) and not flat.pivots.flags.writeable
