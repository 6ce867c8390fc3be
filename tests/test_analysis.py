import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference

import tensorltc
from tensorltc.analysis import (
    LARGE_DISAGREEMENT,
    SMALL_DISAGREEMENT,
    InconsistencyReport,
    OpinionTable,
    analyze_word,
    certified_distance_bound,
    compute_opinions,
    extend_from_subcube,
    heavy_free_subcube,
    inconsistency,
    robustness_floor_check,
    verify_heavy_cover,
)
from tensorltc.errors import InvariantError
from tensorltc.experiment import word_relative_distance
from tensorltc.linear_code import (
    AMBIGUOUS,
    INCONSISTENT,
    ErasureFailure,
    LinearCode,
    parity_code,
    repetition_code,
)
from tensorltc.local_testing import robustness_exact
from tensorltc.noise import erase_planes, planted_word, random_codeword, random_word
from tensorltc.tensor_code import PlaneIndex, TensorCode, TensorWord


@pytest.fixture(scope="module")
def planted_cross(cube3):
    """Zero word with one plane overwritten by the codeword g x g x g.

    Hand analysis: the donor plane (1,0) holds ones at {0,2} x {0,2}; its
    opinion is itself while planes (2,0), (2,2), (3,0), (3,2) tie-break to
    the zero opinion, so disagreements sit exactly on the four ones.
    """
    donor = np.zeros(8, dtype=int)
    donor[0] = 1
    entries = reference.zero_word(cube3).entries
    entries[0] = cube3.encode(donor).entries[0]
    return TensorWord(cube3.field, entries)


def single_flip(code, point=None):
    entries = reference.zero_word(code).entries
    entries[point if point is not None else (0,) * code.m] = 1
    return TensorWord(code.field, entries)


def test_opinions_on_codeword(cube3):
    word = cube3.encode(np.arange(8) % 2)
    table = compute_opinions(word, cube3)
    assert table.nearest.shape == (3, 3, 9)
    for pl in reference.all_planes(3, 3):
        view = np.take(word.entries, pl.coord, axis=pl.axis - 1)
        assert table.distances[pl.axis - 1, pl.coord] == 0
        assert np.array_equal(table.nearest[pl.axis - 1, pl.coord], view.reshape(-1))
    assert table.mean_local_distance() == 0


def test_opinions_single_flip(cube3):
    word = single_flip(cube3)
    table = compute_opinions(word, cube3)
    disagreeing = np.argwhere(table.distances > 0).tolist()
    assert disagreeing == [[0, 0], [1, 0], [2, 0]]  # planes (1, 0), (2, 0) and (3, 0)
    for b, i in disagreeing:
        assert table.distances[b, i] == 1
        assert not table.nearest[b, i].any()  # opinion is the zero plane


def test_opinion_mean_equals_exact_robustness(cube3):
    for seed in range(40):
        word = random_word(cube3, seed)
        table = compute_opinions(word, cube3)
        assert table.mean_local_distance() == robustness_exact(word, cube3)


# -- the shared plane-view oracle ----------------------------------------------


def test_tester_and_analyzer_share_one_oracle_call(parity3, monkeypatch):
    code = TensorCode(parity3, 4)
    word = random_word(code, 3)
    calls = Counter()
    nearest = LinearCode._nearest

    def counting_nearest(self, words):
        calls[self.n] += 1
        return nearest(self, words)

    monkeypatch.setattr(LinearCode, "_nearest", counting_nearest)
    rho = robustness_exact(word, code)
    table = compute_opinions(word, code)
    # an equal word in a new array, and the other axis mode, hit the memo too
    rho_three = robustness_exact(TensorWord(code.field, word.entries.copy()), code, "first-three")
    assert calls == {27: 1}  # one call on the flat [27, 8] plane code
    assert table.mean_local_distance() == rho == reference.robustness_exact(word, code)
    assert rho_three == reference.robustness_exact(word, code, "first-three")


def test_first_three_oracle_sees_only_three_axes_of_planes(monkeypatch):
    code = TensorCode(repetition_code(2), 5)
    word = random_word(code, 5)
    rows = []
    nearest = LinearCode._nearest

    def counting_nearest(self, words):
        rows.append(len(words))
        return nearest(self, words)

    monkeypatch.setattr(LinearCode, "_nearest", counting_nearest)
    rho_three = robustness_exact(word, code, "first-three")
    assert rows == [3 * code.n]  # not 5 * n
    rho = robustness_exact(word, code)
    assert rows == [3 * code.n, 5 * code.n]
    # the five-axis result now serves the three-axis prefix
    assert robustness_exact(word, code, "first-three") == rho_three
    assert rows == [3 * code.n, 5 * code.n]
    assert rho_three == reference.robustness_exact(word, code, "first-three")
    assert rho == reference.robustness_exact(word, code)


def test_plane_opinions_follow_in_place_mutation(cube3):
    word = random_word(cube3, 8)
    before = compute_opinions(word, cube3)
    assert robustness_exact(word, cube3) == before.mean_local_distance()
    word.entries[1, 2, 0] = 1 - word.entries[1, 2, 0]
    after = compute_opinions(word, cube3)
    expected = reference.compute_opinions(word, cube3)
    assert after.nearest is not before.nearest
    for pl, op in expected.items():
        assert after.distances[pl.axis - 1, pl.coord] == op.distance
        assert np.array_equal(after.nearest[pl.axis - 1, pl.coord], op.opinion.reshape(-1))
    assert robustness_exact(word, cube3) == reference.robustness_exact(word, cube3)


def test_plane_opinions_are_read_only(cube3):
    word = random_word(cube3, 9)
    nearest, distances = cube3.plane_opinions(word)
    assert nearest.shape == (3, 3, 9) and distances.shape == (3, 3)
    opinion = compute_opinions(word, cube3).nearest[1, 1]  # plane (2, 1)
    for array in (nearest, distances, opinion):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def test_inconsistency_on_codeword(cube3):
    word = cube3.encode(np.arange(8) % 2)
    report = inconsistency(word, compute_opinions(word, cube3))
    assert report.support_size == 0
    assert report.num_to_fix == 0
    assert report.heavy_planes == ()


def test_inconsistency_single_flip(cube3):
    word = single_flip(cube3, point=(1, 2, 0))
    report = inconsistency(word, compute_opinions(word, cube3))
    assert report.support_size == 0
    assert np.argwhere(report.fix_mask).tolist() == [[1, 2, 0]]
    assert report.num_to_fix == 1


def test_inconsistency_planted_cross(cube3, planted_cross):
    report = inconsistency(planted_cross, compute_opinions(planted_cross, cube3))
    marks = sorted(tuple(int(v) for v in pt) for pt in np.argwhere(report.disagreement))
    assert marks == [(0, 0, 0), (0, 0, 2), (0, 2, 0), (0, 2, 2)]
    assert report.num_to_fix == 0
    assert report.heavy_planes == (
        PlaneIndex(1, 0),
        PlaneIndex(2, 0),
        PlaneIndex(2, 2),
        PlaneIndex(3, 0),
        PlaneIndex(3, 2),
    )
    assert report.disagreement[0].sum() == 4  # every mark lies in plane (1, 0)
    assert report.relative_weight() == Fraction(4, 27)


def test_floor_check_equality_on_single_errors(cube3):
    for point in [(0, 0, 0), (2, 1, 0), (1, 1, 1)]:
        word = single_flip(cube3, point)
        table = compute_opinions(word, cube3)
        check = robustness_floor_check(table, inconsistency(word, table))
        assert check.lhs == check.rhs == Fraction(1, 27)
        assert check.holds


def test_floor_check_planted_cross(cube3, planted_cross):
    table = compute_opinions(planted_cross, cube3)
    check = robustness_floor_check(table, inconsistency(planted_cross, table))
    assert check.lhs == Fraction(8, 81)
    assert check.rhs == Fraction(4, 81)
    assert check.holds


def test_floor_check_random_words(cube3):
    for seed in range(200):
        word = random_word(cube3, seed)
        table = compute_opinions(word, cube3)
        assert robustness_floor_check(table, inconsistency(word, table)).holds


def test_heavy_cover(cube3, planted_cross):
    table = compute_opinions(planted_cross, cube3)
    ok, witnesses = verify_heavy_cover(inconsistency(planted_cross, table))
    assert ok and witnesses == []
    zero = reference.zero_word(cube3)
    empty = inconsistency(zero, compute_opinions(zero, cube3))
    assert verify_heavy_cover(empty) == (True, [])


def test_heavy_cover_random_words(cube3):
    for seed in range(200):
        word = random_word(cube3, seed)
        report = inconsistency(word, compute_opinions(word, cube3))
        ok, witnesses = verify_heavy_cover(report)
        assert ok, f"seed {seed}: marks outside heavy planes at {witnesses}"


def test_subcube_from_clean_word(cube3):
    zero = reference.zero_word(cube3)
    report = inconsistency(zero, compute_opinions(zero, cube3))
    subcube = heavy_free_subcube(report)
    assert subcube.sets == ((0, 1, 2),) * 3
    assert subcube.removed == 0


def test_subcube_planted_cross(cube3, planted_cross):
    report = inconsistency(planted_cross, compute_opinions(planted_cross, cube3))
    subcube = heavy_free_subcube(report)
    assert subcube.sets == ((1, 2), (1,), (1,))
    assert subcube.removed == 5
    # removal bound: 2|E|m / d^(m-1) = 2*4*3/4 = 6
    assert subcube.removed * 4 <= 2 * report.support_size * 3


def test_extension_identity(cube3):
    word = cube3.encode(np.arange(8) % 2)
    assert extend_from_subcube(word, ((0, 1, 2),) * 3, cube3) == word


def test_extension_repetition_example():
    code = TensorCode(repetition_code(3), 2)
    values = np.zeros((3, 3), dtype=np.int64)
    values[:2, :2] = 1
    out = extend_from_subcube(TensorWord(code.field, values), ((0, 1), (0, 1)), code)
    assert isinstance(out, TensorWord)
    assert (out.entries == 1).all()


def test_extension_round_trip_with_erased_planes(cube3):
    rng = np.random.default_rng(12)
    for seed in range(50):
        word = random_codeword(cube3, seed)
        planes = [PlaneIndex(b, int(rng.integers(0, 3))) for b in (1, 2, 3)]
        masked, sets = erase_planes(word, planes)
        out = extend_from_subcube(masked, sets, cube3)
        assert isinstance(out, TensorWord) and out == word


def test_extension_ambiguous_when_too_much_is_missing(cube3):
    word = random_codeword(cube3, 5)
    # parity(3) has d = 2; two erased coordinates on one axis exceed d - 1
    out = extend_from_subcube(word, ((0,), (0, 1, 2), (0, 1, 2)), cube3)
    assert out is AMBIGUOUS


def test_extension_inconsistent_on_junk():
    code = TensorCode(repetition_code(3), 2)
    values = np.zeros((3, 3), dtype=np.int64)
    values[1, 0] = 1  # column 0 fully known but not constant
    out = extend_from_subcube(TensorWord(code.field, values), ((0, 1, 2), (0, 1)), code)
    assert out is INCONSISTENT


def test_certified_bound_on_codeword(cube3):
    word = cube3.encode(np.arange(8) % 2)
    analysis = analyze_word(word, cube3)
    assert analysis.certified.value == 0
    assert analysis.certified.branch == SMALL_DISAGREEMENT


def test_certified_bound_single_flip(cube3):
    word = single_flip(cube3)
    analysis = analyze_word(word, cube3)
    assert analysis.certified.value == Fraction(1, 27)
    assert word_relative_distance(cube3, word) == (analysis.certified.value, "exact")


def test_certified_bound_planted_cross(cube3, planted_cross):
    report = inconsistency(planted_cross, compute_opinions(planted_cross, cube3))
    certified = certified_distance_bound(report)
    assert certified.branch == LARGE_DISAGREEMENT
    assert certified.value == 1


def test_certified_bound_takes_the_large_branch_at_equality():
    """The small-disagreement branch needs 2 m |E| < d^m strictly. On
    parity(2)^4, d^m = 16: one mark gives 8 < 16, two give 16 = 16,
    which is the trivial bound."""
    code = TensorCode(parity_code(2), 4)
    one = certified_distance_bound(forged_report(code, marks=[(0, 0, 0, 0)]))
    assert one.branch == SMALL_DISAGREEMENT and one.value == Fraction(2 * 4 * 1, 2 * 2**3)
    two = certified_distance_bound(forged_report(code, marks=[(0, 0, 0, 0), (1, 1, 1, 1)]))
    assert two.branch == LARGE_DISAGREEMENT and two.value == 1


def test_certified_bound_dominates_truth(cube3):
    for seed in range(100):
        word = random_word(cube3, seed)
        analysis = analyze_word(word, cube3)
        true_delta, mode = word_relative_distance(cube3, word)
        assert mode == "exact"
        assert analysis.certified.value >= true_delta


def test_end_to_end_theorem_chain(cube3):
    # robustness * 2m^2 / delta^(m-1) dominates the true relative distance
    scale = Fraction(2 * 9, 1) / Fraction(2, 3) ** 2
    for seed in range(100):
        word = random_word(cube3, seed)
        rho = robustness_exact(word, cube3)
        true_delta, mode = word_relative_distance(cube3, word)
        assert mode == "exact"
        assert rho * scale >= true_delta


def test_analysis_json_schema(cube3, planted_cross):
    doc = analyze_word(planted_cross, cube3).to_json_dict()
    assert doc == {
        "wt_E": "4/27",
        "num_to_fix": 0,
        "heavy_planes": [[1, 0], [2, 0], [2, 2], [3, 0], [3, 2]],
        "removed_planes": 5,
        "bound_lhs": "8/81",
        "bound_rhs": "4/81",
        "branch": LARGE_DISAGREEMENT,
        "certified_distance_bound": "1",
    }


def test_planted_word_generator_exercises_disagreements(cube3):
    hits = 0
    for seed in range(30):
        word = planted_word(cube3, seed)
        report = inconsistency(word, compute_opinions(word, cube3))
        hits += report.support_size > 0
        ok, _ = verify_heavy_cover(report)
        assert ok
    assert hits > 0


def forged_report(code, marks=(), heavy=()):
    """An inconsistency report whose fields the analysis could never derive."""
    m, n = code.m, code.n
    E = np.zeros((n,) * m, dtype=np.uint8)
    for point in marks:
        E[point] = 1
    heavy_mask = np.zeros((m, n), dtype=bool)
    for pl in heavy:
        heavy_mask[pl.axis - 1, pl.coord] = True
    return InconsistencyReport(
        code=code,
        disagreement=E,
        fix_mask=np.zeros(E.shape, dtype=bool),
        heavy=heavy_mask,
    )


def test_invariant_errors_on_forged_input(cube3):
    # a mark outside every heavy plane leaves the subcube dirty
    with pytest.raises(InvariantError):
        heavy_free_subcube(forged_report(cube3, marks=[(1, 1, 1)]))
    # removing a plane with no marks breaks the removed-plane bound
    with pytest.raises(InvariantError):
        heavy_free_subcube(forged_report(cube3, heavy=[PlaneIndex(1, 0)]))
    # opinions that are not subcode codewords disagree in a single point
    word = reference.zero_word(cube3)
    opinions = compute_opinions(word, cube3)
    nearest, distances = opinions.nearest.copy(), opinions.distances.copy()
    nearest[0, 0, 0] = 1  # plane (1, 0) holds a lone one at its corner
    distances[0, 0] = 1
    with pytest.raises(InvariantError):
        inconsistency(word, OpinionTable(cube3, nearest, distances))


def test_invariant_errors_survive_optimized_mode():
    # python -O strips assert statements; the invariants must not rely on them
    script = (
        "import numpy as np\n"
        "from tensorltc import InvariantError, TensorCode, parity_code\n"
        "from tensorltc.analysis import InconsistencyReport, heavy_free_subcube\n"
        "assert False, 'assertions are live'\n"
        "code = TensorCode(parity_code(3), 3)\n"
        "E = np.zeros((3, 3, 3), dtype=np.uint8)\n"
        "E[1, 1, 1] = 1\n"
        "report = InconsistencyReport(code, E, E == 2, np.zeros((3, 3), dtype=bool))\n"
        "try:\n"
        "    heavy_free_subcube(report)\n"
        "except InvariantError:\n"
        "    print('InvariantError')\n"
    )
    src = str(Path(tensorltc.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "InvariantError"
