"""Instrumentation of the plane-tester robustness argument.

Every plane of a word has an opinion: the nearest codeword of the
(m-1)-fold power to its view. Two intersecting planes may disagree at a
point; the binary tensor E marks all such points. Points where every
containing plane agrees but differs from the word itself are "almost
fixed". From E one reads off heavy planes (many disagreement marks),
checks that every mark lies in a heavy plane, removes the heavy planes to
leave a disagreement-free subcube, and re-extends subcube codewords by
per-line erasure decoding. Chaining these steps yields a certified upper
bound on the word's distance to the code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvariantError, ShapeError
from .linear_code import AMBIGUOUS, ErasureFailure
from .tensor_code import (
    PlaneIndex,
    TensorCode,
    TensorWord,
    complete_subcube,
    plane_index,
    point_index,
)


@dataclass(frozen=True, eq=False)
class OpinionTable:
    """Nearest-subcode-codeword opinions for all m*n planes of a word.

    Plane (b + 1, i) sits at index [b, i]: ``nearest`` holds its flattened
    opinion in the field's narrow dtype, shape (m, n, n^(m-1)), and
    ``distances`` its distance from the plane's view, shape (m, n).
    """

    code: TensorCode
    nearest: np.ndarray
    distances: np.ndarray

    def mean_local_distance(self) -> Fraction:
        """Average relative local distance over the uniform plane choice.

        Coincides exactly with the plane tester's expected relative local
        distance (all-axes mode).
        """
        view_size = self.code.n ** (self.code.m - 1)
        return Fraction(int(self.distances.sum()), self.distances.size * view_size)


def compute_opinions(word: TensorWord, code: TensorCode) -> OpinionTable:
    """Nearest (m-1)-fold-power codeword for every plane view (tie-broken
    toward the lexicographically smallest message)."""
    nearest, distances = code.plane_opinions(word)
    return OpinionTable(code=code, nearest=nearest, distances=distances)


@dataclass(frozen=True, eq=False)
class InconsistencyReport:
    """Disagreement structure extracted from a word's plane opinions.

    ``disagreement`` is the binary tensor with a 1 wherever two
    intersecting planes' opinions differ; ``fix_mask`` marks the
    almost-fixed points (no disagreement, but some containing plane wants
    the word's value changed). Heavy planes carry at least (d^(m-1))/2
    marks: ``heavy[b, i]`` flags plane (b + 1, i). The heavy-plane tuple
    and the marks outside every heavy plane are derived on first access.
    """

    code: TensorCode
    disagreement: np.ndarray  # uint8, shape (n,)*m
    fix_mask: np.ndarray  # bool, shape (n,)*m
    heavy: np.ndarray  # bool, shape (m, n)

    @functools.cached_property
    def heavy_planes(self) -> tuple[PlaneIndex, ...]:
        return tuple(PlaneIndex(b + 1, i) for b, i in np.argwhere(self.heavy).tolist())

    @functools.cached_property
    def uncovered(self) -> np.ndarray:
        """bool, shape (n,)*m: the marks that lie in no heavy plane."""
        code = self.code
        uncovered = self.disagreement.astype(bool)  # a copy, cleared on every heavy plane
        uncovered.reshape(-1)[plane_index(code.n, code.m)[self.heavy.reshape(-1)]] = False
        return uncovered

    @functools.cached_property
    def num_to_fix(self) -> int:
        return int(np.count_nonzero(self.fix_mask))

    @functools.cached_property
    def support_size(self) -> int:
        return int(self.disagreement.sum())

    def relative_weight(self) -> Fraction:
        return Fraction(self.support_size, self.disagreement.size)


def inconsistency(word: TensorWord, opinions: OpinionTable) -> InconsistencyReport:
    """Build the disagreement tensor, almost-fixed set, and heavy planes."""
    code = opinions.code
    m, n = code.m, code.n
    d = code.base.minimum_distance()
    gather, (b, c), pair_cell = point_index(n, m)
    # at[b, x] is the opinion of plane (b + 1, x_b) at point x.
    at = opinions.nearest.reshape(-1)[gather]

    # Planes on the same axis never intersect. Where two planes meet, their
    # opinions restrict to codewords of the (m-2)-fold power, and distinct
    # ones differ in at least d^(m-2) positions: count each pair's
    # disagreements per (x_b, x_c) cell.
    diff = at[b] != at[c]
    cells = np.bincount(pair_cell[diff], minlength=len(b) * n * n)
    too_few = (cells > 0) & (cells < d ** (m - 2))
    if too_few.any():
        q = int(np.argmax(too_few)) // (n * n)
        raise InvariantError(
            f"planes on axes {b[q] + 1} and {c[q] + 1} disagree in fewer than d^(m-2) points"
        )
    disagree = diff.any(axis=0)
    # Points some containing plane wants changed.
    wants_change = (at != word.entries.reshape(-1)).any(axis=0)

    marks = disagree[plane_index(n, m)].reshape(m, n, -1).sum(axis=-1)
    return InconsistencyReport(
        code=code,
        disagreement=disagree.view(np.uint8).reshape((n,) * m),
        fix_mask=(wants_change & ~disagree).reshape((n,) * m),
        heavy=2 * marks >= d ** (m - 1),
    )


@dataclass(frozen=True)
class FloorCheck:
    """The disagreement floor under the mean local distance.

    ``lhs`` is the tester's expected relative local distance; ``rhs`` is
    wt(E)/m plus the almost-fixed fraction. The floor holds for every word.
    """

    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs


def robustness_floor_check(opinions: OpinionTable, report: InconsistencyReport) -> FloorCheck:
    m = opinions.code.m
    size = report.disagreement.size
    rhs = Fraction(report.support_size + m * report.num_to_fix, m * size)
    return FloorCheck(lhs=opinions.mean_local_distance(), rhs=rhs)


def verify_heavy_cover(report: InconsistencyReport) -> tuple[bool, list[tuple[int, ...]]]:
    """Check that every disagreement mark lies in some heavy plane.

    Returns (ok, counterexample points). A counterexample would falsify
    the implementation, not the underlying claim.
    """
    if not report.uncovered.any():
        return True, []
    return False, list(map(tuple, np.argwhere(report.uncovered).tolist()))


@dataclass(frozen=True)
class SubcubeSets:
    """Per-axis surviving coordinates after removing heavy planes."""

    side: int
    sets: tuple[tuple[int, ...], ...]

    @property
    def removed(self) -> int:
        return sum(self.side - len(s) for s in self.sets)


def heavy_free_subcube(report: InconsistencyReport) -> SubcubeSets:
    """Drop each heavy plane's coordinate from its axis.

    The surviving subcube carries no disagreement marks, and the number of
    removed planes is at most 2|E|m / d^(m-1); InvariantError is raised if
    either fails.
    """
    code = report.code
    m, n = code.m, code.n
    d = code.base.minimum_distance()
    sets = tuple(
        tuple(i for i, keep in enumerate(row) if keep) for row in (~report.heavy).tolist()
    )
    subcube = SubcubeSets(side=n, sets=sets)
    # A point lies in S_1 x ... x S_m exactly when no heavy plane holds it.
    if report.uncovered.any():
        raise InvariantError("the subcube left by the heavy planes carries disagreement marks")
    if subcube.removed * d ** (m - 1) > 2 * report.support_size * m:
        raise InvariantError(f"{subcube.removed} removed planes exceed 2|E|m / d^(m-1)")
    return subcube


def extend_from_subcube(
    word: TensorWord, axis_sets: tuple[tuple[int, ...], ...], code: TensorCode
) -> TensorWord | ErasureFailure:
    """Complete a word known only on a product subcube to a full codeword.

    Entries outside S_1 x ... x S_m are ignored. Proceeds axis by axis
    (:func:`complete_subcube`): every line parallel to the axis, with the
    other coordinates inside the already-completed region, is
    erasure-decoded from its surviving coordinates. Unique whenever every
    axis keeps more than n - d coordinates; otherwise AMBIGUOUS (or
    INCONSISTENT when the known part fits no codeword). The final word is
    verified for membership.
    """
    code.check_shape(word)
    if len(axis_sets) != code.m:
        raise ShapeError(f"expected {code.m} coordinate sets, got {len(axis_sets)}")
    if any(len(s) == 0 for s in axis_sets):
        return AMBIGUOUS
    values = word.entries.copy()
    failure = complete_subcube(code.base, values, axis_sets)
    if failure is not None:
        return failure[1]
    result = TensorWord._from_valid(code.field, values)
    if not code.contains(result):
        return ErasureFailure.INCONSISTENT
    return result


SMALL_DISAGREEMENT = "small-disagreement"
LARGE_DISAGREEMENT = "large-disagreement"


@dataclass(frozen=True)
class CertifiedBound:
    value: Fraction
    branch: str


def certified_distance_bound(report: InconsistencyReport) -> CertifiedBound:
    """Upper bound on the word's relative distance to the code.

    When the disagreement weight is below d^m / (2m n^m), removing heavy
    planes and re-extending bounds the distance by
    2 m |E| / (n d^(m-1)) plus the almost-fixed fraction; otherwise the
    trivial bound 1 is returned and the branch is flagged.
    """
    code = report.code
    m, n = code.m, code.n
    d = code.base.minimum_distance()
    if 2 * m * report.support_size < d**m:
        value = Fraction(2 * m * report.support_size, n * d ** (m - 1)) + Fraction(
            report.num_to_fix, n**m
        )
        return CertifiedBound(value=value, branch=SMALL_DISAGREEMENT)
    return CertifiedBound(value=Fraction(1), branch=LARGE_DISAGREEMENT)


@dataclass(frozen=True)
class WordAnalysis:
    """Everything the analyzer derives from one word."""

    opinions: OpinionTable
    report: InconsistencyReport
    floor: FloorCheck
    heavy_cover_ok: bool
    heavy_cover_witnesses: list[tuple[int, ...]]
    subcube: SubcubeSets
    certified: CertifiedBound

    def to_json_dict(self) -> dict:
        report = self.report
        return {
            "wt_E": str(report.relative_weight()),
            "num_to_fix": report.num_to_fix,
            "heavy_planes": [[pl.axis, pl.coord] for pl in report.heavy_planes],
            "removed_planes": self.subcube.removed,
            "bound_lhs": str(self.floor.lhs),
            "bound_rhs": str(self.floor.rhs),
            "branch": self.certified.branch,
            "certified_distance_bound": str(self.certified.value),
        }


def analyze_word(word: TensorWord, code: TensorCode) -> WordAnalysis:
    """Run the full opinion / disagreement / heavy-plane pipeline."""
    opinions = compute_opinions(word, code)
    report = inconsistency(word, opinions)
    floor = robustness_floor_check(opinions, report)
    cover_ok, witnesses = verify_heavy_cover(report)
    subcube = heavy_free_subcube(report)
    certified = certified_distance_bound(report)
    return WordAnalysis(
        opinions=opinions,
        report=report,
        floor=floor,
        heavy_cover_ok=cover_ok,
        heavy_cover_witnesses=witnesses,
        subcube=subcube,
        certified=certified,
    )
