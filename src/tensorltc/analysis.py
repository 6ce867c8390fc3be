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

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvariantError, ShapeError
from .linear_code import AMBIGUOUS, ErasureFailure, PartialWord
from .tensor_code import LineIndex, PlaneIndex, TensorCode, TensorWord, all_planes


@dataclass(frozen=True)
class PlaneOpinion:
    plane: PlaneIndex
    opinion: np.ndarray  # (m-1)-axis array, nearest subcode codeword
    distance: int  # Hamming distance from the plane's view


@dataclass(frozen=True)
class OpinionTable:
    """Nearest-subcode-codeword opinions for all m*n planes of a word."""

    code: TensorCode
    word: TensorWord
    opinions: dict[PlaneIndex, PlaneOpinion]

    def mean_local_distance(self) -> Fraction:
        """Average relative local distance over the uniform plane choice.

        Coincides exactly with the plane tester's expected relative local
        distance (all-axes mode).
        """
        total = sum(op.distance for op in self.opinions.values())
        view_size = self.code.n ** (self.code.m - 1)
        return Fraction(total, len(self.opinions) * view_size)


def compute_opinions(word: TensorWord, code: TensorCode) -> OpinionTable:
    """Nearest (m-1)-fold-power codeword for every plane view (tie-broken
    toward the lexicographically smallest message)."""
    code.check_shape(word)
    if code.m < 2:
        raise ShapeError("opinions need m >= 2")
    planes = all_planes(code.m, code.n)
    views = np.stack(
        [np.take(word.entries, pl.coord, axis=pl.axis - 1).reshape(-1) for pl in planes]
    )
    sub_flat = code.sub().flattened()
    nearest, dists, _ = sub_flat.nearest_batch(views)
    shape = (code.n,) * (code.m - 1)
    opinions = {
        pl: PlaneOpinion(pl, nearest[idx].reshape(shape), int(dists[idx]))
        for idx, pl in enumerate(planes)
    }
    return OpinionTable(code=code, word=word, opinions=opinions)


@dataclass(frozen=True)
class InconsistencyReport:
    """Disagreement structure extracted from a word's plane opinions.

    ``disagreement`` is the binary tensor with a 1 wherever two
    intersecting planes' opinions differ; ``to_fix`` lists the almost-fixed
    points (no disagreement, but some containing plane wants the word's
    value changed). Heavy planes carry at least (d^(m-1))/2 marks and
    heavy lines at least d marks.
    """

    code: TensorCode
    disagreement: np.ndarray  # uint8, shape (n,)*m
    to_fix: tuple[tuple[int, ...], ...]
    heavy_planes: tuple[PlaneIndex, ...]
    heavy_lines: tuple[LineIndex, ...]

    @property
    def num_to_fix(self) -> int:
        return len(self.to_fix)

    @property
    def support_size(self) -> int:
        return int(self.disagreement.sum())

    def relative_weight(self) -> Fraction:
        return Fraction(self.support_size, self.disagreement.size)

    def plane_mark_count(self, plane: PlaneIndex) -> int:
        return int(np.take(self.disagreement, plane.coord, axis=plane.axis - 1).sum())


def inconsistency(word: TensorWord, opinions: OpinionTable) -> InconsistencyReport:
    """Build the disagreement tensor, almost-fixed set, and heavy sets."""
    code = opinions.code
    m, n = code.m, code.n
    d = code.base.minimum_distance()
    # opinion_at[b] holds, at each point x, the opinion of plane (b + 1, x_b).
    opinion_at = [
        np.stack([opinions.opinions[PlaneIndex(b, i)].opinion for i in range(n)], axis=b - 1)
        for b in range(1, m + 1)
    ]

    # Planes on the same axis never intersect. Where two planes meet, their
    # opinions restrict to codewords of the (m-2)-fold power, and distinct
    # ones differ in at least d^(m-2) positions.
    disagree = np.zeros((n,) * m, dtype=bool)
    for b, c in itertools.combinations(range(m), 2):
        diff = opinion_at[b] != opinion_at[c]
        counts = diff.sum(axis=tuple(a for a in range(m) if a not in (b, c)))
        if ((counts > 0) & (counts < d ** (m - 2))).any():
            raise InvariantError(
                f"planes on axes {b + 1} and {c + 1} disagree in fewer than d^(m-2) points"
            )
        disagree |= diff

    # Points some containing plane wants changed.
    wants_change = np.logical_or.reduce([op != word.entries for op in opinion_at])
    to_fix = tuple(tuple(int(c) for c in pt) for pt in np.argwhere(wants_change & ~disagree))

    E = disagree.astype(np.uint8)
    heavy_planes = []
    for b in range(m):
        marks = E.sum(axis=tuple(a for a in range(m) if a != b), dtype=np.int64)
        heavy = np.flatnonzero(2 * marks >= d ** (m - 1))
        heavy_planes.extend(PlaneIndex(b + 1, int(i)) for i in heavy)

    heavy_lines = []
    for axis in range(1, m + 1):
        line_counts = E.sum(axis=axis - 1, dtype=np.int64)
        for fixed in np.argwhere(line_counts >= d):
            heavy_lines.append(LineIndex(axis, tuple(int(c) for c in fixed)))

    return InconsistencyReport(
        code=code,
        disagreement=E,
        to_fix=to_fix,
        heavy_planes=tuple(heavy_planes),
        heavy_lines=tuple(heavy_lines),
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
    rhs = Fraction(report.support_size, m * size) + Fraction(report.num_to_fix, size)
    return FloorCheck(lhs=opinions.mean_local_distance(), rhs=rhs)


def verify_heavy_cover(report: InconsistencyReport) -> tuple[bool, list[tuple[int, ...]]]:
    """Check that every disagreement mark lies in some heavy plane.

    Returns (ok, counterexample points). A counterexample would falsify
    the implementation, not the underlying claim.
    """
    heavy = set(report.heavy_planes)
    witnesses = []
    for pt in np.argwhere(report.disagreement):
        point = tuple(int(c) for c in pt)
        if not any(PlaneIndex(b, point[b - 1]) in heavy for b in range(1, report.code.m + 1)):
            witnesses.append(point)
    return (not witnesses), witnesses


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
    heavy_by_axis: dict[int, set[int]] = {b: set() for b in range(1, m + 1)}
    for pl in report.heavy_planes:
        heavy_by_axis[pl.axis].add(pl.coord)
    sets = tuple(
        tuple(i for i in range(n) if i not in heavy_by_axis[b]) for b in range(1, m + 1)
    )
    subcube = SubcubeSets(side=n, sets=sets)
    if all(len(s) > 0 for s in sets) and report.disagreement[np.ix_(*sets)].any():
        raise InvariantError("the subcube left by the heavy planes carries disagreement marks")
    if subcube.removed * d ** (m - 1) > 2 * report.support_size * m:
        raise InvariantError(f"{subcube.removed} removed planes exceed 2|E|m / d^(m-1)")
    return subcube


def extend_from_subcube(
    word: TensorWord, sets: SubcubeSets | tuple[tuple[int, ...], ...], code: TensorCode
) -> TensorWord | ErasureFailure:
    """Complete a word known only on a product subcube to a full codeword.

    Entries outside S_1 x ... x S_m are ignored. Proceeds axis by axis:
    every line parallel to the axis, with the other coordinates inside the
    already-completed region, is erasure-decoded from its surviving
    coordinates. Unique whenever every axis keeps more than n - d
    coordinates; otherwise AMBIGUOUS (or INCONSISTENT when the known part
    fits no codeword). The final word is verified for membership.
    """
    code.check_shape(word)
    axis_sets = sets.sets if isinstance(sets, SubcubeSets) else tuple(sets)
    if len(axis_sets) != code.m:
        raise ShapeError(f"expected {code.m} coordinate sets, got {len(axis_sets)}")
    n = code.n
    if any(len(s) == 0 for s in axis_sets):
        return AMBIGUOUS
    values = word.entries.copy()
    for b in range(1, code.m + 1):
        surviving = sorted(axis_sets[b - 1])
        known = np.zeros(n, dtype=bool)
        known[list(surviving)] = True
        if known.all():
            continue
        other_ranges = [range(n)] * (b - 1) + [sorted(axis_sets[a - 1]) for a in range(b + 1, code.m + 1)]
        for other in itertools.product(*other_ranges):
            indexer: list = list(other)
            indexer.insert(b - 1, slice(None))
            line = values[tuple(indexer)]
            completed = code.base.erasure_decode(PartialWord(line % code.field.p, known))
            if isinstance(completed, ErasureFailure):
                return completed
            values[tuple(indexer)] = completed
    result = TensorWord(code.field, values % code.field.p)
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
