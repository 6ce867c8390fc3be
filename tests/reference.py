"""Brute-force references for the whole-tensor paths of tensorltc.

Each function is the loop form that the library's array form replaced:
line checks one axis at a time, the recursive encoder, the composed
tester walked path by path or draw by draw and its pair weights
counted by a memo over the remaining axes, the plane opinions gathered
one plane at a time into a dict, each with its own oracle call for the
tester, the pairwise plane loop behind the disagreement tensor, the
heavy-plane cover checked point by point and the subcube built from
sets, the nearest-codeword oracle that re-encodes the codebook block by
block and compares unpacked symbols, and the line decoders run one line
at a time: bounded-distance decoding through a bytes-keyed coset dict,
erasure decoding through one linear solve per line, and the square
decoder and subcube extension that loop over lines. ``solve`` and
``nullspace`` are the GF(p) solvers the per-line erasure decoder uses;
``rref`` clears one row at a time. The noise helpers ``erase_planes`` and
``planted_word`` address each plane through an indexer tuple, and
``exact_errors_channel`` changes one position at a time. ``experiment_rows``
is the per-trial experiment loop: each trial builds its own word and
scores it with the library's one-word calls.
The differential tests require the two forms to agree exactly.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from tensorltc import linear_code
from tensorltc.analysis import LARGE_DISAGREEMENT, SMALL_DISAGREEMENT
from tensorltc.decoding import DecoderConfig
from tensorltc.decoding import decode_square as library_decode_square
from tensorltc.experiment import ResultRow, resolve_base_code, trial_seed, word_relative_distance
from tensorltc.errors import InvariantError, ShapeError
from tensorltc.field import PrimeField, rref
from tensorltc.linear_code import AMBIGUOUS, INCONSISTENT, ErasureFailure, PartialWord
from tensorltc.local_testing import (
    composed_robustness_bound,
    rejection_probability_sampled,
    robustness_lower_bound,
)
from tensorltc.local_testing import rejection_probability_exact as library_rejection
from tensorltc.local_testing import robustness_exact as library_robustness
from tensorltc.tensor_code import EncodeCounter, PlaneIndex, TensorCode, TensorWord


def zero_word(code: TensorCode) -> TensorWord:
    return TensorWord(code.field, np.zeros((code.n,) * code.m, dtype=np.int64))


def all_planes(m: int, n: int, axes: tuple[int, ...] | None = None) -> list[PlaneIndex]:
    """Planes axis by axis, coordinates ascending: the library's [b, i] order."""
    axes = tuple(range(1, m + 1)) if axes is None else axes
    return [PlaneIndex(b, i) for b in axes for i in range(n)]


def tester_axis_count(level: int, axis_mode: str) -> int:
    return level if axis_mode == "all" else min(3, level)


def is_square_member(base, mat: np.ndarray) -> bool:
    """Membership of an n x n array in the 2-fold power of ``base``."""
    p = base.p
    return not ((mat @ base.H.T) % p).any() and not ((base.H @ mat) % p).any()


def contains(code: TensorCode, word: TensorWord) -> bool:
    """Every axis-parallel line satisfies the base checks, one axis at a time."""
    H = code.base.H
    for axis in range(code.m):
        if (np.tensordot(H, word.entries, axes=([1], [axis])) % code.field.p).any():
            return False
    return True


def violated_checks(code: TensorCode, word: TensorWord) -> int:
    """Number of nonzero line-syndrome symbols over all axes."""
    H = code.base.H
    return sum(
        int(np.count_nonzero(np.tensordot(H, word.entries, axes=([1], [axis])) % code.field.p))
        for axis in range(code.m)
    )


def encode(code: TensorCode, message, counter: EncodeCounter | None = None) -> TensorWord:
    """Rows-then-columns recursion: the message as a k x k^(m-1) array has
    each row encoded by the (m-1)-fold encoder, then every column of the
    resulting k x n^(m-1) array by the base code."""
    base = code.base

    def level_encode(x: np.ndarray, level: int) -> np.ndarray:
        if level == 1:
            if counter is not None:
                counter.base_calls += 1
            return base.encode(x)
        rows = x.reshape(base.k, base.k ** (level - 1))
        encoded_rows = np.stack([level_encode(row, level - 1) for row in rows])
        if counter is not None:
            counter.base_calls += base.n ** (level - 1)
        return (encoded_rows.T @ base.G).T.reshape(-1) % base.p

    flat = level_encode(np.asarray(message, dtype=np.int64).reshape(-1), code.m)
    return TensorWord(code.field, flat.reshape((code.n,) * code.m))


def rejection_probability_exact(
    word: TensorWord, code: TensorCode, axis_mode: str = "all"
) -> Fraction:
    """Walk every tester path down to its two-axis view."""

    def count(entries: np.ndarray, level: int) -> tuple[int, int]:
        if level == 2:
            return (0 if is_square_member(code.base, entries) else 1), 1
        rejected = total = 0
        for rel in range(tester_axis_count(level, axis_mode)):
            for coord in range(code.n):
                r, t = count(np.take(entries, coord, axis=rel), level - 1)
                rejected += r
                total += t
        return rejected, total

    rejected, total = count(word.entries, code.m)
    return Fraction(rejected, total)


@functools.cache
def pair_weights(m: int, axis_mode: str = "all") -> tuple[int, ...]:
    """Count the axis-choice sequences that leave each pair free, memoised
    on the tuple of remaining axes: 2^m states."""
    memo: dict[tuple[int, ...], Counter] = {}

    def counts(remaining: tuple[int, ...]) -> Counter:
        if len(remaining) == 2:
            return Counter({remaining: 1})
        if remaining not in memo:
            total: Counter = Counter()
            for rel in range(tester_axis_count(len(remaining), axis_mode)):
                total.update(counts(remaining[:rel] + remaining[rel + 1 :]))
            memo[remaining] = total
        return memo[remaining]

    free = counts(tuple(range(m)))
    return tuple(free[pair] for pair in itertools.combinations(range(m), 2))


def sampled_rejections(
    word: TensorWord, code: TensorCode, trials: int, seed: int, axis_mode: str = "all"
) -> int:
    """Replay the seeded draws one at a time and count rejecting views."""
    counts = [tester_axis_count(level, axis_mode) for level in range(code.m, 2, -1)]
    rng = np.random.default_rng(seed)
    axis_draws = np.column_stack([rng.integers(0, c, size=trials) for c in counts])
    coord_draws = rng.integers(0, code.n, size=(trials, len(counts)))
    rejections = 0
    for t in range(trials):
        entries = word.entries
        for s in range(len(counts)):
            entries = np.take(entries, coord_draws[t, s], axis=axis_draws[t, s])
        rejections += not is_square_member(code.base, entries)
    return rejections


# -- plane opinions and the disagreement analysis ------------------------------


def plane_views(word: TensorWord, planes) -> np.ndarray:
    return np.stack(
        [np.take(word.entries, pl.coord, axis=pl.axis - 1).reshape(-1) for pl in planes]
    )


@dataclass(frozen=True)
class Opinion:
    plane: PlaneIndex
    opinion: np.ndarray  # (m-1)-axis array, nearest subcode codeword
    distance: int  # Hamming distance from the plane's view


def compute_opinions(word: TensorWord, code: TensorCode) -> dict[PlaneIndex, Opinion]:
    """One view per plane, one oracle call, one dict entry per plane."""
    planes = all_planes(code.m, code.n)
    nearest, dists, _ = code.sub().flattened().nearest_batch(plane_views(word, planes))
    shape = (code.n,) * (code.m - 1)
    return {
        pl: Opinion(pl, nearest[idx].reshape(shape), int(dists[idx]))
        for idx, pl in enumerate(planes)
    }


def table_opinions(table) -> dict[PlaneIndex, Opinion]:
    """The per-plane records of an ``OpinionTable``, read plane by plane
    from index [b, i] of its arrays."""
    shape = (table.code.n,) * (table.code.m - 1)
    return {
        pl: Opinion(
            pl,
            table.nearest[pl.axis - 1, pl.coord].reshape(shape),
            int(table.distances[pl.axis - 1, pl.coord]),
        )
        for pl in all_planes(table.code.m, table.code.n)
    }


def robustness_exact(word: TensorWord, code: TensorCode, axis_mode: str = "all") -> Fraction:
    """The tester's own oracle call over the views of its axes."""
    axes = range(1, tester_axis_count(code.m, axis_mode) + 1)
    sub_flat = code.sub().flattened()
    views = plane_views(word, [PlaneIndex(b, i) for b in axes for i in range(code.n)])
    _, dists, _ = sub_flat.nearest_batch(views)
    return Fraction(int(dists.sum()), views.shape[0] * sub_flat.n)


def verify_heavy_cover(code: TensorCode, E: np.ndarray, heavy_planes) -> tuple[bool, list]:
    """Look up every mark's m planes in the set of heavy planes."""
    heavy = set(heavy_planes)
    witnesses = []
    for pt in np.argwhere(E):
        point = tuple(int(c) for c in pt)
        if not any(PlaneIndex(b, point[b - 1]) in heavy for b in range(1, code.m + 1)):
            witnesses.append(point)
    return (not witnesses), witnesses


def heavy_free_subcube(
    code: TensorCode, E: np.ndarray, heavy_planes
) -> tuple[tuple[int, ...], ...]:
    """Per-axis sets of the coordinates of no heavy plane, with both checks."""
    m, n = code.m, code.n
    d = code.base.minimum_distance()
    heavy_by_axis: dict[int, set[int]] = {b: set() for b in range(1, m + 1)}
    for pl in heavy_planes:
        heavy_by_axis[pl.axis].add(pl.coord)
    sets = tuple(
        tuple(i for i in range(n) if i not in heavy_by_axis[b]) for b in range(1, m + 1)
    )
    if all(len(s) > 0 for s in sets) and E[np.ix_(*sets)].any():
        raise InvariantError("the subcube left by the heavy planes carries disagreement marks")
    removed = sum(n - len(s) for s in sets)
    if removed * d ** (m - 1) > 2 * int(E.sum()) * m:
        raise InvariantError(f"{removed} removed planes exceed 2|E|m / d^(m-1)")
    return sets


def analysis_json(word: TensorWord, code: TensorCode) -> dict:
    """The analyzer's JSON report, assembled from the loop forms."""
    m, n = code.m, code.n
    d = code.base.minimum_distance()
    opinions = compute_opinions(word, code)
    E, to_fix, heavy_planes = inconsistency(word, code, opinions)
    support = int(E.sum())
    sets = heavy_free_subcube(code, E, heavy_planes)
    lhs = Fraction(sum(op.distance for op in opinions.values()), len(opinions) * n ** (m - 1))
    rhs = Fraction(support, m * E.size) + Fraction(len(to_fix), E.size)
    if 2 * m * support < d**m:
        bound = Fraction(2 * m * support, n * d ** (m - 1)) + Fraction(len(to_fix), n**m)
        branch = SMALL_DISAGREEMENT
    else:
        bound, branch = Fraction(1), LARGE_DISAGREEMENT
    return {
        "wt_E": str(Fraction(support, E.size)),
        "num_to_fix": len(to_fix),
        "heavy_planes": [[pl.axis, pl.coord] for pl in heavy_planes],
        "removed_planes": sum(n - len(s) for s in sets),
        "bound_lhs": str(lhs),
        "bound_rhs": str(rhs),
        "branch": branch,
        "certified_distance_bound": str(bound),
    }


def _restrict_opinion_to_axis(
    opinion: np.ndarray, own_axis: int, other_axis: int, other_coord: int
) -> np.ndarray:
    # The opinion of plane (own_axis, .) lives on the axes != own_axis in
    # ascending order; fixing original axis ``other_axis`` at a coordinate
    # lands on position other_axis-1 or other_axis-2 of that array.
    pos = other_axis - 1 if other_axis < own_axis else other_axis - 2
    return np.take(opinion, other_coord, axis=pos)


def inconsistency(
    word: TensorWord, code: TensorCode, opinions: dict[PlaneIndex, Opinion]
) -> tuple:
    """(E, to_fix, heavy_planes) from the pairwise plane loop."""
    m, n = code.m, code.n
    d = code.base.minimum_distance()
    E = np.zeros((n,) * m, dtype=np.uint8)
    for b1, b2 in itertools.combinations(range(1, m + 1), 2):
        for i1 in range(n):
            op1 = opinions[PlaneIndex(b1, i1)].opinion
            for i2 in range(n):
                op2 = opinions[PlaneIndex(b2, i2)].opinion
                diff = _restrict_opinion_to_axis(op1, b1, b2, i2) != _restrict_opinion_to_axis(
                    op2, b2, b1, i1
                )
                if diff.any():
                    assert int(diff.sum()) >= d ** (m - 2)
                    indexer: list = [slice(None)] * m
                    indexer[b1 - 1] = i1
                    indexer[b2 - 1] = i2
                    E[tuple(indexer)][diff] = 1

    wants_change = np.zeros((n,) * m, dtype=bool)
    for pl, op in opinions.items():
        view = np.take(word.entries, pl.coord, axis=pl.axis - 1)
        indexer = [slice(None)] * m
        indexer[pl.axis - 1] = pl.coord
        wants_change[tuple(indexer)] |= op.opinion != view
    to_fix = tuple(tuple(int(c) for c in pt) for pt in np.argwhere(wants_change & (E == 0)))

    heavy_planes = tuple(
        sorted(
            PlaneIndex(b, i)
            for b in range(1, m + 1)
            for i in range(n)
            if 2 * int(np.take(E, i, axis=b - 1).sum()) >= d ** (m - 1)
        )
    )
    return E, to_fix, heavy_planes


# -- nearest-codeword oracle ---------------------------------------------------

BLOCK = 1 << 14


def messages(code, indices: np.ndarray) -> np.ndarray:
    """The messages with the given lexicographic indices."""
    msgs = np.empty((indices.size, code.k), dtype=np.int64)
    for j in range(code.k):
        msgs[:, j] = (indices // code.p ** (code.k - 1 - j)) % code.p
    return msgs


def codewords(code) -> np.ndarray:
    return code.encode(messages(code, np.arange(code.num_codewords())))


def minimum_distance(code) -> int:
    return int(np.count_nonzero(codewords(code)[1:], axis=1).min())


def nearest_batch(code, words) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-encode each block of messages, compare symbol by symbol and keep
    the first strict minimum."""
    words = np.atleast_2d(np.asarray(words, dtype=np.int64))
    t, total = words.shape[0], code.num_codewords()
    best_d = np.full(t, code.n + 1, dtype=np.int64)
    best_i = np.zeros(t, dtype=np.int64)
    for start in range(0, total, BLOCK):
        block = code.encode(messages(code, np.arange(start, min(start + BLOCK, total))))
        dists = (words[:, None, :] != block[None, :, :]).sum(axis=2, dtype=np.int64)
        d = dists.min(axis=1)
        i = dists.argmin(axis=1)
        better = d < best_d
        best_d[better] = d[better]
        best_i[better] = start + i[better]
    return code.encode(messages(code, best_i)), best_d, best_i


# -- line decoders ------------------------------------------------------------


def rref(field: PrimeField, matrix) -> tuple[np.ndarray, list[int], int]:
    """Row reduction that scans for each pivot and clears each row in turn."""
    A = field.array(matrix)
    rows, cols = A.shape
    p = field.p
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if A[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            A[[r, pivot_row]] = A[[pivot_row, r]]
        A[r] = (A[r] * field.inv(int(A[r, c]))) % p
        for i in range(rows):
            if i != r and A[i, c] != 0:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots, r


def nullspace(field: PrimeField, matrix) -> np.ndarray:
    """Basis (as rows) of {x : matrix @ x = 0} over GF(p)."""
    A, pivots, rank = rref(field, matrix)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for row, f in enumerate(free):
        basis[row, f] = 1
        for i, pc in enumerate(pivots):
            basis[row, pc] = -int(A[i, f]) % field.p
    return basis


def solve(field: PrimeField, A, b) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve ``A @ x = b`` over GF(p).

    Returns ``(x, nullspace_basis)`` for a consistent system, where the
    basis rows span the solution set's homogeneous part (empty array when
    the solution is unique), or ``None`` when no solution exists.
    """
    A = field.array(A)
    b = field.array(b)
    if A.ndim != 2 or b.ndim != 1:
        raise ShapeError("A must be 2-d and b 1-d")
    if A.shape[0] != b.shape[0]:
        raise ShapeError(f"A has {A.shape[0]} rows but b has length {b.shape[0]}")
    rows, cols = A.shape
    aug = np.concatenate([A, b[:, None]], axis=1)
    R, pivots, rank = rref(field, aug)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = R[i, cols]
    return x, nullspace(field, A)


def erasure_decode(code, partial: PartialWord) -> np.ndarray | ErasureFailure:
    """Solve x @ G = w on the known coordinates of one line."""
    known = partial.known
    result = solve(code.field, code.G[:, known].T, partial.values[known] % code.p)
    if result is None:
        return INCONSISTENT
    x, homogeneous = result
    if homogeneous.shape[0] > 0:
        return AMBIGUOUS
    return code.encode(x)


_COSET_DICTS: dict = {}


def coset_dict(code, radius: int) -> dict[bytes, np.ndarray]:
    """Syndrome bytes -> the first pattern of weight <= radius with that
    syndrome, enumerated by weight, then positions, then values."""
    key = (code, radius)
    if key not in _COSET_DICTS:
        table: dict[bytes, np.ndarray] = {}
        p, n = code.p, code.n
        for weight in range(radius + 1):
            for positions in itertools.combinations(range(n), weight):
                for values in itertools.product(range(1, p), repeat=weight):
                    e = np.zeros(n, dtype=np.int64)
                    e[list(positions)] = values
                    table.setdefault(code.syndrome(e).tobytes(), e)
        _COSET_DICTS[key] = table
    return _COSET_DICTS[key]


def bounded_distance_decode(code, w, radius: int) -> np.ndarray | None:
    """One line: a dict lookup of its syndrome when the syndrome space and
    pattern count are under the caps, else the nearest codeword."""
    w = np.asarray(w, dtype=np.int64)
    patterns = sum(math.comb(code.n, t) * (code.p - 1) ** t for t in range(radius + 1))
    if code.p ** (code.n - code.k) <= linear_code.SYNDROME_CAP and patterns <= linear_code.PATTERN_CAP:
        e = coset_dict(code, radius).get(code.syndrome(w).tobytes())
        return None if e is None else (w - e) % code.p
    nearest, dists, _ = nearest_batch(code, w[None, :])
    return nearest[0] if dists[0] <= radius else None


@dataclass
class DecodeTrace:
    """The square decoder's trace record, serialised like the library's."""

    budget: int
    inconsistent: np.ndarray
    row_failed: np.ndarray
    col_failed: np.ndarray
    bad_rows: int
    bad_cols: int
    removed_rows: tuple[int, ...]
    removed_cols: tuple[int, ...]
    status: str = "ok"
    result_distance: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "budget": self.budget,
            "inconsistent": self.inconsistent.astype(int).tolist(),
            "row_failed": self.row_failed.tolist(),
            "col_failed": self.col_failed.tolist(),
            "bad_rows": self.bad_rows,
            "bad_cols": self.bad_cols,
            "removed_rows": list(self.removed_rows),
            "removed_cols": list(self.removed_cols),
            "status": self.status,
            "result_distance": self.result_distance,
        }


def decode_square(word: TensorWord, cfg) -> tuple[TensorWord | None, DecodeTrace]:
    """The row/column decoder with one decoder call per line."""
    base, n = cfg.base, cfg.base.n
    entries = word.entries
    row_decoded = np.zeros((n, n), dtype=np.int64)
    col_decoded = np.zeros((n, n), dtype=np.int64)
    row_failed = np.zeros(n, dtype=bool)
    col_failed = np.zeros(n, dtype=bool)
    for i in range(n):
        decoded = bounded_distance_decode(base, entries[i], cfg.radius)
        if decoded is None:
            row_failed[i] = True
        else:
            row_decoded[i] = decoded
    for j in range(n):
        decoded = bounded_distance_decode(base, entries[:, j], cfg.radius)
        if decoded is None:
            col_failed[j] = True
        else:
            col_decoded[:, j] = decoded

    marks = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            if row_failed[i] or col_failed[j] or row_decoded[i, j] != col_decoded[i, j]:
                marks[i, j] = 1
    row_counts = [int(marks[i].sum()) for i in range(n)]
    col_counts = [int(marks[:, j].sum()) for j in range(n)]

    def meets(count: int) -> bool:
        t = cfg.removal_threshold
        return count > 0 and count * t.denominator >= t.numerator * n

    removed_rows = [i for i in range(n) if meets(row_counts[i])]
    removed_cols = [j for j in range(n) if meets(col_counts[j])]
    trace = DecodeTrace(
        budget=cfg.error_budget(),
        inconsistent=marks,
        row_failed=row_failed,
        col_failed=col_failed,
        bad_rows=sum(c >= cfg.radius for c in row_counts),
        bad_cols=sum(c >= cfg.radius for c in col_counts),
        removed_rows=tuple(removed_rows),
        removed_cols=tuple(removed_cols),
    )
    surviving_rows = np.setdiff1d(np.arange(n), removed_rows)
    surviving_cols = np.setdiff1d(np.arange(n), removed_cols)
    if surviving_rows.size == 0 or surviving_cols.size == 0:
        trace.status = "all-lines-removed"
        return None, trace

    col_known = np.zeros(n, dtype=bool)
    col_known[surviving_cols] = True
    output = np.zeros((n, n), dtype=np.int64)
    for i in surviving_rows:
        if col_known.all():
            output[i] = row_decoded[i]
            continue
        completed = erasure_decode(base, PartialWord(row_decoded[i], col_known))
        if isinstance(completed, ErasureFailure):
            trace.status = f"row-erasure-{completed.value}"
            return None, trace
        output[i] = completed
    row_known = np.zeros(n, dtype=bool)
    row_known[surviving_rows] = True
    for j in range(n):
        if row_known.all():
            break
        completed = erasure_decode(base, PartialWord(output[:, j], row_known))
        if isinstance(completed, ErasureFailure):
            trace.status = f"column-erasure-{completed.value}"
            return None, trace
        output[:, j] = completed

    if ((output @ base.H.T) % base.p).any() or ((base.H @ output) % base.p).any():
        trace.status = "not-a-codeword"
        return None, trace
    dist = int(np.count_nonzero(output != entries))
    trace.result_distance = dist
    if dist > (minimum_distance(base) ** 2 - 1) // 2:
        trace.status = "beyond-unique-radius"
        return None, trace
    return TensorWord(base.field, output), trace


def extend_from_subcube(word: TensorWord, axis_sets, code: TensorCode):
    """Erasure-decode the lines of each axis one at a time, in product order."""
    if len(axis_sets) != code.m:
        raise ShapeError("one coordinate set per axis")
    n = code.n
    if any(len(s) == 0 for s in axis_sets):
        return AMBIGUOUS
    values = word.entries.copy()
    for b in range(1, code.m + 1):
        known = np.zeros(n, dtype=bool)
        known[list(axis_sets[b - 1])] = True
        if known.all():
            continue
        other_ranges = [range(n)] * (b - 1) + [sorted(axis_sets[a - 1]) for a in range(b + 1, code.m + 1)]
        for other in itertools.product(*other_ranges):
            indexer: list = list(other)
            indexer.insert(b - 1, slice(None))
            line = values[tuple(indexer)]
            completed = erasure_decode(code.base, PartialWord(line % code.field.p, known))
            if isinstance(completed, ErasureFailure):
                return completed
            values[tuple(indexer)] = completed
    result = TensorWord(code.field, values % code.field.p)
    if not contains(code, result):
        return INCONSISTENT
    return result


def erase_planes(word: TensorWord, planes) -> tuple[TensorWord, tuple[tuple[int, ...], ...]]:
    """Zero each plane through an indexer with one integer axis."""
    erased_by_axis: dict[int, set[int]] = {b: set() for b in range(1, word.m + 1)}
    for pl in planes:
        if not 1 <= pl.axis <= word.m or not 0 <= pl.coord < word.n:
            raise ShapeError(f"plane {pl} outside a {word.m}-axis cube of side {word.n}")
        erased_by_axis[pl.axis].add(pl.coord)
    entries = word.entries.copy()
    for pl in planes:
        indexer: list = [slice(None)] * word.m
        indexer[pl.axis - 1] = pl.coord
        entries[tuple(indexer)] = 0
    sets = tuple(
        tuple(i for i in range(word.n) if i not in erased_by_axis[b])
        for b in range(1, word.m + 1)
    )
    return TensorWord(word.field, entries), sets


def planted_word(code: TensorCode, seed: int) -> TensorWord:
    """One plane of a random codeword overwritten through an indexer."""
    rng = np.random.default_rng(seed)
    p = code.field.p
    first = rng.integers(0, p, size=code.dimension)
    second = first.copy()
    while np.array_equal(second, first):
        second = rng.integers(0, p, size=code.dimension)
    plane = PlaneIndex(int(rng.integers(1, code.m + 1)), int(rng.integers(0, code.n)))
    entries = code.encode(first).entries.copy()
    donor = code.encode(second).entries
    indexer: list = [slice(None)] * code.m
    indexer[plane.axis - 1] = plane.coord
    entries[tuple(indexer)] = donor[tuple(indexer)]
    return TensorWord(code.field, entries)


def random_word(code: TensorCode, seed: int) -> TensorWord:
    rng = np.random.default_rng(seed)
    return TensorWord(code.field, rng.integers(0, code.field.p, size=(code.n,) * code.m))


def exact_errors_channel(word: TensorWord, t: int, seed: int) -> TensorWord:
    """Add each drawn offset at its drawn position, one position at a time."""
    if not 0 <= t <= word.size:
        raise ShapeError(f"error count {t} outside [0, {word.size}]")
    rng = np.random.default_rng(seed)
    flat = word.flat().copy()
    positions = rng.choice(word.size, size=t, replace=False)
    offsets = rng.integers(1, word.field.p, size=t)
    for position, offset in zip(positions, offsets):
        flat[position] = (flat[position] + offset) % word.field.p
    return TensorWord(word.field, flat.reshape(word.entries.shape))


def codeword_plus_errors(code: TensorCode, t: int, seed: int) -> tuple[TensorWord, TensorWord]:
    rng = np.random.default_rng(seed)
    clean = encode(code, rng.integers(0, code.field.p, size=code.dimension))
    return clean, exact_errors_channel(clean, t, seed + 1)


def experiment_rows(spec) -> list[ResultRow]:
    """The experiment one trial at a time: each trial derives its seed,
    builds its word alone, and the one-word library calls score it, the
    tester before the distance."""
    base = resolve_base_code(spec.base)
    code = TensorCode(base, spec.m)
    rows = []
    for trial in range(spec.trials):
        seed = trial_seed(spec.seed, trial)
        if spec.kind == "decode":
            clean, noisy = codeword_plus_errors(code, spec.errors, seed)
            cfg = DecoderConfig.for_code(base)
            decoded, _ = library_decode_square(noisy, cfg)
            success = decoded is not None and decoded == clean
            budget = cfg.error_budget()
            unique_radius = (base.minimum_distance() ** 2 - 1) // 2
            mode = "exact" if spec.errors <= unique_radius else "upper_bound"
            delta = Fraction(spec.errors, code.blocklength)
            statistic, value, bound = "decode_exact", int(success), budget
            satisfied = success or spec.errors > budget
        else:
            if spec.mode == "random":
                word = random_word(code, seed)
            elif spec.mode == "errors":
                word = codeword_plus_errors(code, spec.errors, seed)[1]
            else:
                word = planted_word(code, seed)
            slack = 0
            if spec.kind == "robustness":
                statistic = "robustness_exact"
                value = library_robustness(word, code, spec.axis_mode)
                coefficient = robustness_lower_bound(code)
            elif spec.sample_trials > 0:
                sampled = rejection_probability_sampled(
                    word, code, spec.sample_trials, seed, spec.axis_mode
                )
                statistic, value = "rejection_sampled", sampled.estimate
                slack = Fraction(3 * sampled.standard_error).limit_denominator(10**9)
                coefficient = composed_robustness_bound(code)
            else:
                statistic = "rejection_exact"
                value = library_rejection(word, code, spec.axis_mode)
                coefficient = composed_robustness_bound(code)
            delta, mode = word_relative_distance(code, word)
            bound = coefficient * delta
            satisfied = value + slack >= bound
        rows.append(
            ResultRow(
                trial=trial, kind=spec.kind, mode=spec.mode, m=code.m, n=code.n, seed=seed,
                true_distance=str(delta), distance_mode=mode, statistic=statistic,
                value=str(value), bound=str(bound), bound_satisfied=str(satisfied).lower(),
            )
        )
    return rows
