"""Brute-force references for the whole-tensor paths of tensorltc.

Each function is the loop form that the library's array form replaced:
line checks one axis at a time, the recursive encoder, the composed
tester walked path by path or draw by draw, the pairwise plane loop
behind the disagreement tensor, and the nearest-codeword oracle that
re-encodes the codebook block by block and compares unpacked symbols.
The differential tests require the two forms to agree exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from tensorltc.tensor_code import EncodeCounter, LineIndex, PlaneIndex, TensorCode, TensorWord


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


def _restrict_opinion_to_axis(
    opinion: np.ndarray, own_axis: int, other_axis: int, other_coord: int
) -> np.ndarray:
    # The opinion of plane (own_axis, .) lives on the axes != own_axis in
    # ascending order; fixing original axis ``other_axis`` at a coordinate
    # lands on position other_axis-1 or other_axis-2 of that array.
    pos = other_axis - 1 if other_axis < own_axis else other_axis - 2
    return np.take(opinion, other_coord, axis=pos)


def inconsistency(word: TensorWord, opinions) -> tuple:
    """(E, to_fix, heavy_planes, heavy_lines) from the pairwise plane loop."""
    code = opinions.code
    m, n = code.m, code.n
    d = code.base.minimum_distance()
    E = np.zeros((n,) * m, dtype=np.uint8)
    for b1, b2 in itertools.combinations(range(1, m + 1), 2):
        for i1 in range(n):
            op1 = opinions.opinions[PlaneIndex(b1, i1)].opinion
            for i2 in range(n):
                op2 = opinions.opinions[PlaneIndex(b2, i2)].opinion
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
    for pl, op in opinions.opinions.items():
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
    heavy_lines = tuple(
        LineIndex(axis, tuple(int(c) for c in fixed))
        for axis in range(1, m + 1)
        for fixed in np.argwhere(E.sum(axis=axis - 1, dtype=np.int64) >= d)
    )
    return E, to_fix, heavy_planes, heavy_lines


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
