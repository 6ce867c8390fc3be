"""Plane testers for tensor-power codes and their robustness.

The plane tester draws a uniformly random axis-aligned plane of an m-axis
word (m >= 3) and inspects its view, a candidate member of the (m-1)-fold
power. Composing testers stage by stage down to a two-axis view yields a
tester that reads only n^2 of the n^m coordinates; its rejection
probability against any word is at least a positive constant times the
word's relative distance from the code.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt

import numpy as np

from .errors import CapacityError, ShapeError
from .tensor_code import TensorCode, TensorWord, line_syndromes

AXIS_MODES = ("all", "first-three")
# Most draws one sampled-tester call replays; the replay holds a few int64
# arrays of draws x m entries next to the word's line syndromes.
DRAW_CAP = 1 << 20


def check_draws(trials: int) -> None:
    """Refuse more sampled-tester draws than DRAW_CAP before any is made."""
    if trials > DRAW_CAP:
        raise CapacityError(f"{trials} tester draws exceed cap {DRAW_CAP}")


def _tester_axes(level: int, axis_mode: str) -> tuple[int, ...]:
    if axis_mode not in AXIS_MODES:
        raise ValueError(f"axis_mode must be one of {AXIS_MODES}, got {axis_mode!r}")
    count = level if axis_mode == "all" else min(3, level)
    return tuple(range(1, count + 1))


def _check_composable(code: TensorCode) -> None:
    if code.m < 3:
        raise ShapeError(f"the plane tester needs m >= 3, got m = {code.m}")


def robustness_lower_bound(code: TensorCode) -> Fraction:
    """Proven robustness of the plane tester: (d/n)^m / (2 m^2)."""
    d = code.base.minimum_distance()
    m, n = code.m, code.n
    return Fraction(d**m, 2 * m * m * n**m)


def composed_robustness_bound(code: TensorCode) -> Fraction:
    """Product of the per-stage robustness bounds for levels m down to 3."""
    _check_composable(code)
    bound = Fraction(1)
    for level in range(3, code.m + 1):
        bound *= robustness_lower_bound(TensorCode(code.base, level))
    return bound


def robustness_exact(word: TensorWord, code: TensorCode, axis_mode: str = "all") -> Fraction:
    """Expected relative local distance of a random plane view, exactly.

    Every plane view's distance to the (m-1)-fold power comes from the
    code's plane-view oracle, which the analyzer shares.
    """
    code.check_shape(word)
    _check_composable(code)
    dists = code.plane_opinions(word, len(_tester_axes(code.m, axis_mode)))[1]
    return Fraction(int(dists.sum()), dists.size * code.n ** (code.m - 1))


@functools.cache
def _pair_weights(m: int, axis_mode: str) -> tuple[int, ...]:
    """For each pair of 0-based axes b < c, in ``itertools.combinations``
    order, the number of tester axis-choice sequences, levels m down to 3,
    that leave exactly that pair free.

    With all axes, the m - 2 other axes go in any order. With the first
    three, stage s = 1..m-2 picks among the three remaining axes of
    0..s+1 and never b or c: 3 choices while s < b - 1, 2 while
    s < c - 1, then 1.
    """
    _tester_axes(m, axis_mode)  # rejects an unknown mode
    pairs = itertools.combinations(range(m), 2)
    if axis_mode == "all":
        return tuple(factorial(m - 2) for _ in pairs)
    return tuple(3 ** max(0, b - 2) * 2 ** max(0, c - max(b, 2)) for b, c in pairs)


def _pair_fails(entries: np.ndarray, code: TensorCode) -> list[np.ndarray]:
    """Which two-axis slices of a validated word, or of each word of a (W,
    n, ..., n) stack, fail the square-power check: one bool array of shape
    (n,) * (m - 2), then (W,) for a stack, per axis pair b < c in
    ``itertools.combinations`` order, indexed by the other coordinates in
    ascending axis order.

    A slice fails exactly when some line inside it, along either of its
    two free axes, violates a base check.
    """
    m, n = code.m, code.n
    violated = np.logical_or.reduce(line_syndromes(code.base, entries, m), axis=1)
    violated = violated.reshape((m,) + (n,) * (m - 1) + entries.shape[:-m])
    # along[j][a]: some line parallel to axis a violates, over the j-th of
    # its m - 1 other coordinates
    along = [np.logical_or.reduce(violated, axis=j + 1) for j in range(m - 1)]
    return [along[c - 1][b] | along[b][c] for b, c in itertools.combinations(range(m), 2)]


def rejection_probability_exact(
    word: TensorWord, code: TensorCode, axis_mode: str = "all"
) -> Fraction:
    """Probability the composed tester rejects, over every tester path.

    Each path fixes one coordinate per collapsed axis, so the paths that
    leave a pair free reach each of its slices equally often; the count
    of rejecting paths is a weighted sum of failing slices, in Python ints
    (at parity(2)^18 it passes 2^63).
    """
    code.check_shape(word)
    _check_composable(code)
    weights = _pair_weights(code.m, axis_mode)
    fails = _pair_fails(word.entries, code)
    rejected = sum(w * int(np.count_nonzero(f)) for w, f in zip(weights, fails))
    # every axis-choice sequence leaves one pair free and has n^(m-2) paths
    return Fraction(rejected, sum(weights) * code.n ** (code.m - 2))


def rejection_probability_exact_batch(
    words: np.ndarray, code: TensorCode, axis_mode: str = "all"
) -> list[Fraction]:
    """``rejection_probability_exact`` of each word of a validated (W, n,
    ..., n) stack, from one pass over the stack."""
    _check_composable(code)
    weights = _pair_weights(code.m, axis_mode)
    fails = _pair_fails(words, code)
    counts = np.count_nonzero(np.stack(fails).reshape(len(fails), -1, len(words)), axis=1)
    paths = sum(weights) * code.n ** (code.m - 2)
    return [Fraction(sum(map(operator.mul, weights, row)), paths) for row in counts.T.tolist()]


@dataclass(frozen=True)
class SampledRejection:
    """Monte Carlo estimate of the composed tester's rejection probability."""

    estimate: Fraction
    rejections: int
    trials: int
    seed: int

    @property
    def standard_error(self) -> float:
        phat = float(self.estimate)
        return sqrt(phat * (1.0 - phat) / self.trials)


def rejection_probability_sampled(
    word: TensorWord,
    code: TensorCode,
    trials: int,
    seed: int,
    axis_mode: str = "all",
) -> SampledRejection:
    """Estimate the rejection probability from seeded independent draws.

    All stage choices are drawn up front from one generator, so the result
    depends only on (word, trials, seed), not on evaluation order.
    """
    code.check_shape(word)
    if trials < 1:
        raise ValueError("need at least one trial")
    check_draws(trials)
    _check_composable(code)
    m = code.m
    axis_counts = [len(_tester_axes(level, axis_mode)) for level in range(m, 2, -1)]
    # the failing slices first, so the line syndromes they come from are
    # freed before any draw is made
    fails = np.stack(_pair_fails(word.entries, code))
    rng = np.random.default_rng(seed)
    axis_draws = np.column_stack([rng.integers(0, c, size=trials) for c in axis_counts])
    coord_draws = rng.integers(0, code.n, size=(trials, m - 2))
    # Replay every draw at once: pop the drawn axis from each trial's
    # remaining axes and record its coordinate.
    rows = np.arange(trials)
    remaining = np.tile(np.arange(m), (trials, 1))
    point = np.zeros((trials, m), dtype=np.int64)
    for stage in range(m - 2):
        rel = axis_draws[:, stage]
        point[rows, remaining[rows, rel]] = coord_draws[:, stage]
        keep = np.arange(m - stage)[None, :] != rel[:, None]
        remaining = remaining[keep].reshape(trials, m - stage - 1)
    # the number of the free pair (b, c) in ``itertools.combinations``
    # order, and the row-major rank of the other m - 2 coordinates:
    # ``point`` without its two free columns, both zero
    b, c = remaining[:, 0], remaining[:, 1]
    pair = b * (2 * m - b - 1) // 2 + c - b - 1
    fixed = np.ones((trials, m), dtype=bool)
    fixed[rows, b] = fixed[rows, c] = False
    rank = point[fixed].reshape(trials, m - 2) @ code.n ** np.arange(m - 3, -1, -1)
    rejections = int(np.count_nonzero(fails.reshape(len(fails), -1)[pair, rank]))
    return SampledRejection(
        estimate=Fraction(rejections, trials),
        rejections=rejections,
        trials=trials,
        seed=seed,
    )
