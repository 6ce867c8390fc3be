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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .errors import ShapeError
from .tensor_code import TensorCode, TensorWord, line_syndromes

AXIS_MODES = ("all", "first-three")


def _tester_axes(level: int, axis_mode: str) -> tuple[int, ...]:
    if axis_mode not in AXIS_MODES:
        raise ValueError(f"axis_mode must be one of {AXIS_MODES}, got {axis_mode!r}")
    count = level if axis_mode == "all" else min(3, level)
    return tuple(range(1, count + 1))


def _check_composable(code: TensorCode) -> None:
    if code.m < 3:
        raise ShapeError(f"composition needs m >= 3, got m = {code.m}")


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
    if code.m < 3:
        raise ShapeError(f"the plane tester needs m >= 3, got m = {code.m}")
    axes = _tester_axes(code.m, axis_mode)
    dists = code.plane_opinions(word)[1][: len(axes)]
    return Fraction(int(dists.sum()), dists.size * code.n ** (code.m - 1))


@functools.cache
def _free_pair_counts(m: int, axis_mode: str) -> tuple[tuple[tuple[int, int], int], ...]:
    """For each pair (a, b) of 0-based axes, the number of tester axis-choice
    sequences, levels m down to 3, that leave exactly a and b free."""
    memo: dict[tuple[int, ...], Counter] = {}

    def counts(remaining: tuple[int, ...]) -> Counter:
        if len(remaining) == 2:
            return Counter({remaining: 1})
        if remaining not in memo:
            total: Counter = Counter()
            for rel in range(len(_tester_axes(len(remaining), axis_mode))):
                total.update(counts(remaining[:rel] + remaining[rel + 1 :]))
            memo[remaining] = total
        return memo[remaining]

    return tuple(sorted(counts(tuple(range(m))).items()))


def _slice_fail_masks(
    word: TensorWord, code: TensorCode
) -> dict[tuple[int, int], np.ndarray]:
    """Which two-axis slices of the word fail the square-power check.

    For 0-based axes a < b the mask ranges over the other m - 2 axes in
    ascending order; a slice fails exactly when some line along a or
    along b inside it violates a base check.
    """
    violated = line_syndromes(code.base, word.entries).any(axis=-1)
    return {
        (a, b): violated[a].any(axis=b - 1) | violated[b].any(axis=a)
        for a, b in itertools.combinations(range(code.m), 2)
    }


def rejection_probability_exact(
    word: TensorWord, code: TensorCode, axis_mode: str = "all"
) -> Fraction:
    """Probability the composed tester rejects, over every tester path.

    Each path fixes one coordinate per collapsed axis, so the paths that
    leave a pair free reach each of its slices equally often; the count
    of rejecting paths is a weighted sum of failing slices.
    """
    code.check_shape(word)
    _check_composable(code)
    paths = 1
    for level in range(3, code.m + 1):
        paths *= len(_tester_axes(level, axis_mode)) * code.n
    fails = _slice_fail_masks(word, code)
    rejected = sum(
        count * int(fails[pair].sum()) for pair, count in _free_pair_counts(code.m, axis_mode)
    )
    return Fraction(rejected, paths)


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
    _check_composable(code)
    m = code.m
    rng = np.random.default_rng(seed)
    axis_counts = [len(_tester_axes(level, axis_mode)) for level in range(m, 2, -1)]
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
    rejections = 0
    for (a, b), fail in _slice_fail_masks(word, code).items():
        chosen = (remaining[:, 0] == a) & (remaining[:, 1] == b)
        others = [c for c in range(m) if c not in (a, b)]
        rejections += int(fail[tuple(point[chosen][:, others].T)].sum())
    return SampledRejection(
        estimate=Fraction(rejections, trials),
        rejections=rejections,
        trials=trials,
        seed=seed,
    )
