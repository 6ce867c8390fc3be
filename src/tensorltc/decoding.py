"""Unique decoding of the 2-fold tensor power.

The decoder runs bounded-distance decoding on every row and every column,
marks entries where the two passes disagree, removes lines carrying too
many marks, and re-extends the surviving submatrix by erasure decoding.
With a base code correctable from t = floor((d-1)/2) errors per line and
alpha = t/n, any pattern of at most floor(alpha^2 n^2 / 100) errors is
corrected exactly; beyond that the decoder returns a verified codeword or
fails cleanly, never a non-codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ShapeError
from .linear_code import LinearCode
from .tensor_code import TensorWord, complete_subcube


@dataclass(frozen=True)
class DecoderConfig:
    """Parameters of the row/column decoder for the square power of ``base``.

    ``radius`` is the per-line decoding radius (defaults to the unique
    decoding radius) and ``removal_threshold`` the fraction of marked
    entries at which a line is dropped (defaults to alpha/2).
    """

    base: LinearCode
    radius: int
    removal_threshold: Fraction

    @classmethod
    def for_code(
        cls,
        base: LinearCode,
        radius: int | None = None,
        removal_threshold: Fraction | None = None,
    ) -> DecoderConfig:
        if radius is None:
            radius = base.unique_decoding_radius()
        if radius < 0:
            raise ValueError(f"radius {radius} is negative")
        if removal_threshold is None:
            if radius > 2 * base.n:
                raise ValueError(f"radius {radius} is above 2n = {2 * base.n}")
            removal_threshold = Fraction(radius, 2 * base.n)
        removal_threshold = Fraction(removal_threshold)
        if not 0 <= removal_threshold <= 1:
            raise ValueError("removal threshold must be a fraction of n in [0, 1]")
        return cls(base, radius, removal_threshold)

    def error_budget(self) -> int:
        """floor(alpha^2 n^2 / 100) correctable errors; alpha * n is the radius."""
        return self.radius**2 // 100


@dataclass
class DecodeTrace:
    """What the decoder did: marks, failures, removals, verification."""

    budget: int
    inconsistent: np.ndarray  # bool, shape (n, n)
    row_failed: np.ndarray
    col_failed: np.ndarray
    bad_rows: int  # rows with >= alpha*n marks (diagnostic threshold)
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


@dataclass
class StackedDecode:
    """The decoder's arrays for a stack of W words, word w at index w.

    Symbols are in the narrow dtype ``np.min_scalar_type(p - 1)``. Lines
    run rows first, then columns: index n + j of a (W, 2n) array is column
    j's. A word's ``output`` is its decoded codeword where its status is ok.
    """

    cfg: DecoderConfig
    output: np.ndarray  # (W, n, n)
    marks: np.ndarray  # bool, (W, n, n)
    failed: np.ndarray  # bool, (W, 2n): the line's bounded-distance decoding failed
    counts: np.ndarray  # (W, 2n): marks on the line
    removed: np.ndarray  # bool, (W, 2n)
    status: list[str]
    distance: list[int | None]

    def trace(self, w: int) -> DecodeTrace:
        n = self.cfg.base.n
        # alpha * n equals the radius exactly, so the diagnostic threshold is an int
        bad = self.counts[w].reshape(2, n) >= self.cfg.radius
        bad_rows, bad_cols = bad.sum(axis=1).tolist()
        removed = self.removed[w]
        return DecodeTrace(
            budget=self.cfg.error_budget(),
            inconsistent=self.marks[w],
            row_failed=self.failed[w, :n],
            col_failed=self.failed[w, n:],
            bad_rows=bad_rows,
            bad_cols=bad_cols,
            removed_rows=tuple(removed[:n].nonzero()[0].tolist()),
            removed_cols=tuple(removed[n:].nonzero()[0].tolist()),
            status=self.status[w],
            result_distance=self.distance[w],
        )


def decode_stack(words: np.ndarray, cfg: DecoderConfig) -> StackedDecode:
    """Decode every word of a valid (W, n, n) stack, unchecked.

    Passes 1-3 and 5 each run once over the whole stack; pass 4 runs per
    word, on the words that removed some line. Each word's results are
    those of :func:`decode_square` on it alone.
    """
    base, n = cfg.base, cfg.base.n
    words = words.astype(np.min_scalar_type(base.p - 1), copy=False)
    count = len(words)

    # Pass 1: bounded-distance decode every row and every column, in one batch.
    lines = np.concatenate([words, words.transpose(0, 2, 1)], axis=1).reshape(-1, n)
    decoded, failed = base._decode_lines(lines, cfg.radius)
    decoded, failed = decoded.reshape(count, 2 * n, n), failed.reshape(count, 2 * n)
    output = decoded[:, :n]  # the decoded rows

    # Pass 2: mark entries where the passes disagree or either line failed.
    columns = decoded[:, n:].transpose(0, 2, 1)
    marks = (output != columns) | failed[:, :n, None] | failed[:, None, n:]
    counts = np.concatenate([marks.sum(axis=2), marks.sum(axis=1)], axis=1)

    # Pass 3: remove lines at the removal threshold: count >= threshold * n,
    # exactly, and never a clean line.
    threshold = cfg.removal_threshold
    removed = counts >= max(1, -(-threshold.numerator * n // threshold.denominator))
    status = ["ok"] * count

    # Pass 4: treat removed lines as erasures and re-extend from the
    # surviving submatrix of consistently decoded values. On the transpose,
    # axis 0 runs along rows: the surviving rows are completed first, then
    # every column. A failed row is always removed, and no removed line's
    # entries are read before they are completed, so the output starts as
    # the decoded rows.
    for w in np.flatnonzero(removed.any(axis=1)).tolist():
        surviving_rows = np.flatnonzero(~removed[w, :n])
        surviving_cols = np.flatnonzero(~removed[w, n:])
        if surviving_rows.size == 0 or surviving_cols.size == 0:
            status[w] = "all-lines-removed"
            continue
        failure = complete_subcube(base, output[w].T, (surviving_cols, surviving_rows))
        if failure is not None:
            axis, state = failure
            status[w] = f"{('row', 'column')[axis]}-erasure-{state.value}"

    # Pass 5: verify membership and plausibility. Every row is a base
    # codeword by now: a decoded row, a row completed by erasure decoding,
    # or, when columns were completed, a linear combination of surviving
    # rows. So output = X G with X = output[:, pivots], as G[:, pivots] = I_k,
    # and every column is a combination of the pivot columns: the columns
    # are all codewords exactly when the pivot columns are.
    distance: list[int | None] = [None] * count
    if "ok" in status:
        wrong = ((base.H @ output[:, :, base.pivots]) % base.p).any(axis=(1, 2)).tolist()
        distances = np.count_nonzero(output != words, axis=(1, 2)).tolist()
        beyond = (base.minimum_distance() ** 2 - 1) // 2
        for w in [w for w in range(count) if status[w] == "ok"]:
            if wrong[w]:
                status[w] = "not-a-codeword"
            else:
                distance[w] = distances[w]
                status[w] = "beyond-unique-radius" if distances[w] > beyond else "ok"
    return StackedDecode(cfg, output, marks, failed, counts, removed, status, distance)


def decode_square(
    word: TensorWord | np.ndarray, cfg: DecoderConfig
) -> tuple[TensorWord | None, DecodeTrace]:
    """Decode an n x n word to the 2-fold power of the configured base.

    Returns (codeword, trace) on success and (None, trace) on failure.
    Any returned word is a verified member of the square code. A failing
    erasure pass reports the first failing row, or column, in index order.
    This is :func:`decode_stack` on a stack of one word.
    """
    entries = word.entries if isinstance(word, TensorWord) else np.asarray(word)
    n = cfg.base.n
    if entries.shape != (n, n):
        raise ShapeError(f"expected an {n} x {n} word, got shape {entries.shape}")
    stack = decode_stack(cfg.base.field.validate(entries)[None], cfg)
    trace = stack.trace(0)
    if trace.status != "ok":
        return None, trace
    return TensorWord._from_valid(cfg.base.field, stack.output[0].astype(np.int64)), trace
