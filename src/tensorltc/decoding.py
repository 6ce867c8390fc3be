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
        if removal_threshold is None:
            removal_threshold = Fraction(radius, 2 * base.n)
        removal_threshold = Fraction(removal_threshold)
        if not 0 <= removal_threshold <= 1:
            raise ValueError("removal threshold must be a fraction of n in [0, 1]")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return cls(base, radius, removal_threshold)

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.radius, self.base.n)

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


def _removed(counts: np.ndarray, threshold: Fraction, n: int) -> np.ndarray:
    # count >= threshold * n, exactly, and never drop a clean line
    least = max(1, -(-threshold.numerator * n // threshold.denominator))
    return counts >= least


def decode_square(
    word: TensorWord | np.ndarray, cfg: DecoderConfig
) -> tuple[TensorWord | None, DecodeTrace]:
    """Decode an n x n word to the 2-fold power of the configured base.

    Returns (codeword, trace) on success and (None, trace) on failure.
    Any returned word is a verified member of the square code. A failing
    erasure pass reports the first failing row, or column, in index order.
    """
    entries = word.entries if isinstance(word, TensorWord) else np.asarray(word)
    n = cfg.base.n
    if entries.shape != (n, n):
        raise ShapeError(f"expected an {n} x {n} word, got shape {entries.shape}")
    entries = cfg.base.field.validate(entries)

    # Pass 1: bounded-distance decode every row and every column, in one batch.
    decoded, failed = cfg.base.bounded_distance_decode_batch(
        np.concatenate([entries, entries.T]), cfg.radius
    )
    row_decoded, col_decoded = decoded[:n], decoded[n:].T
    row_failed, col_failed = failed[:n], failed[n:]

    # Pass 2: mark entries where the passes disagree or either line failed.
    marks = (row_decoded != col_decoded) | row_failed[:, None] | col_failed[None, :]
    row_counts = marks.sum(axis=1, dtype=np.int64)
    col_counts = marks.sum(axis=0, dtype=np.int64)

    # Pass 3: remove lines at the removal threshold.
    removed_rows = _removed(row_counts, cfg.removal_threshold, n)
    removed_cols = _removed(col_counts, cfg.removal_threshold, n)
    trace = DecodeTrace(
        budget=cfg.error_budget(),
        inconsistent=marks,
        row_failed=row_failed,
        col_failed=col_failed,
        # alpha * n equals the radius exactly, so the diagnostic threshold is an int
        bad_rows=int((row_counts >= cfg.radius).sum()),
        bad_cols=int((col_counts >= cfg.radius).sum()),
        removed_rows=tuple(np.flatnonzero(removed_rows).tolist()),
        removed_cols=tuple(np.flatnonzero(removed_cols).tolist()),
    )
    surviving_rows = np.flatnonzero(~removed_rows)
    surviving_cols = np.flatnonzero(~removed_cols)
    if surviving_rows.size == 0 or surviving_cols.size == 0:
        trace.status = "all-lines-removed"
        return None, trace

    # Pass 4: treat removed lines as erasures and re-extend from the
    # surviving submatrix of consistently decoded values. On the transpose,
    # axis 0 runs along rows: the surviving rows are completed first, then
    # every column.
    output = np.zeros((n, n), dtype=np.int64)
    output[surviving_rows] = row_decoded[surviving_rows]  # each a decoded codeword
    failure = complete_subcube(cfg.base, output.T, (surviving_cols, surviving_rows))
    if failure is not None:
        axis, status = failure
        trace.status = f"{('row', 'column')[axis]}-erasure-{status.value}"
        return None, trace

    # Pass 5: verify membership and plausibility. Every row is a base
    # codeword by now: a decoded row, a row completed by erasure decoding,
    # or, when columns were completed, a linear combination of surviving
    # rows. So output = X G with X = output[:, pivots], as G[:, pivots] = I_k,
    # and every column is a combination of the pivot columns: the columns
    # are all codewords exactly when the pivot columns are.
    if cfg.base.syndrome(output.take(cfg.base.pivots, axis=1).T).any():
        trace.status = "not-a-codeword"
        return None, trace
    dist = int(np.count_nonzero(output != entries))
    trace.result_distance = dist
    d_square = cfg.base.minimum_distance() ** 2
    if dist > (d_square - 1) // 2:
        trace.status = "beyond-unique-radius"
        return None, trace
    return TensorWord(cfg.base.field, output), trace
