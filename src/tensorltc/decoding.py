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
from .linear_code import ErasureFailure, LinearCode, PartialWord, hamming_distance
from .tensor_code import TensorWord, line_syndromes


@dataclass(frozen=True)
class DecoderConfig:
    """Parameters of the row/column decoder for the square power of ``base``.

    ``radius`` is the per-line decoding radius (defaults to the unique
    decoding radius), ``removal_threshold`` the fraction of marked entries
    at which a line is dropped (defaults to alpha/2), and
    ``budget_constant`` the denominator of the guaranteed error budget
    alpha^2 n^2 / constant.
    """

    base: LinearCode
    radius: int
    removal_threshold: Fraction
    budget_constant: int = 100

    @classmethod
    def for_code(
        cls,
        base: LinearCode,
        radius: int | None = None,
        removal_threshold: Fraction | None = None,
        budget_constant: int = 100,
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
        return cls(base, radius, removal_threshold, budget_constant)

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.radius, self.base.n)

    def error_budget(self) -> int:
        """floor(alpha^2 n^2 / constant) correctable errors."""
        return int(self.alpha**2 * self.base.n**2 / self.budget_constant)


@dataclass
class DecodeTrace:
    """What the decoder did: marks, failures, removals, verification."""

    budget: int
    inconsistent: np.ndarray | None = None
    row_failed: np.ndarray | None = None
    col_failed: np.ndarray | None = None
    bad_rows: int = 0  # rows with >= alpha*n marks (diagnostic threshold)
    bad_cols: int = 0
    removed_rows: tuple[int, ...] = ()
    removed_cols: tuple[int, ...] = ()
    status: str = "ok"
    result_distance: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "budget": self.budget,
            "inconsistent": None
            if self.inconsistent is None
            else self.inconsistent.astype(int).tolist(),
            "row_failed": None if self.row_failed is None else self.row_failed.tolist(),
            "col_failed": None if self.col_failed is None else self.col_failed.tolist(),
            "bad_rows": self.bad_rows,
            "bad_cols": self.bad_cols,
            "removed_rows": list(self.removed_rows),
            "removed_cols": list(self.removed_cols),
            "status": self.status,
            "result_distance": self.result_distance,
        }


def inconsistent_entries(
    row_decoded: np.ndarray,
    col_decoded: np.ndarray,
    row_failed: np.ndarray | None = None,
    col_failed: np.ndarray | None = None,
) -> np.ndarray:
    """Binary matrix: 1 where the passes disagree or either line failed."""
    row_decoded = np.asarray(row_decoded)
    col_decoded = np.asarray(col_decoded)
    if row_decoded.shape != col_decoded.shape or row_decoded.ndim != 2:
        raise ShapeError("row- and column-decoded matrices must share an (n, n) shape")
    marks = (row_decoded != col_decoded).astype(np.uint8)
    if row_failed is not None:
        marks[np.asarray(row_failed, dtype=bool), :] = 1
    if col_failed is not None:
        marks[:, np.asarray(col_failed, dtype=bool)] = 1
    return marks


def _meets(count: int, threshold: Fraction, n: int) -> bool:
    # count >= threshold * n, exactly, and never drop a clean line
    return count > 0 and count * threshold.denominator >= threshold.numerator * n


def decode_square(
    word: TensorWord | np.ndarray, cfg: DecoderConfig
) -> tuple[TensorWord | None, DecodeTrace]:
    """Decode an n x n word to the 2-fold power of the configured base.

    Returns (codeword, trace) on success and (None, trace) on failure.
    Any returned word is a verified member of the square code.
    """
    entries = word.entries if isinstance(word, TensorWord) else np.asarray(word)
    n = cfg.base.n
    if entries.shape != (n, n):
        raise ShapeError(f"expected an {n} x {n} word, got shape {entries.shape}")
    entries = cfg.base.field.validate(entries)
    trace = DecodeTrace(budget=cfg.error_budget())

    # Pass 1: bounded-distance decode every row and every column.
    row_decoded = np.zeros((n, n), dtype=np.int64)
    col_decoded = np.zeros((n, n), dtype=np.int64)
    row_failed = np.zeros(n, dtype=bool)
    col_failed = np.zeros(n, dtype=bool)
    for i in range(n):
        decoded = cfg.base.bounded_distance_decode(entries[i], cfg.radius)
        if decoded is None:
            row_failed[i] = True
        else:
            row_decoded[i] = decoded
    for j in range(n):
        decoded = cfg.base.bounded_distance_decode(entries[:, j], cfg.radius)
        if decoded is None:
            col_failed[j] = True
        else:
            col_decoded[:, j] = decoded

    # Pass 2: mark entries where the passes disagree.
    marks = inconsistent_entries(row_decoded, col_decoded, row_failed, col_failed)
    trace.inconsistent = marks
    trace.row_failed = row_failed
    trace.col_failed = col_failed
    row_counts = marks.sum(axis=1, dtype=np.int64)
    col_counts = marks.sum(axis=0, dtype=np.int64)
    # alpha * n equals the radius exactly, so the diagnostic threshold is an int
    trace.bad_rows = int((row_counts >= cfg.radius).sum())
    trace.bad_cols = int((col_counts >= cfg.radius).sum())

    # Pass 3: remove lines at the removal threshold.
    removed_rows = [i for i in range(n) if _meets(int(row_counts[i]), cfg.removal_threshold, n)]
    removed_cols = [j for j in range(n) if _meets(int(col_counts[j]), cfg.removal_threshold, n)]
    trace.removed_rows = tuple(removed_rows)
    trace.removed_cols = tuple(removed_cols)
    surviving_rows = np.setdiff1d(np.arange(n), removed_rows)
    surviving_cols = np.setdiff1d(np.arange(n), removed_cols)
    if surviving_rows.size == 0 or surviving_cols.size == 0:
        trace.status = "all-lines-removed"
        return None, trace

    # Pass 4: treat removed lines as erasures and re-extend from the
    # surviving submatrix of consistently decoded values.
    col_known = np.zeros(n, dtype=bool)
    col_known[surviving_cols] = True
    output = np.zeros((n, n), dtype=np.int64)
    for i in surviving_rows:
        if col_known.all():
            output[i] = row_decoded[i]  # full row already decoded to a codeword
            continue
        completed = cfg.base.erasure_decode(PartialWord(row_decoded[i], col_known))
        if isinstance(completed, ErasureFailure):
            trace.status = f"row-erasure-{completed.value}"
            return None, trace
        output[i] = completed
    row_known = np.zeros(n, dtype=bool)
    row_known[surviving_rows] = True
    for j in range(n):
        if row_known.all():
            break  # every column is fully filled by decoded rows
        completed = cfg.base.erasure_decode(PartialWord(output[:, j], row_known))
        if isinstance(completed, ErasureFailure):
            trace.status = f"column-erasure-{completed.value}"
            return None, trace
        output[:, j] = completed

    # Pass 5: verify membership and plausibility.
    if line_syndromes(cfg.base, output).any():
        trace.status = "not-a-codeword"
        return None, trace
    dist = hamming_distance(output, entries)
    trace.result_distance = dist
    d_square = cfg.base.minimum_distance() ** 2
    if dist > (d_square - 1) // 2:
        trace.status = "beyond-unique-radius"
        return None, trace
    return TensorWord(cfg.base.field, output), trace
