"""Exact arithmetic in prime fields GF(p) and dense linear algebra over them.

Matrices and vectors are plain numpy integer arrays with entries reduced
into [0, p); a :class:`PrimeField` instance supplies the modulus, scalar
inverses and range checks. Everything here is exact (no floating point).
"""

from __future__ import annotations

import bisect

import numpy as np

from .errors import ShapeError

MAX_PRIME = 1 << 16  # keeps products inside 32-bit intermediates


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _refuse_fractions(arr: np.ndarray) -> None:
    """ValueError unless every entry of ``arr`` is a whole number: of an
    integer or bool dtype, or real floating point with no fractional part
    and no NaN. An int64 cast would silently truncate anything else."""
    if arr.dtype.kind not in "iubf":
        raise ValueError(f"entries must be real numbers, got dtype {arr.dtype}")
    if arr.dtype.kind == "f" and not np.array_equal(arr, np.trunc(arr)):
        raise ValueError("entries must be whole numbers")


class PrimeField:
    """The field GF(p) for a prime modulus p with 2 <= p < 2**16.

    Arrays it makes or checks hold ints reduced into [0, p). ``dtype``,
    ``np.min_scalar_type(p - 1)``, is the narrow dtype the package holds
    its symbol stacks in. Instances are immutable and safe to share.
    """

    def __init__(self, p: int):
        p = int(p)
        if not 2 <= p < MAX_PRIME:
            raise ValueError(f"modulus must be in [2, {MAX_PRIME}), got {p}")
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self.dtype = np.min_scalar_type(p - 1)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on zero input."""
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(p)")
        return pow(a, self.p - 2, self.p)

    def array(self, data) -> np.ndarray:
        """Copy ``data`` of whole numbers into an int64 array reduced mod p."""
        arr = np.asarray(data)
        _refuse_fractions(arr)
        return np.array(arr, dtype=np.int64) % self.p

    def check(self, arr: np.ndarray) -> np.ndarray:
        """``arr`` as it is, after checking that every entry is a whole
        number in [0, p): a narrow stack is checked without a copy."""
        arr = np.asarray(arr)
        if arr.dtype.kind in "iu":
            # a negative entry reads as a huge unsigned one: one max checks both ends
            bad = arr.size and arr.view(arr.dtype.str.replace("i", "u")).max() >= self.p
        else:  # bool or floating point; any other dtype is refused below
            bad = arr.dtype.kind in "bf" and arr.size and (arr.min() < 0 or arr.max() >= self.p)
        if bad:
            raise ValueError(f"entries must lie in [0, {self.p})")
        if arr.dtype.kind not in "iu":
            _refuse_fractions(arr)
        return arr

    def validate(self, arr: np.ndarray) -> np.ndarray:
        """:meth:`check`, then the entries as int64."""
        return self.check(arr).astype(np.int64, copy=False)

    def parse(self, tokens) -> np.ndarray:
        """Text tokens as a 1-d array of symbols; ValueError unless each is
        an integer in [0, p), however many digits it has."""
        try:
            arr = np.array([int(v) for v in tokens], dtype=np.int64)
        except OverflowError:
            raise ValueError(f"entries must lie in [0, {self.p})") from None
        return self.validate(arr)


def rref(field: PrimeField, matrix) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form of ``matrix`` over GF(p).

    Returns ``(R, pivot_columns, rank)``. The row space is preserved and
    pivot entries are normalized to 1 with zeros above and below.
    """
    A = field.array(matrix)
    if A.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={A.ndim}")
    rows, cols = A.shape
    p = field.p
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        nonzero = np.flatnonzero(A[:, c]).tolist()
        at = bisect.bisect_left(nonzero, r)
        if at == len(nonzero):
            continue
        # pivot on the first nonzero row at or below r; clear the others
        pivot_row = nonzero.pop(at)
        if pivot_row != r:
            A[[r, pivot_row]] = A[[pivot_row, r]]
        if A[r, c] != 1:
            A[r] = (A[r] * field.inv(int(A[r, c]))) % p
        if nonzero:  # one update for every row to clear
            A[nonzero] = (A[nonzero] - A[nonzero, c, None] * A[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots, r

