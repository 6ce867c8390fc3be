"""Exact arithmetic in prime fields GF(p) and dense linear algebra over them.

Matrices and vectors are plain numpy integer arrays with entries reduced
into [0, p); a :class:`PrimeField` instance supplies the modulus and the
elementwise operations. Everything here is exact (no floating point).
"""

from __future__ import annotations

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


class PrimeField:
    """The field GF(p) for a prime modulus p with 2 <= p < 2**16.

    Operations accept plain ints or numpy arrays of ints and return values
    reduced into [0, p). Instances are immutable and safe to share.
    """

    def __init__(self, p: int):
        p = int(p)
        if not 2 <= p < MAX_PRIME:
            raise ValueError(f"modulus must be in [2, {MAX_PRIME}), got {p}")
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self._inverse_table: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # Elementwise arithmetic; ints in, ints out (arrays pass through numpy).

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on zero input."""
        if np.ndim(a) == 0:
            a = int(a) % self.p
            if a == 0:
                raise ZeroDivisionError("zero has no inverse in GF(p)")
            return pow(a, self.p - 2, self.p)
        table = self._inverses()
        a = np.asarray(a) % self.p
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no inverse in GF(p)")
        return table[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def _inverses(self) -> np.ndarray:
        if self._inverse_table is None:
            table = np.zeros(self.p, dtype=np.int64)
            for v in range(1, self.p):
                table[v] = pow(v, self.p - 2, self.p)
            self._inverse_table = table
        return self._inverse_table

    def array(self, data) -> np.ndarray:
        """Copy ``data`` into an int64 array reduced mod p."""
        return np.array(data, dtype=np.int64) % self.p

    def validate(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if arr.size and (arr.min() < 0 or arr.max() >= self.p):
            raise ValueError(f"entries must lie in [0, {self.p})")
        return arr.astype(np.int64, copy=False)

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
            basis[row, pc] = field.neg(int(A[i, f]))
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
