"""m-wise tensor products of a linear code, and the index geometry they live on.

A word of the m-fold product is an n x ... x n array (m axes) over GF(p);
it belongs to the product code exactly when every axis-parallel line is a
codeword of the base code. Axes are numbered 1..m with axis 1 the slowest
(row-major), coordinates are 0-based.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .field import PrimeField
from .linear_code import FILE_CAP, LinearCode

# numpy arrays have at most 64 axes; bounding m also keeps n^m cheap to compute
MAX_AXES = 64


@dataclass(frozen=True, eq=False)
class TensorWord:
    """An m-axis cube of side n over a prime field."""

    field: PrimeField
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.int64)
        if entries.ndim < 1:
            raise ShapeError("tensor words need at least one axis")
        n = entries.shape[0]
        if any(s != n for s in entries.shape):
            raise ShapeError(f"all axes must have equal length, got {entries.shape}")
        self.field.validate(entries)
        object.__setattr__(self, "entries", entries)

    @property
    def m(self) -> int:
        return self.entries.ndim

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def size(self) -> int:
        return self.entries.size

    def flat(self) -> np.ndarray:
        """Row-major flattening; axis 1 varies slowest."""
        return self.entries.reshape(-1)

    def point(self, coords: tuple[int, ...]) -> int:
        return int(self.entries[tuple(coords)])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TensorWord)
            and self.field == other.field
            and np.array_equal(self.entries, other.entries)
        )


@dataclass(frozen=True, order=True)
class PlaneIndex:
    """The set of points whose ``axis``-th coordinate equals ``coord``."""

    axis: int  # 1-based
    coord: int  # 0-based


@dataclass(frozen=True)
class LineIndex:
    """An axis-parallel line: free ``axis``, other coordinates fixed.

    ``fixed`` lists the coordinates of the remaining axes in ascending
    axis order.
    """

    axis: int
    fixed: tuple[int, ...]

    def point(self, i: int) -> tuple[int, ...]:
        coords = list(self.fixed)
        coords.insert(self.axis - 1, i)
        return tuple(coords)


def plane_contains_line(plane: PlaneIndex, line: LineIndex) -> bool:
    """True when every point of the line lies in the plane."""
    if plane.axis == line.axis:
        return False
    pos = plane.axis - 1 if plane.axis < line.axis else plane.axis - 2
    return line.fixed[pos] == plane.coord


def extract_plane(word: TensorWord, plane: PlaneIndex) -> TensorWord:
    """Restrict to a plane; the result has m - 1 axes in the original order."""
    if word.m < 2:
        raise ShapeError("plane extraction needs at least two axes")
    if not 1 <= plane.axis <= word.m:
        raise ShapeError(f"axis {plane.axis} outside [1, {word.m}]")
    if not 0 <= plane.coord < word.n:
        raise ShapeError(f"coordinate {plane.coord} outside [0, {word.n})")
    return TensorWord(word.field, np.take(word.entries, plane.coord, axis=plane.axis - 1))


def extract_line(word: TensorWord, line: LineIndex) -> np.ndarray:
    """The n entries along the line, ordered by the free coordinate."""
    if not 1 <= line.axis <= word.m:
        raise ShapeError(f"axis {line.axis} outside [1, {word.m}]")
    if len(line.fixed) != word.m - 1:
        raise ShapeError(f"expected {word.m - 1} fixed coordinates, got {len(line.fixed)}")
    if any(not 0 <= c < word.n for c in line.fixed):
        raise ShapeError(f"fixed coordinates outside [0, {word.n})")
    indexer: list = list(line.fixed)
    indexer.insert(line.axis - 1, slice(None))
    return word.entries[tuple(indexer)].copy()


def all_planes(m: int, n: int, axes: tuple[int, ...] | None = None) -> list[PlaneIndex]:
    axes = tuple(range(1, m + 1)) if axes is None else axes
    return [PlaneIndex(b, i) for b in axes for i in range(n)]


def all_lines(m: int, n: int, axis: int) -> list[LineIndex]:
    import itertools

    return [
        LineIndex(axis, fixed)
        for fixed in itertools.product(range(n), repeat=m - 1)
    ]


def line_syndromes(base: LinearCode, entries: np.ndarray) -> np.ndarray:
    """Syndromes of every axis-parallel line of an m-axis array.

    Index ``a`` of the result holds the lines parallel to (0-based) axis
    ``a``: the next m - 1 axes are the other axes in ascending order, the
    last the n - k syndrome symbols. The array is a word of the m-fold
    power exactly when the result is all zero.
    """
    return base.syndrome(np.stack([np.moveaxis(entries, a, -1) for a in range(entries.ndim)]))


@dataclass
class EncodeCounter:
    """Counts base-code encode invocations during tensor encoding."""

    base_calls: int = 0


class TensorParams(NamedTuple):
    blocklength: int
    dimension: int
    distance: int
    rate: Fraction
    relative_distance: Fraction


class TensorCode:
    """The m-fold tensor power of a base linear code."""

    def __init__(self, base: LinearCode, m: int):
        if not 1 <= m <= MAX_AXES:
            raise ShapeError(f"tensor exponent must lie in [1, {MAX_AXES}], got {m}")
        self.base = base
        self.m = m

    def __repr__(self) -> str:
        return f"TensorCode({self.base!r}^{self.m})"

    @property
    def field(self) -> PrimeField:
        return self.base.field

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def blocklength(self) -> int:
        return self.base.n**self.m

    @property
    def dimension(self) -> int:
        return self.base.k**self.m

    def params(self) -> TensorParams:
        """(n^m, k^m, d^m, rate^m, relative-distance^m), all exact."""
        n, k, m = self.base.n, self.base.k, self.m
        d = self.base.minimum_distance()
        return TensorParams(
            blocklength=n**m,
            dimension=k**m,
            distance=d**m,
            rate=Fraction(k, n) ** m,
            relative_distance=Fraction(d, n) ** m,
        )

    def zero_word(self) -> TensorWord:
        return TensorWord(self.field, np.zeros((self.n,) * self.m, dtype=np.int64))

    def word(self, entries) -> TensorWord:
        w = TensorWord(self.field, np.asarray(entries, dtype=np.int64))
        self.check_shape(w)
        return w

    def check_shape(self, word: TensorWord) -> None:
        if word.m != self.m or word.n != self.n or word.field != self.field:
            raise ShapeError(
                f"word with {word.m} axes of side {word.n} does not fit "
                f"a {self.m}-axis code of side {self.n}"
            )

    def contains(self, word: TensorWord) -> bool:
        """Membership: every axis-parallel line must satisfy the base checks."""
        self.check_shape(word)
        return not line_syndromes(self.base, word.entries).any()

    # -- encoding -----------------------------------------------------------

    def encode(self, message, counter: EncodeCounter | None = None) -> TensorWord:
        """Encode k^m symbols by m mode products with the base generator.

        The message is viewed as a k x ... x k array and every line along
        one axis at a time is encoded, last axis first; the counter grows
        by the number of lines each product encodes.
        """
        entries = self.field.validate(np.asarray(message)).reshape(-1)
        if entries.size != self.dimension:
            raise ShapeError(f"message length {entries.size} != k^m = {self.dimension}")
        base = self.base
        for axis in reversed(range(self.m)):
            # axes before ``axis`` still hold k message symbols, later ones n
            lines = entries.reshape(base.k**axis, base.k, -1)
            if counter is not None:
                counter.base_calls += lines.shape[0] * lines.shape[2]
            entries = (base.G.T @ lines) % base.p
        return TensorWord(self.field, entries.reshape((self.n,) * self.m))

    # -- flat (Kronecker) view ------------------------------------------------

    def kron_generator(self) -> np.ndarray:
        """Generator of the product code as a flat k^m x n^m matrix."""
        return functools.reduce(
            lambda a, b: np.kron(a, b) % self.field.p, [self.base.G] * self.m
        )

    def flattened(self) -> LinearCode:
        """The same code as a flat [n^m, k^m] linear code (cached)."""
        cached = getattr(self, "_flattened", None)
        if cached is None:
            cached = LinearCode(self.field, self.kron_generator())
            self._flattened = cached
        return cached

    def sub(self) -> TensorCode:
        """The (m-1)-fold power that plane views are candidates for (cached)."""
        if self.m < 2:
            raise ShapeError("the 1-fold power has no plane subcode")
        cached = getattr(self, "_sub", None)
        if cached is None:
            cached = TensorCode(self.base, self.m - 1)
            self._sub = cached
        return cached

    def distance_to(self, word: TensorWord) -> int:
        """Exact Hamming distance from the word to the code (brute force)."""
        self.check_shape(word)
        return self.flattened().distance_to_code(word.flat())

    def nearest(self, word: TensorWord) -> tuple[TensorWord, int]:
        self.check_shape(word)
        flat, dist = self.flattened().nearest_codeword(word.flat())
        return TensorWord(self.field, flat.reshape(word.entries.shape)), dist


# -- file format --------------------------------------------------------------
#
# Text, UTF-8. Line 1: "p m n". Then n^m whitespace-separated integers in
# [0, p), row-major with axis 1 slowest.


def save_tensor(word: TensorWord, target) -> None:
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8") as fh:
            save_tensor(word, fh)
        return
    target.write(f"{word.field.p} {word.m} {word.n}\n")
    flat = word.flat()
    if word.m == 1:
        target.write(" ".join(str(int(v)) for v in flat) + "\n")
        return
    per_line = word.n ** (word.m - 1)
    for start in range(0, flat.size, per_line):
        target.write(" ".join(str(int(v)) for v in flat[start : start + per_line]) + "\n")


def load_tensor(source) -> TensorWord:
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            return load_tensor(fh)
    return _parse_tensor(source)


def parse_tensor(text: str) -> TensorWord:
    return _parse_tensor(io.StringIO(text))


def _parse_tensor(fh) -> TensorWord:
    header = fh.readline().split()
    if len(header) != 3:
        raise ValueError("tensor file must start with a 'p m n' header line")
    p, m, n = (int(v) for v in header)
    field = PrimeField(p)
    if not 1 <= m <= MAX_AXES or n < 0 or n**m > FILE_CAP:
        raise ValueError(
            f"header declares an {n}^{m} tensor; files hold 1 to {MAX_AXES} axes "
            f"and at most {FILE_CAP} entries"
        )
    values = fh.read().split()
    if len(values) != n**m:
        raise ValueError(f"expected {n ** m} entries, found {len(values)}")
    return TensorWord(field, field.parse(values).reshape((n,) * m))
