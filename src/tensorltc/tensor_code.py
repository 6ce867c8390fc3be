"""m-wise tensor products of a linear code, and the index geometry they live on.

A word of the m-fold product is an n x ... x n array (m axes) over GF(p);
it belongs to the product code exactly when every axis-parallel line is a
codeword of the base code. Axes are numbered 1..m with axis 1 the slowest
(row-major), coordinates are 0-based.
"""

from __future__ import annotations

import functools
import io
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .field import PrimeField
from .linear_code import FILE_CAP, LinearCode, check_search, exceeds_cap

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


# Index plans are small next to the words they serve; a few shapes cover a run.
PLAN_CACHE = 16


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class IndexPlan:
    """Flat index arrays for the axis shuffles of an n^m cube.

    Each array depends only on (n, m), is built on first use from the
    row-major point grid ``np.arange(n**m).reshape((n,) * m)``, and is a
    read-only, C-ordered ``np.intp`` array, so a gather through it needs no
    conversion. Axis pairs (b, c), b < c, are numbered in
    ``itertools.combinations`` order; a two-axis slice of pair q has id
    q * n^(m-2) plus the row-major index of its other m - 2 coordinates.
    """

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.num_pairs = m * (m - 1) // 2
        self.num_slices = self.num_pairs * n ** max(m - 2, 0)

    def _grid(self) -> np.ndarray:
        return np.arange(self.n**self.m, dtype=np.intp).reshape((self.n,) * self.m)

    def _coords(self) -> np.ndarray:
        """coords[b, x] = x_b for every flat point x, shape (m, n^m)."""
        return np.indices((self.n,) * self.m, dtype=np.intp).reshape(self.m, -1)

    @functools.cached_property
    def views(self) -> np.ndarray:
        """Shape (m*n, n^(m-1)): row b*n + i lists plane (b + 1, i)'s points."""
        grid = self._grid()
        views = np.stack([np.moveaxis(grid, b, 0) for b in range(self.m)])
        return _read_only(views.reshape(self.m * self.n, -1))

    @functools.cached_property
    def gather(self) -> np.ndarray:
        """Shape (m, n^m): where, in an (m, n, n^(m-1)) stack of plane
        opinions read flat, plane (b + 1, x_b)'s opinion at point x sits."""
        grid, size = self._grid(), self.n**self.m
        return _read_only(
            np.stack([np.moveaxis(grid, 0, b).reshape(-1) + b * size for b in range(self.m)])
        )

    @functools.cached_property
    def plane_of(self) -> np.ndarray:
        """Shape (m, n^m): b*n + x_b, the [b, i] index of the plane on axis
        b + 1 through point x."""
        offsets = self.n * np.arange(self.m, dtype=np.intp)[:, None]
        return _read_only(self._coords() + offsets)

    @functools.cached_property
    def pairs(self) -> np.ndarray:
        """Shape (2, P): the axes b < c of each pair."""
        pairs = np.array(list(itertools.combinations(range(self.m), 2)), dtype=np.intp)
        return _read_only(pairs.reshape(-1, 2).T.copy())

    @functools.cached_property
    def pair_cell(self) -> np.ndarray:
        """Shape (P, n^m): q*n^2 + x_b*n + x_c, the cell of pair q = (b, c)
        that holds point x."""
        coords, (b, c) = self._coords(), self.pairs
        q = np.arange(self.num_pairs, dtype=np.intp)[:, None]
        return _read_only((q * self.n + coords[b]) * self.n + coords[c])

    @functools.cached_property
    def pair_id(self) -> np.ndarray:
        """Shape (m, m): the number of pair {b, c} at [b, c] and [c, b]; -1 on
        the diagonal."""
        ids = np.full((self.m, self.m), -1, dtype=np.intp)
        b, c = self.pairs
        ids[b, c] = ids[c, b] = np.arange(self.num_pairs)
        return _read_only(ids)

    @functools.cached_property
    def slice_place(self) -> np.ndarray:
        """Shape (P, m): the place value of coordinate x_a in the slice id of
        pair q, zero on the pair's own two axes."""
        place = np.zeros((self.num_pairs, self.m), dtype=np.intp)
        for q, pair in enumerate(self.pairs.T.tolist()):
            others = [a for a in range(self.m) if a not in pair]
            place[q, others] = self.n ** np.arange(len(others) - 1, -1, -1)
        return _read_only(place)

    @functools.cached_property
    def lines(self) -> np.ndarray:
        """Shape (m, n^(m-1), n): row [a, j] lists the points of the j-th line
        parallel to axis a + 1, lines in row-major order of the other m - 1
        coordinates."""
        grid = self._grid()
        return _read_only(
            np.stack([np.moveaxis(grid, a, -1).reshape(-1, self.n) for a in range(self.m)])
        )

    @functools.cached_property
    def line_slice(self) -> np.ndarray:
        """Shape (m, n^(m-1), m-1): the ids of the m - 1 two-axis slices that
        hold line [a, j], one per other axis in ascending order."""
        m, n = self.m, self.n
        offsets = np.arange(self.num_pairs, dtype=np.intp) * n ** max(m - 2, 0)
        coords = self._coords()
        out = np.empty((m, n ** (m - 1), m - 1), dtype=np.intp)
        for a in range(m):
            # the coordinates of each line's first point; slice ids ignore x_a
            q = np.delete(self.pair_id[a], a)
            out[a] = offsets[q] + coords[:, self.lines[a, :, 0]].T @ self.slice_place[q].T
        return _read_only(out)


@functools.lru_cache(maxsize=PLAN_CACHE)
def index_plan(n: int, m: int) -> IndexPlan:
    """The index plan of the n^m cube, shared by every code and word of
    that shape."""
    return IndexPlan(n, m)


def line_syndromes(base: LinearCode, entries: np.ndarray) -> np.ndarray:
    """Syndromes of every axis-parallel line of an m-axis array.

    Shape (m, n^(m-1), n - k): row [a, j] is the syndrome of line j
    parallel to (0-based) axis a, lines in row-major order of the other
    m - 1 axes (``IndexPlan.lines``). The array is a word of the m-fold
    power exactly when the result is all zero.
    """
    plan = index_plan(entries.shape[0], entries.ndim)
    return base.syndrome(entries.reshape(-1)[plan.lines])


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

    def flattened(self) -> LinearCode:
        """The same code as a flat [n^m, k^m] linear code, its generator the
        m-fold Kronecker power of the base generator (cached)."""
        cached = getattr(self, "_flattened", None)
        if cached is None:
            generator = functools.reduce(
                lambda a, b: np.kron(a, b) % self.field.p, [self.base.G] * self.m
            )
            cached = LinearCode(self.field, generator)
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

    def plane_opinions(
        self, word: TensorWord, axes: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest (m-1)-fold-power codeword to every plane view of the first
        ``axes`` axes (all m by default), and its distance.

        Plane (b + 1, i) sits at index [b, i] of both results, so planes run
        axis by axis, coordinates ascending: ``nearest`` has shape
        (axes, n, n^(m-1)) and ``distances`` shape (axes, n). All axes*n
        views are gathered through the index plan into one oracle call. The
        last word's results are memoised on its entries' bytes, and a call
        for fewer axes is served from their prefix, so the tester and the
        analyzer share them; the arrays are read-only.
        """
        self.check_shape(word)
        m, n = self.m, self.n
        axes = m if axes is None else axes
        if not 1 <= axes <= m:
            raise ShapeError(f"asked for planes of {axes} axes of a {m}-axis code")
        check_search(self.field.p, self.base.k ** (m - 1))  # before the flat code is built
        key = word.entries.tobytes()
        memo = getattr(self, "_plane_memo", None)
        if memo is not None and memo[0] == key and memo[1].shape[0] >= axes:
            return memo[1][:axes], memo[2][:axes]
        views = word.entries.reshape(-1)[index_plan(n, m).views[: axes * n]]
        nearest, distances, _ = self.sub().flattened().nearest_batch(views)
        nearest, distances = nearest.reshape(axes, n, -1), distances.reshape(axes, n)
        nearest.flags.writeable = distances.flags.writeable = False
        self._plane_memo = (key, nearest, distances)
        return nearest, distances

    def distance_to(self, word: TensorWord) -> int:
        """Exact Hamming distance from the word to the code (brute force)."""
        self.check_shape(word)
        check_search(self.field.p, self.dimension)  # before the flat code is built
        return int(self.flattened().nearest_batch(word.flat())[1][0])


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
    if not 1 <= m <= MAX_AXES or n < 0 or exceeds_cap(n, m, FILE_CAP):
        raise ValueError(
            f"header declares an {n}^{m} tensor; files hold 1 to {MAX_AXES} axes "
            f"and at most {FILE_CAP} entries"
        )
    values = fh.read().split()
    if len(values) != n**m:
        raise ValueError(f"expected {n ** m} entries, found {len(values)}")
    return TensorWord(field, field.parse(values).reshape((n,) * m))
