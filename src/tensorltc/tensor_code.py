"""m-wise tensor products of a linear code, and the index geometry they live on.

A word of the m-fold product is an n x ... x n array (m axes) over GF(p);
it belongs to the product code exactly when every axis-parallel line is a
codeword of the base code. Axes are numbered 1..m with axis 1 the slowest
(row-major), coordinates are 0-based.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ShapeError
from .field import PrimeField
from .linear_code import FILE_CAP, ErasureFailure, LinearCode, check_search, exceeds_cap

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

    @classmethod
    def _from_valid(cls, field: PrimeField, entries: np.ndarray) -> TensorWord:
        """A word over entries this package made valid (int64 symbols in
        [0, p), equal axes): encoder output, or a word of a validated stack.
        Nothing is rechecked; the check is about a fifth of a small encode."""
        word = object.__new__(cls)
        object.__setattr__(word, "field", field)
        object.__setattr__(word, "entries", entries)
        return word

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


# The index arrays of an n^m cube depend only on (n, m), are cached per shape
# and shared by every code and word of it; a few shapes cover a run. Each is
# a read-only, C-ordered ``np.intp`` array, so a gather through it needs no
# conversion, and an array above PLAN_CAP is refused before it is allocated.
PLAN_CACHE = 16
PLAN_CAP = 1 << 26  # max entries of one index array: 512 MiB of intp


def check_index_size(n: int, m: int, per_point: int | None = None) -> None:
    """Refuse an index array of ``per_point`` entries per point of the n^m
    cube (m, the plane views', by default) above PLAN_CAP."""
    entries = (m if per_point is None else per_point) * n**m
    if entries > PLAN_CAP:
        raise CapacityError(
            f"an index array of {entries} entries for the {n}^{m} cube exceeds cap {PLAN_CAP}"
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=PLAN_CACHE)
def plane_index(n: int, m: int) -> np.ndarray:
    """Shape (m*n, n^(m-1)): row b*n + i lists plane (b + 1, i)'s points,
    in row-major order of the other m - 1 coordinates, so column j of
    rows b*n .. b*n + n - 1 is the j-th line parallel to axis b + 1."""
    check_index_size(n, m)
    grid = np.arange(n**m, dtype=np.intp).reshape((n,) * m)
    return _read_only(np.stack([np.moveaxis(grid, b, 0) for b in range(m)]).reshape(m * n, -1))


@functools.lru_cache(maxsize=PLAN_CACHE)
def point_index(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gather, pairs, pair_cell), the per-point arrays of the disagreement
    analysis; axis pairs (b, c), b < c, in ``itertools.combinations`` order.

    - gather, shape (m, n^m): where, in an (m, n, n^(m-1)) stack of plane
      opinions read flat, plane (b + 1, x_b)'s opinion at point x sits;
    - pairs, shape (2, P): the axes b < c of each pair;
    - pair_cell, shape (P, n^m): q*n^2 + x_b*n + x_c, the cell of pair
      q = (b, c) that holds point x.
    """
    pairs = np.array(list(itertools.combinations(range(m), 2)), dtype=np.intp).reshape(-1, 2).T
    check_index_size(n, m, max(m, pairs.shape[1]))  # the coordinates or the cells
    grid, size = np.arange(n**m, dtype=np.intp).reshape((n,) * m), n**m
    gather = np.stack([np.moveaxis(grid, 0, b).reshape(-1) + b * size for b in range(m)])
    coords, (b, c) = np.indices((n,) * m, dtype=np.intp).reshape(m, -1), pairs
    q = np.arange(len(b), dtype=np.intp)[:, None]
    return tuple(map(_read_only, (gather, pairs.copy(), (q * n + coords[b]) * n + coords[c])))


def line_syndromes(base: LinearCode, entries: np.ndarray, m: int | None = None) -> np.ndarray:
    """Syndromes of every axis-parallel line of a validated m-axis array,
    or of a (W, n, ..., n) stack of them.

    Shape (m, n - k, n^(m-1) * W), W = 1 for one array: column [a, :, j * W
    + w] is the syndrome of line j of word w parallel to (0-based) axis a,
    lines in row-major order of the other m - 1 axes, read as the columns
    of the axis's plane views. A word is in the m-fold power exactly when
    its columns are all zero.
    """
    n, ndim = entries.shape[-1], entries.ndim
    m = m or ndim
    views = plane_index(n, m)
    # one array: a flat gather costs a third of a stack's
    lines = entries.reshape(-1)[views] if ndim == m else entries.reshape(-1, n**m).T[views]
    return (base.H @ lines.reshape(m, n, -1)) % base.p


def complete_subcube(
    base: LinearCode, values: np.ndarray, axis_sets
) -> tuple[int, ErasureFailure] | None:
    """Complete an m-axis array known on S_1 x ... x S_m, in place.

    ``axis_sets[a]`` lists the kept coordinates of 0-based axis a, as a
    sequence or an integer array of coordinates in [0, n). Axis by axis,
    every line along the axis whose later coordinates lie in their sets is
    erasure-decoded from the kept coordinates, all in one batch, lines in
    row-major order of the other coordinates; an axis whose set covers all
    n coordinates is skipped. Returns None once every axis is done, else
    (axis, status) of the first failing line, with ``values`` partly
    written.
    """
    n = values.shape[0]
    sets = [np.asarray(s, dtype=np.intp) for s in axis_sets]
    for axis, keep in enumerate(sets):
        # skip when every coordinate is kept; a duplicate never stands in for one
        if keep.size >= n and np.count_nonzero(np.bincount(keep, minlength=n)) == n:
            continue
        known = np.zeros(n, dtype=bool)
        known[keep] = True
        # whole earlier axes, then the product of the later axes' sets
        index = (slice(None),) * (axis + 1) + np.ix_(*map(np.sort, sets[axis + 1 :]))
        lines = np.moveaxis(values[index], axis, -1)
        completed, status = base.erasure_decode_batch(lines.reshape(-1, n), known)
        failure = next((s for s in status if s is not None), None)
        if failure is not None:
            return axis, failure
        values[index] = np.moveaxis(completed.reshape(lines.shape), -1, axis)
    return None


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
        """Encode k^m symbols: ``encode_batch`` of a one-row stack."""
        messages = np.asarray(message).reshape(1, -1)
        return TensorWord._from_valid(self.field, self.encode_batch(messages, counter)[0])

    def encode_batch(self, messages, counter: EncodeCounter | None = None) -> np.ndarray:
        """Encode each row of a (W, k^m) message array: shape (W, n, ..., n).

        Each message is viewed as a k x ... x k array and every line along
        one axis at a time, of all W messages, is encoded by one product,
        last axis first; the counter grows by the lines each product encodes.
        """
        entries = self.field.validate(np.asarray(messages))
        if entries.ndim != 2 or entries.shape[1] != self.dimension:
            raise ShapeError(f"message length {entries.shape[-1]} != k^m = {self.dimension}")
        base, words = self.base, entries.shape[0]
        for axis in reversed(range(self.m)):
            # axes before ``axis`` still hold k message symbols, later ones n
            lines = entries.reshape(words * base.k**axis, base.k, -1)
            if counter is not None:
                counter.base_calls += lines.shape[0] * lines.shape[2]
            entries = (base.G.T @ lines) % base.p
        return entries.reshape((words,) + (self.n,) * self.m)

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
        views are gathered through ``plane_index`` into one oracle call. The
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
        views = word.entries.reshape(-1)[plane_index(n, m)[: axes * n]]
        nearest, distances, _ = self.sub().flattened().nearest_batch(views)
        nearest, distances = nearest.reshape(axes, n, -1), distances.reshape(axes, n)
        nearest.flags.writeable = distances.flags.writeable = False
        self._plane_memo = (key, nearest, distances)
        return nearest, distances


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
    """Read a tensor file from a path or an open text handle."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            return load_tensor(fh)
    header = source.readline().split()
    if len(header) != 3:
        raise ValueError("tensor file must start with a 'p m n' header line")
    p, m, n = (int(v) for v in header)
    field = PrimeField(p)
    if not 1 <= m <= MAX_AXES or n < 0 or exceeds_cap(n, m, FILE_CAP):
        raise ValueError(
            f"header declares an {n}^{m} tensor; files hold 1 to {MAX_AXES} axes "
            f"and at most {FILE_CAP} entries"
        )
    values = source.read().split()
    if len(values) != n**m:
        raise ValueError(f"expected {n ** m} entries, found {len(values)}")
    return TensorWord(field, field.parse(values).reshape((n,) * m))
