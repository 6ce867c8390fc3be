"""Linear [n, k, d] codes over GF(p).

A :class:`LinearCode` keeps a canonical (RREF) generator matrix together
with a parity-check matrix, and offers encoding, membership, restriction,
duals, exhaustive distance / nearest-codeword oracles, erasure decoding,
and bounded-distance decoding. All exhaustive searches are guarded by
explicit capacity caps and raise :class:`CapacityError` rather than
silently taking forever.
"""

from __future__ import annotations

import io
import itertools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapacityError, ShapeError, ZeroCodeError
from .field import PrimeField, rref, solve

ENUM_CAP = 1 << 24  # max p**k for streaming codeword enumeration
CODEBOOK_CAP = 1 << 20  # max p**k materialized as one dense array
SYNDROME_CAP = 1 << 22  # max p**(n-k) for syndrome-table decoding
PATTERN_CAP = 1 << 20  # max error patterns enumerated for a coset table
FILE_CAP = 1 << 24  # max entries a code or tensor file header may declare
_BLOCK = 1 << 14


class ErasureFailure(Enum):
    """Outcomes of erasure decoding that carry no codeword."""

    AMBIGUOUS = "ambiguous"
    INCONSISTENT = "inconsistent"


AMBIGUOUS = ErasureFailure.AMBIGUOUS
INCONSISTENT = ErasureFailure.INCONSISTENT


def hamming_distance(a, b) -> int:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


@dataclass(frozen=True)
class PartialWord:
    """A length-n word with some positions erased.

    ``values`` holds field entries (arbitrary where erased) and ``known``
    marks the non-erased positions.
    """

    values: np.ndarray
    known: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        known = np.asarray(self.known, dtype=bool)
        if values.shape != known.shape or values.ndim != 1:
            raise ShapeError("values and known must be 1-d arrays of equal length")
        if values.size > 0 and not known.any():
            raise ValueError("a nonempty partial word needs at least one known entry")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "known", known)

    @classmethod
    def from_optional(cls, entries) -> PartialWord:
        """Build from a sequence where ``None`` marks an erasure."""
        known = np.array([e is not None for e in entries], dtype=bool)
        values = np.array([0 if e is None else int(e) for e in entries], dtype=np.int64)
        return cls(values, known)

    @property
    def n(self) -> int:
        return self.values.shape[0]


class LinearCode:
    """A k-dimensional subspace of GF(p)^n given by a generator matrix.

    The stored generator is the RREF of the input rows, so two codes with
    the same row space compare equal. The parity-check matrix ``H``
    satisfies ``G H^T = 0`` and has full rank n - k.
    """

    def __init__(self, field: PrimeField, generator) -> None:
        G, pivots, rank = rref(field, generator)
        if rank == 0:
            raise ZeroCodeError("generator matrix has rank 0; codes need k >= 1")
        self.field = field
        self.G = G[:rank]
        self.n = self.G.shape[1]
        self.k = rank
        self._pivots = pivots
        self.H = self._parity_check(self.G, pivots)
        self._distance: int | None = None
        self._codebook: np.ndarray | None = None
        self._coset_tables: dict[int, dict[bytes, np.ndarray]] = {}

    @classmethod
    def from_generator(cls, p, generator) -> LinearCode:
        field = p if isinstance(p, PrimeField) else PrimeField(p)
        return cls(field, generator)

    def _parity_check(self, G: np.ndarray, pivots: list[int]) -> np.ndarray:
        # Standard-form complement: with G[:, pivots] = I_k, the checks are
        # H[:, free] = I and H[:, pivots] = -A.T where A = G[:, free].
        p = self.field.p
        n, k = self.n, self.k
        free = [c for c in range(n) if c not in pivots]
        H = np.zeros((n - k, n), dtype=np.int64)
        if n - k == 0:
            return H
        A = G[:, free]
        H[np.arange(n - k), free] = 1
        H[:, pivots] = (-A.T) % p
        return H

    # -- basic descriptors ------------------------------------------------

    @property
    def p(self) -> int:
        return self.field.p

    def __repr__(self) -> str:
        d = f",{self._distance}" if self._distance is not None else ""
        return f"LinearCode([{self.n},{self.k}{d}] over GF({self.p}))"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.n == other.n
            and np.array_equal(self.G, other.G)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.G.tobytes()))

    def num_codewords(self) -> int:
        return self.p**self.k

    # -- encoding and membership ------------------------------------------

    def encode(self, message) -> np.ndarray:
        """Map a length-k message (or a batch of them) to x @ G."""
        x = self.field.validate(np.asarray(message))
        if x.shape[-1] != self.k:
            raise ShapeError(f"message length {x.shape[-1]} != k = {self.k}")
        return (x @ self.G) % self.p

    def is_codeword(self, w) -> bool:
        w = self.field.validate(np.asarray(w))
        if w.shape != (self.n,):
            raise ShapeError(f"word length {w.shape} != n = {self.n}")
        return not self.syndrome(w).any()

    def syndrome(self, w) -> np.ndarray:
        w = self.field.validate(np.asarray(w))
        if w.shape[-1] != self.n:
            raise ShapeError(f"word length {w.shape[-1]} != n = {self.n}")
        return (w @ self.H.T) % self.p

    # -- exhaustive enumeration --------------------------------------------

    def _message_block(self, start: int, count: int) -> np.ndarray:
        idx = np.arange(start, start + count, dtype=np.int64)
        msgs = np.empty((count, self.k), dtype=np.int64)
        for j in range(self.k):
            msgs[:, j] = (idx // self.p ** (self.k - 1 - j)) % self.p
        return msgs

    def codewords(self) -> np.ndarray:
        """All p**k codewords, row i encoding the i-th message in lex order."""
        if self.num_codewords() > CODEBOOK_CAP:
            raise CapacityError(
                f"codebook of {self.num_codewords()} codewords exceeds cap {CODEBOOK_CAP}"
            )
        if self._codebook is None:
            self._codebook = self.encode(self._message_block(0, self.num_codewords()))
        return self._codebook

    def minimum_distance(self) -> int:
        """Exact minimum weight over nonzero codewords (cached)."""
        if self._distance is None:
            total = self.num_codewords()
            if total > ENUM_CAP:
                raise CapacityError(
                    f"distance enumeration over {total} codewords exceeds cap {ENUM_CAP}"
                )
            best = self.n
            for start in range(0, total, _BLOCK):
                block = self.encode(self._message_block(start, min(_BLOCK, total - start)))
                weights = np.count_nonzero(block, axis=1)
                if start == 0:
                    weights = weights[1:]  # skip the zero codeword
                if weights.size:
                    best = min(best, int(weights.min()))
            self._distance = best
        return self._distance

    # -- nearest-codeword oracle --------------------------------------------

    def _block_distances(self, words: np.ndarray, block: np.ndarray) -> np.ndarray:
        t, n = words.shape
        bs = block.shape[0]
        if self.p <= 8 and t * bs * n > (1 << 22):
            # Hamming distance via one-hot inner products; exact in float64.
            matches = np.zeros((t, bs))
            for a in range(self.p):
                matches += (words == a).astype(np.float64) @ (block == a).T.astype(np.float64)
            return (n - matches).astype(np.int64)
        return (words[:, None, :] != block[None, :, :]).sum(axis=2, dtype=np.int64)

    def nearest_batch(self, words) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closest codewords to each row of ``words``.

        Returns ``(codewords, distances, message_indices)``. Ties are broken
        toward the lexicographically smallest message vector.
        """
        words = self.field.validate(np.atleast_2d(np.asarray(words)))
        if words.shape[1] != self.n:
            raise ShapeError(f"word length {words.shape[1]} != n = {self.n}")
        total = self.num_codewords()
        if total > ENUM_CAP:
            raise CapacityError(
                f"nearest-codeword search over {total} codewords exceeds cap {ENUM_CAP}"
            )
        t = words.shape[0]
        best_d = np.full(t, self.n + 1, dtype=np.int64)
        best_i = np.zeros(t, dtype=np.int64)
        for start in range(0, total, _BLOCK):
            count = min(_BLOCK, total - start)
            block = self.encode(self._message_block(start, count))
            dists = self._block_distances(words, block)
            d = dists.min(axis=1)
            i = dists.argmin(axis=1)
            better = d < best_d
            best_d[better] = d[better]
            best_i[better] = start + i[better]
        msgs = np.empty((t, self.k), dtype=np.int64)
        for j in range(self.k):
            msgs[:, j] = (best_i // self.p ** (self.k - 1 - j)) % self.p
        return self.encode(msgs), best_d, best_i

    def nearest_codeword(self, w) -> tuple[np.ndarray, int]:
        nearest, dists, _ = self.nearest_batch(np.asarray(w)[None, :])
        return nearest[0], int(dists[0])

    def distance_to_code(self, w) -> int:
        return self.nearest_codeword(w)[1]

    # -- derived codes -------------------------------------------------------

    def restrict(self, coords) -> LinearCode:
        """The code {c|_S : c in C} on the given sorted coordinate subset."""
        S = sorted(set(int(i) for i in coords))
        if not S:
            raise ShapeError("restriction needs a nonempty coordinate set")
        if S[0] < 0 or S[-1] >= self.n:
            raise ShapeError(f"coordinates out of range [0, {self.n})")
        return LinearCode(self.field, self.G[:, S])

    def dual(self) -> LinearCode:
        """The code of all words orthogonal to every codeword."""
        if self.k == self.n:
            raise ZeroCodeError("the dual of the full space is the zero code")
        return LinearCode(self.field, self.H)

    # -- decoding ------------------------------------------------------------

    def erasure_decode(self, partial: PartialWord) -> np.ndarray | ErasureFailure:
        """Complete a partial word to the unique agreeing codeword.

        Solves x @ G = w on the known coordinates. Returns the codeword if
        it is unique, AMBIGUOUS if several codewords agree, INCONSISTENT if
        none does. With at most d - 1 erasures of a true codeword the
        completion is always that codeword.
        """
        if partial.n != self.n:
            raise ShapeError(f"partial word length {partial.n} != n = {self.n}")
        known = partial.known
        A = self.G[:, known].T
        b = partial.values[known] % self.p
        result = solve(self.field, A, b)
        if result is None:
            return INCONSISTENT
        x, homogeneous = result
        if homogeneous.shape[0] > 0:
            return AMBIGUOUS
        return self.encode(x)

    def _coset_table(self, radius: int) -> dict[bytes, np.ndarray]:
        """Syndrome -> minimal-weight error pattern, for weights <= radius."""
        if radius not in self._coset_tables:
            table: dict[bytes, np.ndarray] = {}
            p, n = self.p, self.n
            for weight in range(radius + 1):
                for positions in itertools.combinations(range(n), weight):
                    for values in itertools.product(range(1, p), repeat=weight):
                        e = np.zeros(n, dtype=np.int64)
                        e[list(positions)] = values
                        key = self.syndrome(e).tobytes()
                        table.setdefault(key, e)
            self._coset_tables[radius] = table
        return self._coset_tables[radius]

    def _pattern_count(self, radius: int) -> int:
        return sum(
            math.comb(self.n, w) * (self.p - 1) ** w for w in range(radius + 1)
        )

    def bounded_distance_decode(self, w, radius: int) -> np.ndarray | None:
        """The unique codeword within ``radius`` of ``w``, else None.

        Uniqueness is guaranteed for radius <= floor((d-1)/2); for larger
        radii some codeword within range is returned. Uses a syndrome table
        when the syndrome space and pattern count are small, otherwise the
        exhaustive nearest-codeword search.
        """
        w = self.field.validate(np.asarray(w))
        if w.shape != (self.n,):
            raise ShapeError(f"word length {w.shape} != n = {self.n}")
        syndrome_ok = (
            self.p ** (self.n - self.k) <= SYNDROME_CAP
            and self._pattern_count(radius) <= PATTERN_CAP
        )
        if syndrome_ok:
            table = self._coset_table(radius)
            e = table.get(self.syndrome(w).tobytes())
            if e is None:
                return None
            return (w - e) % self.p
        if self.num_codewords() <= ENUM_CAP:
            codeword, dist = self.nearest_codeword(w)
            return codeword if dist <= radius else None
        raise CapacityError(
            "bounded-distance decoding infeasible: syndrome and enumeration caps exceeded"
        )

    def unique_decoding_radius(self) -> int:
        return (self.minimum_distance() - 1) // 2


# -- named families ------------------------------------------------------------


def parity_code(n: int, p: int = 2) -> LinearCode:
    """[n, n-1, 2] code of words whose entries sum to zero."""
    if n < 2:
        raise ShapeError("parity codes need n >= 2")
    field = PrimeField(p)
    G = np.zeros((n - 1, n), dtype=np.int64)
    G[:, : n - 1] = np.eye(n - 1, dtype=np.int64)
    G[:, n - 1] = p - 1
    return LinearCode(field, G)


def repetition_code(n: int, p: int = 2) -> LinearCode:
    """[n, 1, n] code of constant words."""
    if n < 1:
        raise ShapeError("repetition codes need n >= 1")
    return LinearCode(PrimeField(p), np.ones((1, n), dtype=np.int64))


def hamming74() -> LinearCode:
    """The [7, 4, 3] binary Hamming code."""
    G = [
        [1, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 1, 1],
    ]
    return LinearCode(PrimeField(2), G)


def random_linear_code(n: int, k: int, p: int, seed: int) -> LinearCode:
    """A reproducible [n, k] code with generator [I_k | R], R uniform."""
    if k > n:
        raise ShapeError(f"need k <= n, got k={k}, n={n}")
    if k < 1:
        raise ZeroCodeError("codes need k >= 1")
    rng = np.random.default_rng(seed)
    G = np.zeros((k, n), dtype=np.int64)
    G[:, :k] = np.eye(k, dtype=np.int64)
    G[:, k:] = rng.integers(0, p, size=(k, n - k))
    return LinearCode(PrimeField(p), G)


# -- file format -----------------------------------------------------------------
#
# Text, UTF-8. Line 1: "p n k". Next k lines: n space-separated integers in
# [0, p), the generator rows. A rank-deficient generator is accepted with a
# warning; the code's k becomes the true rank.


def save_code(code: LinearCode, target) -> None:
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8") as fh:
            save_code(code, fh)
        return
    target.write(f"{code.p} {code.n} {code.k}\n")
    for row in code.G:
        target.write(" ".join(str(int(v)) for v in row) + "\n")


def load_code(source) -> LinearCode:
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            return load_code(fh)
    return _parse_code(source)


def parse_code(text: str) -> LinearCode:
    return _parse_code(io.StringIO(text))


def _parse_code(fh) -> LinearCode:
    header = fh.readline().split()
    if len(header) != 3:
        raise ValueError("code file must start with a 'p n k' header line")
    p, n, k = (int(v) for v in header)
    field = PrimeField(p)  # rejects non-prime moduli
    if n * k > FILE_CAP:
        raise ValueError(f"header declares {n * k} generator entries, above the cap {FILE_CAP}")
    values = fh.read().split()
    if len(values) != n * k:
        raise ValueError(f"expected {n * k} generator entries, found {len(values)}")
    code = LinearCode(field, field.parse(values).reshape(k, n))
    if code.k != k:
        warnings.warn(
            f"generator rows have rank {code.k}, not the declared k={k}; "
            f"using the true rank",
            stacklevel=2,
        )
    return code
