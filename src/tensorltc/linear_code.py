"""Linear [n, k, d] codes over GF(p).

A :class:`LinearCode` keeps a canonical (RREF) generator matrix and its
pivots, builds a parity-check matrix on first use, and offers encoding,
membership, exhaustive distance / nearest-codeword oracles, erasure
decoding, and bounded-distance decoding. The exhaustive searches and
``codewords()`` read one enumerator, which builds the codebook in packed
bit-plane form. All exhaustive searches are guarded by explicit capacity
caps and raise :class:`CapacityError` rather than silently taking forever.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapacityError, ShapeError, ZeroCodeError
from .field import PrimeField, rref

ENUM_CAP = 1 << 24  # max p**k for streaming codeword enumeration
CODEBOOK_CAP = 1 << 20  # max p**k held in memory as a (packed) codebook
SYNDROME_CAP = 1 << 22  # max p**(n-k) for syndrome-table decoding
PATTERN_CAP = 1 << 20  # max error patterns enumerated for a coset table
FILE_CAP = 1 << 24  # max entries a code or tensor file header may declare
_BLOCK = 1 << 14  # max codewords per enumerated block, or p when p is larger
_PAIRS = 1 << 16  # (word, codeword) pairs per distance chunk; keeps temporaries in cache
_BITS = 1 << np.arange(16)[:, None]  # row j picks bit j of a symbol below 2**16


class ErasureFailure(Enum):
    """Outcomes of erasure decoding that carry no codeword."""

    AMBIGUOUS = "ambiguous"
    INCONSISTENT = "inconsistent"


AMBIGUOUS = ErasureFailure.AMBIGUOUS
INCONSISTENT = ErasureFailure.INCONSISTENT


def exceeds_cap(base: int, exponent: int, cap: int = ENUM_CAP) -> bool:
    """Whether base**exponent > cap. The power is not computed for base >= 2
    and an exponent above the cap's bit length: it always exceeds the cap."""
    return (base > 1 and exponent > cap.bit_length()) or base**exponent > cap


def check_search(p: int, k: int) -> None:
    """Refuse a nearest-codeword search over more than ENUM_CAP codewords."""
    if exceeds_cap(p, k):
        raise CapacityError(
            f"nearest-codeword search over {p}^{k} codewords exceeds cap {ENUM_CAP}"
        )


def check_generator_size(n: int, k: int, source: str) -> None:
    """Refuse a k x n generator above FILE_CAP entries before it is allocated."""
    if n * k > FILE_CAP:
        raise ValueError(f"{source} declares {n * k} generator entries, above the cap {FILE_CAP}")


@dataclass(frozen=True)
class PartialWord:
    """A length-n word with some positions erased.

    ``values`` holds field entries (arbitrary where erased) and ``known``
    marks the non-erased positions.
    """

    values: np.ndarray
    known: np.ndarray


class LinearCode:
    """A k-dimensional subspace of GF(p)^n given by a generator matrix.

    The stored generator is the RREF of the input rows, so two codes with
    the same row space compare equal; ``pivots`` are its read-only pivot
    columns, an information set. The parity-check matrix ``H`` satisfies
    ``G H^T = 0`` and has full rank n - k.
    """

    def __init__(self, field: PrimeField, generator) -> None:
        G, pivots, rank = rref(field, generator)
        if rank == 0:
            raise ZeroCodeError("generator matrix has rank 0; codes need k >= 1")
        self._set(field, G[:rank], pivots)

    @classmethod
    def _from_rref(cls, field: PrimeField, G: np.ndarray, pivots) -> LinearCode:
        """A code over an int64 generator this package made in RREF, of
        nonzero rank, with these pivot columns. Nothing is row-reduced or
        rechecked."""
        code = object.__new__(cls)
        code._set(field, G, pivots)
        return code

    def _set(self, field: PrimeField, G: np.ndarray, pivots) -> None:
        self.field = field
        self.G = G
        self.k, self.n = G.shape
        self.pivots = np.array(pivots, dtype=np.intp)  # G[:, pivots] = I_k
        self.pivots.flags.writeable = False
        self._distance: int | None = None
        self._codebook: np.ndarray | None = None
        self._packed: list[tuple[int, np.ndarray]] | None = None
        self._coset_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @functools.cached_property
    def H(self) -> np.ndarray:
        """The parity-check matrix, built on first use: with G[:, pivots] =
        I_k, H[:, free] = I and H[:, pivots] = -G[:, free].T."""
        free = np.delete(np.arange(self.n), self.pivots)
        H = np.zeros((self.n - self.k, self.n), dtype=np.int64)
        H[np.arange(free.size), free] = 1
        H[:, self.pivots] = (-self.G[:, free].T) % self.p
        return H

    @functools.cached_property
    def _narrow_H(self) -> np.ndarray:
        """H in the narrowest unsigned dtype that holds n(p - 1)^2, the
        largest sum in a syndrome: its product with the field's narrow
        symbols stays narrow and cannot overflow."""
        return self.H.astype(np.min_scalar_type(self.n * (self.p - 1) ** 2))

    @functools.cached_property
    def _plane_weights(self) -> np.ndarray:
        """2**j for bit-plane j in the field's dtype, which holds their sum."""
        return _BITS[: (self.p - 1).bit_length(), 0].astype(self.field.dtype)

    def _checks(self, words: np.ndarray) -> np.ndarray:
        """The H that ``words`` are multiplied by without a cast: narrow for
        the field's narrow symbols, int64 for int64 words."""
        return self._narrow_H if words.dtype == self.field.dtype else self.H

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

    def syndrome(self, w) -> np.ndarray:
        w = self.field.validate(np.asarray(w))
        if w.shape[-1] != self.n:
            raise ShapeError(f"word length {w.shape[-1]} != n = {self.n}")
        return (w @ self.H.T) % self.p

    # -- exhaustive enumeration --------------------------------------------

    def _blocks(self):
        """Every codeword in message order, packed: ``(start, columns)``
        pairs, where ``columns`` is the (planes, ceil(n/64), count) bit-plane
        form of ``count`` consecutive codewords (see :meth:`_pack`).

        A block adds one prefix codeword, from the first k - r generator
        rows, to the suffix codebook of the last r rows (the largest r >= 1
        with p**r <= _BLOCK). The suffix is built once from the packed
        multiples of those rows: it starts as the p multiples of the last
        row, not as the zero codeword, which saves an add over p columns,
        and each earlier row is prepended as the most significant digit by
        adding all p of its multiples to every suffix codeword at once.
        Every add is :meth:`_add` on packed planes, so no codeword is held
        as symbols.
        """
        p, k, n = self.p, self.k, self.n
        r = 1
        while r < k and p ** (r + 1) <= _BLOCK:
            r += 1
        packed = self._pack((np.arange(p)[:, None] * self.G[k - r :, None, :] % p).reshape(-1, n))
        shape = packed.shape[1:]  # (planes, ceil(n/64))
        # row j's multiples as (planes, words, p, 1), the suffix as (planes, words, 1, count)
        multiples = packed.reshape(r, p, *shape, 1).transpose(0, 2, 3, 1, 4)
        suffix = multiples[-1].reshape(*shape, 1, p)
        for row in multiples[-2::-1]:
            suffix = self._add(row, suffix).reshape(*shape, 1, -1)
        suffix = np.ascontiguousarray(suffix.reshape(*shape, -1))
        if r == k:
            yield 0, suffix
            return
        for b, prefix in enumerate(itertools.product(range(p), repeat=k - r)):
            offset = self._pack((np.array(prefix) @ self.G[: k - r])[None] % p)
            yield b * suffix.shape[-1], self._add(offset.transpose(1, 2, 0), suffix)

    def codewords(self) -> np.ndarray:
        """All p**k codewords, row i encoding the i-th message in lex order,
        in the field's narrow dtype: allocated once, each packed block
        unpacked into its own rows (see :meth:`_unpack_columns`), cached."""
        if exceeds_cap(self.p, self.k, CODEBOOK_CAP):
            raise CapacityError(
                f"codebook of {self.p}^{self.k} codewords exceeds cap {CODEBOOK_CAP}"
            )
        if self._codebook is None:
            codebook = np.empty((self.num_codewords(), self.n), dtype=self.field.dtype)
            for start, columns in self._packed_blocks():
                self._unpack_columns(columns, codebook[start : start + columns.shape[-1]])
            self._codebook = codebook
        return self._codebook

    def minimum_distance(self) -> int:
        """Exact minimum weight over nonzero codewords (cached): the least
        popcount of the OR over planes of a packed codeword."""
        if self._distance is None:
            check_search(self.p, self.k)
            distance = self.n
            for start, columns in self._packed_blocks():
                weights = np.bitwise_count(functools.reduce(np.bitwise_or, columns)).sum(axis=0)
                # block 0 starts with the zero codeword; every block has p >= 2 columns
                distance = min(distance, int((weights[1:] if start == 0 else weights).min()))
            self._distance = distance
        return self._distance

    # -- nearest-codeword oracle --------------------------------------------

    def _pack(self, words: np.ndarray) -> np.ndarray:
        """Bit-plane form of (t, n) symbols: (t, planes, ceil(n/64)) uint64.

        Plane j holds bit j of every symbol, so two words differ at a
        position exactly when some plane differs there. The padding bits
        past position n are zero. The bits are padded to whole bytes, not
        words, and widened to words after packing.
        """
        t, n = words.shape
        planes = (self.p - 1).bit_length()
        bits = np.zeros((t, planes, -(-n // 8) * 8), dtype=bool)
        if planes == 1:  # a symbol of GF(2) is its one bit
            bits[:, 0, :n] = words
        else:
            np.bitwise_and(
                words[:, None, :], _BITS[:planes], out=bits[..., :n], casting="unsafe", dtype=words.dtype
            )
        packed = np.zeros((t, planes, -(-n // 64)), dtype=np.uint64)
        # rows of whole bytes pack as one flat run, far faster than row by row
        packed.view(np.uint8)[..., : -(-n // 8)] = np.packbits(bits, bitorder="little").reshape(t, planes, -1)
        return packed

    def _add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Packed (a + b) % p of packed a and b, planes on the first axis
        and the other axes broadcast.

        XOR when p = 2. For odd p, a ripple-carry add over the planes gives
        the sum with its carry; the borrow chain of sum - p gives the bits
        that subtracting p flips, and, with the carry, whether sum >= p,
        which is where they are flipped. Padding bits stay zero: 0 + 0 < p.
        """
        if self.p == 2:
            return x ^ y
        total, carry = [x[0] ^ y[0]], x[0] & y[0]
        for xj, yj in zip(x[1:], y[1:]):
            half = xj ^ yj
            total.append(half ^ carry)
            carry = (xj & yj) | (carry & half)
        flips, borrow = [], np.zeros_like(carry)
        for j, bit in enumerate(total):
            if self.p >> j & 1:
                flips.append(~borrow)
                borrow = ~bit | borrow
            else:
                flips.append(borrow)
                borrow = ~bit & borrow
        over = carry | ~borrow
        return np.stack([bit ^ (over & flip) for bit, flip in zip(total, flips)])

    def _unpack_columns(self, columns: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (count, n) symbols of column-wise packed codewords, in the
        field's narrow dtype, written into ``out`` (allocated when None)
        _BLOCK / planes columns at a time. The only temporaries are one
        chunk transposed to (chunk, planes, words) and its unpacked bits,
        which are the symbols for p = 2 and are summed with their plane
        weights otherwise (widened by einsum for a uint16 field)."""
        rows = columns.transpose(2, 0, 1)
        if out is None:
            out = np.empty((len(rows), self.n), dtype=self.field.dtype)
        step = _BLOCK // columns.shape[0]
        for lo in range(0, len(rows), step):
            chunk = np.ascontiguousarray(rows[lo : lo + step])
            bits = np.unpackbits(chunk.view(np.uint8), axis=-1, count=self.n, bitorder="little")
            if bits.shape[1] == 1:
                out[lo : lo + step] = bits[:, 0]
            else:
                np.einsum("j,cjn->cn", self._plane_weights, bits, out=out[lo : lo + step])
        return out

    def _packed_blocks(self):
        """The packed blocks of :meth:`_blocks`: a list built on first use
        and cached when p**k <= CODEBOOK_CAP, the enumerator itself above
        that."""
        if exceeds_cap(self.p, self.k, CODEBOOK_CAP):
            return self._blocks()
        if self._packed is None:
            self._packed = list(self._blocks())
        return self._packed

    def _scan(self, words: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least distance and its first column for each packed word."""
        planes, width, count = columns.shape
        step = max(1, _PAIRS // count)
        dtype = np.min_scalar_type(self.n)
        best_d = np.empty(words.shape[0], dtype=np.int64)
        best_i = np.empty(words.shape[0], dtype=np.int64)
        for lo in range(0, words.shape[0], step):
            chunk = words[lo : lo + step]
            for w in range(width):
                diff = chunk[:, 0, w, None] ^ columns[0, w]
                for j in range(1, planes):
                    diff |= chunk[:, j, w, None] ^ columns[j, w]
                if w == 0:
                    dist = np.bitwise_count(diff).astype(dtype, copy=False)
                else:
                    dist += np.bitwise_count(diff)
            i = dist.argmin(axis=1)  # the first minimum: the smallest message
            best_i[lo : lo + step] = i
            best_d[lo : lo + step] = dist[np.arange(i.size), i]
        return best_d, best_i

    def nearest_batch(self, words) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closest codewords to each row of ``words``.

        Returns ``(codewords, distances, message_indices)``. Ties are broken
        toward the lexicographically smallest message vector.

        Words and codewords are compared in bit-plane form: each symbol is
        split into ceil(log2 p) bits, each bit position packed into uint64
        words, and the distance is the popcount of the OR over planes of
        word XOR codeword. One loop scans the packed blocks, cached up to
        CODEBOOK_CAP codewords and streamed above that: block 0 seeds each
        word's best, and a later block replaces it only when strictly
        nearer. The winners are unpacked from the blocks, not re-encoded.
        """
        words = self.field.validate(np.atleast_2d(np.asarray(words)))
        if words.shape[1] != self.n:
            raise ShapeError(f"word length {words.shape[1]} != n = {self.n}")
        codewords, distances, messages = self._nearest(words)
        return codewords.astype(np.int64), distances, messages

    def _nearest(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`nearest_batch` of valid (t, n) words of any integer dtype,
        unchecked, the codewords in the field's narrow dtype."""
        check_search(self.p, self.k)
        packed = self._pack(words)
        for start, columns in self._packed_blocks():
            d, i = self._scan(packed, columns)
            if start == 0:
                best_d, best_i, winners = d, i, columns[:, :, i]
            else:
                better = d < best_d  # a later block wins only on a strict <
                best_d[better] = d[better]
                best_i[better] = start + i[better]
                winners[:, :, better] = columns[:, :, i[better]]
        return self._unpack_columns(winners), best_d, best_i

    # -- decoding ------------------------------------------------------------

    def erasure_decode_batch(
        self, values, known
    ) -> tuple[np.ndarray, list[ErasureFailure | None]]:
        """Complete every row of ``values`` from its ``known`` positions.

        Returns ``(codewords, status)``. Status i is None when row i agrees
        with a unique codeword, AMBIGUOUS when several codewords agree and
        INCONSISTENT when none does; failed rows of ``codewords`` are zero.

        One row reduction serves every row: G with its known columns moved
        first is brought to RREF R. The r pivots that fall among the known
        columns make an information set of the known part, so a row b fits
        some codeword exactly when b[pivots] @ R[:r] repeats b on the known
        columns; the fit is unique exactly when r = k, and then that
        product is the codeword.
        """
        values = np.asarray(values, dtype=np.int64)
        known = np.asarray(known, dtype=bool)
        if values.ndim != 2 or values.shape[1] != self.n or known.shape != (self.n,):
            raise ShapeError(f"expected rows of length n = {self.n} and a length-n known mask")
        order = np.concatenate([np.flatnonzero(known), np.flatnonzero(~known)])
        R, pivots, _ = rref(self.field, self.G[:, order])
        size = int(known.sum())
        rank = sum(c < size for c in pivots)
        b = values[:, order[:size]] % self.p
        fit = (b[:, pivots[:rank]] @ R[:rank]) % self.p
        inconsistent = (fit[:, :size] != b).any(axis=1)
        codewords = np.zeros_like(values)
        if rank < self.k:
            return codewords, [INCONSISTENT if bad else AMBIGUOUS for bad in inconsistent]
        codewords[np.ix_(~inconsistent, order)] = fit[~inconsistent]
        return codewords, [INCONSISTENT if bad else None for bad in inconsistent]

    def erasure_decode(self, partial: PartialWord) -> np.ndarray | ErasureFailure:
        """Complete a partial word to the unique agreeing codeword, else
        AMBIGUOUS or INCONSISTENT (see :meth:`erasure_decode_batch`). With at
        most d - 1 erasures of a true codeword the completion is that codeword."""
        codewords, status = self.erasure_decode_batch(np.asarray(partial.values)[None], partial.known)
        return codewords[0] if status[0] is None else status[0]

    def _coset_table(self, radius: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted syndrome keys and the negated coset leader of each.

        A syndrome's key is its base-p integer, below p**(n-k). Its leader
        is the first error pattern of weight <= radius that has it, in the
        order weight, positions, values; it is held as (-leader) % p in the
        narrowest dtype that holds 2p - 2, so adding it to a narrow word
        cannot overflow. The table holds at most one row per pattern,
        whatever p**(n-k) is.
        """
        if radius not in self._coset_tables:
            p, n = self.p, self.n
            blocks = []
            for weight in range(min(radius, n) + 1):
                positions = np.array(list(itertools.combinations(range(n), weight)), int)
                values = np.array(list(itertools.product(range(1, p), repeat=weight)), int)
                # pattern (c, v) of this weight holds values[v] at positions[c]
                block = np.zeros((len(positions), len(values), n), dtype=np.int64)
                c = np.arange(len(positions))[:, None, None]
                v = np.arange(len(values))[:, None]
                block[c, v, positions[:, None, :]] = values
                blocks.append(block.reshape(-1, n))
            patterns = np.concatenate(blocks)
            keys, first = np.unique(self._syndrome_keys(patterns), return_index=True)
            negated = (-patterns[first]) % p
            self._coset_tables[radius] = (keys, negated.astype(np.min_scalar_type(2 * p - 2)))
        return self._coset_tables[radius]

    def _syndrome_keys(self, words: np.ndarray) -> np.ndarray:
        """Each valid word's syndrome read as a base-p integer below
        p**(n-k) <= SYNDROME_CAP, unchecked."""
        powers = self.p ** np.arange(self.n - self.k, dtype=np.min_scalar_type(SYNDROME_CAP))
        return (words @ self._checks(words).T) % self.p @ powers

    def _pattern_count(self, radius: int) -> int:
        return sum(
            math.comb(self.n, w) * (self.p - 1) ** w for w in range(radius + 1)
        )

    def _decode_lines(self, words: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
        """``(codewords, failed)`` for valid (t, n) words of any integer
        dtype, unchecked, the codewords in the field's narrow dtype:
        failed[i] is True, and row i is zero, when no codeword lies within
        ``radius`` of row i. The codeword is unique for radius <=
        floor((d-1)/2); above that it is some codeword in range. One
        coset-table lookup when the syndrome space and pattern count are
        small, else one pass of the nearest-codeword oracle."""
        if (
            not exceeds_cap(self.p, self.n - self.k, SYNDROME_CAP)
            and self._pattern_count(radius) <= PATTERN_CAP
        ):
            keys, negated = self._coset_table(radius)
            syndrome_keys = self._syndrome_keys(words)
            at = np.minimum(np.searchsorted(keys, syndrome_keys), keys.size - 1)
            failed = keys[at] != syndrome_keys
            codewords = ((words + negated[at]) % self.p).astype(self.field.dtype, copy=False)
        elif not exceeds_cap(self.p, self.k):
            codewords, dists, _ = self._nearest(words)
            failed = dists > radius
        else:
            raise CapacityError(
                "bounded-distance decoding infeasible: syndrome and enumeration caps exceeded"
            )
        codewords[failed] = 0
        return codewords, failed

    def bounded_distance_decode(self, w, radius: int) -> np.ndarray | None:
        """The unique codeword within ``radius`` of ``w``, else None (see
        :meth:`_decode_lines`)."""
        w = self.field.validate(np.asarray(w))
        if w.shape != (self.n,):
            raise ShapeError(f"expected a word of length n = {self.n}, got shape {w.shape}")
        codewords, failed = self._decode_lines(w[None], radius)
        return None if failed[0] else codewords[0].astype(np.int64)

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


def load_code(source) -> LinearCode:
    """Read a code file from a path or an open text handle."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            return load_code(fh)
    header = source.readline().split()
    if len(header) != 3:
        raise ValueError("code file must start with a 'p n k' header line")
    p, n, k = (int(v) for v in header)
    field = PrimeField(p)  # rejects non-prime moduli
    check_generator_size(n, k, "header")
    values = source.read().split()
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
