"""Seeded noise channels and word generators for experiments.

Every function is deterministic given its seed; channels never leave the
field's value range. A word's draws (``word_draws``) are made apart from
building it (``build_words``), so many words are built as one stack.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor_code import PlaneIndex, TensorCode, TensorWord, plane_index


def check_errors(t: int, size: int) -> None:
    """Refuse an error count outside [0, size]."""
    if not 0 <= t <= size:
        raise ShapeError(f"error count {t} outside [0, {size}]")


def _error_draws(size: int, t: int, p: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``t`` distinct positions below ``size`` and a nonzero offset for each."""
    check_errors(t, size)
    rng = np.random.default_rng(seed)
    return rng.choice(size, size=t, replace=False), rng.integers(1, p, size=t)


def _add_errors(words: np.ndarray, positions, offsets, p: int) -> np.ndarray:
    """A copy of a (W, ...) stack with row w's offsets added at its flat positions."""
    flat = words.reshape(len(words), -1).copy()
    rows = np.arange(len(flat))[:, None]
    flat[rows, positions] = (flat[rows, positions] + offsets) % p
    return flat.reshape(words.shape)


def erase_planes(
    word: TensorWord, planes: list[PlaneIndex]
) -> tuple[TensorWord, tuple[tuple[int, ...], ...]]:
    """Zero out whole planes and report the surviving coordinate sets.

    Returns (masked word, per-axis surviving coordinates); entries outside
    the surviving product subcube are untrusted.
    """
    n, m = word.n, word.m
    erased = set()
    for pl in planes:
        if not 1 <= pl.axis <= m or not 0 <= pl.coord < n:
            raise ShapeError(f"plane {pl} outside a {m}-axis cube of side {n}")
        erased.add((pl.axis, pl.coord))
    entries = word.entries.copy()
    entries.reshape(-1)[plane_index(n, m)[[(b - 1) * n + i for b, i in erased]]] = 0
    sets = tuple(tuple(i for i in range(n) if (b, i) not in erased) for b in range(1, m + 1))
    return TensorWord._from_valid(word.field, entries), sets


def word_draws(code: TensorCode, mode: str, t: int, seed: int) -> tuple:
    """One word's random choices in mode ``random``, ``errors`` (``t`` of
    them) or ``planted``: ``seed``'s generator draws the word, or the
    message, then a planted word's donor message and plane (axis 1..m,
    coordinate); ``seed + 1``'s draws the error positions and offsets."""
    rng = np.random.default_rng(seed)
    p = code.field.p
    if mode == "random":
        return (rng.integers(0, p, size=(code.n,) * code.m),)
    first = rng.integers(0, p, size=code.dimension)
    if mode == "errors":
        return (first, *_error_draws(code.blocklength, t, p, seed + 1))
    second = rng.integers(0, p, size=code.dimension)
    while (second == first).all():
        second = rng.integers(0, p, size=code.dimension)
    return first, second, int(rng.integers(1, code.m + 1)), int(rng.integers(0, code.n))


def build_words(code: TensorCode, mode: str, draws: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """(clean, words): the (W, n, ..., n) stacks of W words' draws in the
    field's narrow dtype, clean holding the codewords before their errors
    in mode ``errors`` and the words otherwise. A planted word is a
    codeword with one plane overwritten by another codeword's, which makes
    plane opinions disagree."""
    if mode == "random":
        words = np.stack([d[0] for d in draws], dtype=code.field.dtype, casting="unsafe")
        return words, words
    columns = [np.stack(c) for c in zip(*draws)]
    clean = code.encode_batch(columns[0])
    if mode == "errors":
        return clean, _add_errors(clean, columns[1], columns[2], code.field.p)
    donors = code.encode_batch(columns[1])
    axes, coords = columns[2], columns[3]
    for axis in np.unique(axes).tolist():
        rows = np.flatnonzero(axes == axis)
        planes = np.moveaxis(donors, axis, 1)[rows, coords[rows]]
        np.moveaxis(clean, axis, 1)[rows, coords[rows]] = planes
    return clean, clean


def random_word(code: TensorCode, seed: int) -> TensorWord:
    """A uniformly random word of the code's shape (rarely a codeword)."""
    return TensorWord(code.field, word_draws(code, "random", 0, seed)[0])


def random_codeword(code: TensorCode, seed: int) -> TensorWord:
    """The codeword of a random message (``codeword_plus_errors`` with none)."""
    return codeword_plus_errors(code, 0, seed)[0]


def codeword_plus_errors(code: TensorCode, t: int, seed: int) -> tuple[TensorWord, TensorWord]:
    """A random codeword and a copy with exactly t entries corrupted."""
    clean, noisy = build_words(code, "errors", [word_draws(code, "errors", t, seed)])
    return tuple(TensorWord(code.field, words[0]) for words in (clean, noisy))


def planted_word(code: TensorCode, seed: int) -> TensorWord:
    """One plane of a random codeword overwritten with another codeword's
    plane (see ``build_words``)."""
    words = build_words(code, "planted", [word_draws(code, "planted", 0, seed)])[1]
    return TensorWord(code.field, words[0])
