"""Seeded noise channels and word generators for experiments.

Every function is deterministic given its seed; channels never leave the
field's value range.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor_code import PlaneIndex, TensorCode, TensorWord, index_plan


def exact_errors_channel(word: TensorWord, t: int, seed: int) -> TensorWord:
    """Change exactly ``t`` distinct positions to uniformly random
    different values, so the output is at Hamming distance exactly t."""
    if not 0 <= t <= word.size:
        raise ShapeError(f"error count {t} outside [0, {word.size}]")
    rng = np.random.default_rng(seed)
    flat = word.flat().copy()
    positions = rng.choice(word.size, size=t, replace=False)
    offsets = rng.integers(1, word.field.p, size=t)
    flat[positions] = (flat[positions] + offsets) % word.field.p
    return TensorWord(word.field, flat.reshape(word.entries.shape))


def erase_planes(
    word: TensorWord, planes: list[PlaneIndex]
) -> tuple[TensorWord, tuple[tuple[int, ...], ...]]:
    """Zero out whole planes and report the surviving coordinate sets.

    Returns (masked word, per-axis surviving coordinates); entries outside
    the surviving product subcube are untrusted.
    """
    erased_by_axis: dict[int, set[int]] = {b: set() for b in range(1, word.m + 1)}
    for pl in planes:
        if not 1 <= pl.axis <= word.m or not 0 <= pl.coord < word.n:
            raise ShapeError(f"plane {pl} outside a {word.m}-axis cube of side {word.n}")
        erased_by_axis[pl.axis].add(pl.coord)
    entries = word.entries.copy()
    views = index_plan(word.n, word.m).views
    entries.reshape(-1)[views[[(pl.axis - 1) * word.n + pl.coord for pl in planes]]] = 0
    sets = tuple(
        tuple(i for i in range(word.n) if i not in erased_by_axis[b])
        for b in range(1, word.m + 1)
    )
    return TensorWord(word.field, entries), sets


def random_word(code: TensorCode, seed: int) -> TensorWord:
    """A uniformly random word of the code's shape (rarely a codeword)."""
    rng = np.random.default_rng(seed)
    entries = rng.integers(0, code.field.p, size=(code.n,) * code.m)
    return TensorWord(code.field, entries)


def random_codeword(code: TensorCode, seed: int) -> TensorWord:
    rng = np.random.default_rng(seed)
    message = rng.integers(0, code.field.p, size=code.dimension)
    return code.encode(message)


def codeword_plus_errors(code: TensorCode, t: int, seed: int) -> tuple[TensorWord, TensorWord]:
    """A random codeword and a copy with exactly t entries corrupted."""
    clean = random_codeword(code, seed)
    return clean, exact_errors_channel(clean, t, seed + 1)


def planted_word(code: TensorCode, seed: int) -> TensorWord:
    """Overwrite one plane of a random codeword with another codeword's
    plane, creating structured disagreement between plane opinions."""
    rng = np.random.default_rng(seed)
    p = code.field.p
    first = rng.integers(0, p, size=code.dimension)
    second = first.copy()
    while np.array_equal(second, first):
        second = rng.integers(0, p, size=code.dimension)
    plane = PlaneIndex(int(rng.integers(1, code.m + 1)), int(rng.integers(0, code.n)))
    entries = code.encode(first).entries.copy()
    points = index_plan(code.n, code.m).views[(plane.axis - 1) * code.n + plane.coord]
    entries.reshape(-1)[points] = code.encode(second).entries.reshape(-1)[points]
    return TensorWord(code.field, entries)
