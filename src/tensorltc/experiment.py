"""Reproducible experiment sweeps over tensor-code words.

A spec pins the base code, tensor exponent, word generation mode, trial
count, and master seed; running it twice produces byte-identical output.
Each trial derives its own integer seed from (master seed, trial index),
so results do not depend on execution order, chunking or thread count.
Trials run in chunks: each trial draws from its own generators, then the
chunk's words are built and scored as one (W, n, ..., n) stack.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from . import noise
from .decoding import DecoderConfig, decode_stack
from .errors import CapacityError, ShapeError
from .linear_code import (
    FILE_CAP,
    LinearCode,
    check_generator_size,
    check_search,
    exceeds_cap,
    hamming74,
    load_code,
    parity_code,
    random_linear_code,
    repetition_code,
)
from .local_testing import (
    check_draws,
    composed_robustness_bound,
    rejection_probability_exact_batch,
    rejection_probability_sampled,
    robustness_exact,
    robustness_lower_bound,
)
from .tensor_code import TensorCode, TensorWord, check_index_size, line_syndromes

KINDS = ("robustness", "rejection", "decode")
MODES = ("random", "errors", "planted")


def resolve_base_code(spec: str) -> LinearCode:
    """Build a base code from a family string or a code file.

    Families: ``parity:n``, ``repetition:n``, ``hamming74``,
    ``random:n,k,p,seed``; ``file:PATH`` is loaded from disk. A family,
    like a code file, may hold at most FILE_CAP generator entries (n * k).
    """
    if spec.startswith("file:"):
        return load_code(spec[len("file:") :])
    name, _, arg = spec.partition(":")
    if name == "parity":
        check_generator_size(int(arg), int(arg) - 1, spec)
        return parity_code(int(arg))
    if name == "repetition":
        check_generator_size(int(arg), 1, spec)
        return repetition_code(int(arg))
    if name == "hamming74":
        if arg:
            raise ValueError("hamming74 takes no parameters")
        return hamming74()
    if name == "random":
        parts = [int(v) for v in arg.split(",")]
        if len(parts) != 4:
            raise ValueError("random codes need n,k,p,seed")
        check_generator_size(parts[0], parts[1], spec)
        return random_linear_code(*parts)
    raise ValueError(f"unknown code family {spec!r}")


def trial_seed(master: int, trial: int) -> int:
    """Stable per-trial integer seed derived from the master seed."""
    return int(np.random.SeedSequence([master, trial]).generate_state(1, np.uint64)[0])


def distance_lower_bound_batch(code: TensorCode, words: np.ndarray) -> list[int]:
    """Cheap valid lower bounds on the distance to the code of each word of
    a validated (W, n, ..., n) stack.

    Counts violated line checks; one symbol change can repair at most
    m * (max parity-check column weight) of them.
    """
    syndromes = line_syndromes(code.base, words, code.m).reshape(-1, len(words))
    H = code.base.H
    repair = code.m * int(np.count_nonzero(H, axis=0).max()) if H.size else 0
    violated = np.count_nonzero(syndromes, axis=0).tolist()
    return [max(1, math.ceil(v / repair)) if v and repair else 0 for v in violated]


def word_relative_distance_batch(code: TensorCode, words: np.ndarray) -> tuple[list, str]:
    """(relative distance of each word of a validated stack, mode): exact,
    from one flat-oracle call, when enumerable, else lower bounds."""
    if not exceeds_cap(code.field.p, code.dimension):
        distances = code.flattened().nearest_batch(words.reshape(len(words), -1))[1].tolist()
        return [Fraction(d, code.blocklength) for d in distances], "exact"
    bounds = distance_lower_bound_batch(code, words)
    return [Fraction(b, code.blocklength) for b in bounds], "lower_bound"


def word_relative_distance(code: TensorCode, word: TensorWord) -> tuple[Fraction, str]:
    """(relative distance, mode): exact when enumerable, else a lower bound."""
    code.check_shape(word)
    deltas, mode = word_relative_distance_batch(code, word.entries[None])
    return deltas[0], mode


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    base: str
    m: int
    mode: str = "random"
    errors: int = 1
    trials: int = 100
    seed: int = 0
    axis_mode: str = "all"
    sample_trials: int = 0  # rejection kind: 0 = exact enumeration

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.sample_trials < 0:
            raise ValueError("sample_trials must be >= 0")


@dataclass(frozen=True)
class ResultRow:
    trial: int
    kind: str
    mode: str
    m: int
    n: int
    seed: int
    true_distance: str
    distance_mode: str
    statistic: str
    value: str
    bound: str
    bound_satisfied: str

    def csv_values(self) -> list[str]:
        return [str(getattr(self, name)) for name in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


# Most trials one experiment runs; every row stays in memory until written.
TRIALS_CAP = 1 << 20
# Entries of one chunk's stacked words; a word larger than this runs alone.
CHUNK_ENTRIES = 1 << 20
# Entries of the slice of a chunk the square decoder takes at a time; its
# temporaries, not the chunk's words, set a decode run's peak memory.
DECODE_ENTRIES = 1 << 14


def _scores(code: TensorCode, spec: ExperimentSpec, seeds, clean, words) -> list[tuple]:
    """(delta, distance mode, statistic, value, bound, satisfied) per word.
    The tester runs before the distance search, so a word too large for
    its line syndromes is refused first."""
    field = code.field
    if spec.kind == "decode":
        cfg = DecoderConfig.for_code(code.base)
        budget = cfg.error_budget()
        unique_radius = (code.base.minimum_distance() ** 2 - 1) // 2
        mode = "exact" if spec.errors <= unique_radius else "upper_bound"
        delta = Fraction(spec.errors, code.blocklength)
        size = max(1, DECODE_ENTRIES // code.blocklength)
        scores = []
        for at in range(0, len(words), size):
            stack = decode_stack(words[at : at + size], cfg)
            matches = (stack.output == clean[at : at + size]).all(axis=(1, 2)).tolist()
            for status, match in zip(stack.status, matches):
                success = status == "ok" and match
                satisfied = success or spec.errors > budget
                scores.append((delta, mode, "decode_exact", int(success), budget, satisfied))
        return scores
    slacks = [0] * len(words)
    if spec.kind == "robustness":
        statistic, coefficient = "robustness_exact", robustness_lower_bound
        values = [
            robustness_exact(TensorWord._from_valid(field, w), code, spec.axis_mode) for w in words
        ]
    elif spec.sample_trials > 0:
        statistic, coefficient = "rejection_sampled", composed_robustness_bound
        sampled = [
            rejection_probability_sampled(
                TensorWord._from_valid(field, w), code, spec.sample_trials, seed, spec.axis_mode
            )
            for seed, w in zip(seeds, words)
        ]
        values = [s.estimate for s in sampled]
        slacks = [Fraction(3 * s.standard_error).limit_denominator(10**9) for s in sampled]
    else:
        statistic, coefficient = "rejection_exact", composed_robustness_bound
        values = rejection_probability_exact_batch(words, code, spec.axis_mode)
    deltas, mode = word_relative_distance_batch(code, words)
    coefficient = coefficient(code)
    bounds = [coefficient * delta for delta in deltas]
    return [
        (delta, mode, statistic, value, bound, value + slack >= bound)
        for delta, value, slack, bound in zip(deltas, values, slacks, bounds)
    ]


def _chunk(code: TensorCode, spec: ExperimentSpec, trials: range) -> list[ResultRow]:
    """The rows of a chunk of trials. Each trial draws from its own seeds;
    the chunk's words are then built, validated and scored as one stack."""
    seeds = [trial_seed(spec.seed, trial) for trial in trials]
    clean, words = noise.build_words(
        code, spec.mode, [noise.word_draws(code, spec.mode, spec.errors, seed) for seed in seeds]
    )
    code.field.validate(words)
    return [
        ResultRow(trial, spec.kind, spec.mode, code.m, code.n, seed, str(delta), distance_mode,
                  statistic, str(value), str(bound), str(satisfied).lower())
        for trial, seed, (delta, distance_mode, statistic, value, bound, satisfied) in zip(
            trials, seeds, _scores(code, spec, seeds, clean, words)
        )
    ]


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    base = resolve_base_code(spec.base)
    if spec.kind == "decode":
        if spec.m != 2:
            raise ShapeError(
                f"decode experiments run on the square power; m must be 2, got m = {spec.m}"
            )
        if spec.mode != "errors":
            raise ValueError(
                f"decode experiments decode codewords with errors; mode must be errors, "
                f"got {spec.mode!r}"
            )
    elif spec.m < 3:
        raise ShapeError(f"{spec.kind} experiments need m >= 3, got m = {spec.m}")
    code = TensorCode(base, spec.m)
    if exceeds_cap(code.n, code.m, FILE_CAP):
        raise CapacityError(
            f"experiment words of {code.n}^{code.m} entries exceed cap {FILE_CAP}"
        )
    if spec.trials > TRIALS_CAP:
        raise CapacityError(f"{spec.trials} trials exceed cap {TRIALS_CAP}")
    if spec.kind != "decode":
        # the testers' refusals, in the order the first trial meets them,
        # before any word is drawn
        if spec.kind == "robustness":
            check_search(code.field.p, base.k ** (code.m - 1))  # the plane-view oracle
        else:
            check_draws(spec.sample_trials)  # the sampled tester's draws
        check_index_size(code.n, code.m)  # the plane views
    threads = max(1, int(os.environ.get("TENSORLTC_THREADS", "1")))
    size = max(1, CHUNK_ENTRIES // code.blocklength)
    # the first chunk builds every lazy cache the chunks share before any
    # worker starts; with threads it is trial 0 alone, and the other trials
    # make about one chunk per thread, the calling thread's included
    first = min(size, spec.trials) if threads == 1 else 1
    if threads > 1:
        size = max(1, min(size, -(-(spec.trials - first) // threads)))
    trials = range(spec.trials)
    chunks = [trials[:first]] + [trials[at : at + size] for at in range(first, spec.trials, size)]
    run = functools.partial(_chunk, code, spec)
    rows = run(chunks[0])
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            later = pool.map(run, chunks[2:])
            rows += itertools.chain.from_iterable(map(run, chunks[1:2]))
            rows += itertools.chain.from_iterable(later)
    else:
        rows += itertools.chain.from_iterable(map(run, chunks[1:]))
    return rows


def violations(rows: list[ResultRow]) -> int:
    return sum(1 for row in rows if row.bound_satisfied == "false")


def write_csv(rows: list[ResultRow], fh) -> None:
    fh.write("schema=1\n")
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        fh.write(",".join(row.csv_values()) + "\n")


def write_json(rows: list[ResultRow], fh) -> None:
    """``{"schema": 1, "rows": [...]}`` as ``json.dump`` writes it with
    indent 2 and sorted keys, one row at a time."""
    fh.write('{\n  "rows": [')
    for i, row in enumerate(rows):
        values = {name: getattr(row, name) for name in CSV_COLUMNS}
        text = json.dumps(values, indent=2, sort_keys=True).replace("\n", "\n    ")
        fh.write(("," if i else "") + "\n    " + text)
    fh.write(("\n  " if rows else "") + '],\n  "schema": 1\n}\n')
