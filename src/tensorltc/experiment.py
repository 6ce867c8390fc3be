"""Reproducible experiment sweeps over tensor-code words.

A spec pins the base code, tensor exponent, word generation mode, trial
count, and master seed; running it twice produces byte-identical output.
Each trial derives its own integer seed from (master seed, trial index),
so results do not depend on execution order or thread count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import noise
from .decoding import DecoderConfig, decode_square
from .errors import ShapeError
from .linear_code import (
    ENUM_CAP,
    LinearCode,
    check_generator_size,
    hamming74,
    load_code,
    parity_code,
    random_linear_code,
    repetition_code,
)
from .local_testing import (
    composed_robustness_bound,
    rejection_probability_exact,
    rejection_probability_sampled,
    robustness_exact,
    robustness_lower_bound,
)
from .tensor_code import TensorCode, TensorWord, index_plan, line_syndromes

KINDS = ("robustness", "rejection", "decode")
MODES = ("random", "errors", "planted")

CSV_COLUMNS = (
    "trial",
    "kind",
    "mode",
    "m",
    "n",
    "seed",
    "true_distance",
    "distance_mode",
    "statistic",
    "value",
    "bound",
    "bound_satisfied",
)


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


def distance_lower_bound(code: TensorCode, word: TensorWord) -> int:
    """Cheap valid lower bound on the distance to the code.

    Counts violated line checks; one symbol change can repair at most
    m * (max parity-check column weight) of them.
    """
    violated = int(np.count_nonzero(line_syndromes(code.base, word.entries)))
    if violated == 0:
        return 0
    H = code.base.H
    max_col = int(np.count_nonzero(H, axis=0).max()) if H.size else 0
    if max_col == 0:
        return 0
    return max(1, math.ceil(violated / (code.m * max_col)))


def word_relative_distance(code: TensorCode, word: TensorWord) -> tuple[Fraction, str]:
    """(relative distance, mode): exact when enumerable, else a lower bound."""
    if code.field.p**code.dimension <= ENUM_CAP:
        return Fraction(code.distance_to(word), code.blocklength), "exact"
    return Fraction(distance_lower_bound(code, word), code.blocklength), "lower_bound"


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
        return [str(getattr(self, col)) for col in CSV_COLUMNS]


def _make_word(code: TensorCode, spec: ExperimentSpec, seed: int) -> TensorWord:
    if spec.mode == "random":
        return noise.random_word(code, seed)
    if spec.mode == "errors":
        return noise.codeword_plus_errors(code, spec.errors, seed)[1]
    return noise.planted_word(code, seed)


def _row(
    code: TensorCode,
    spec: ExperimentSpec,
    trial: int,
    seed: int,
    delta: Fraction,
    distance_mode: str,
    statistic: str,
    value,
    bound,
    satisfied: bool,
) -> ResultRow:
    return ResultRow(
        trial=trial,
        kind=spec.kind,
        mode=spec.mode,
        m=code.m,
        n=code.n,
        seed=seed,
        true_distance=str(delta),
        distance_mode=distance_mode,
        statistic=statistic,
        value=str(value),
        bound=str(bound),
        bound_satisfied=str(satisfied).lower(),
    )


def _robustness_trial(code: TensorCode, spec: ExperimentSpec, trial: int) -> ResultRow:
    seed = trial_seed(spec.seed, trial)
    word = _make_word(code, spec, seed)
    rho = robustness_exact(word, code, spec.axis_mode)
    delta, mode = word_relative_distance(code, word)
    bound = robustness_lower_bound(code) * delta
    return _row(code, spec, trial, seed, delta, mode, "robustness_exact", rho, bound, rho >= bound)


def _rejection_trial(code: TensorCode, spec: ExperimentSpec, trial: int) -> ResultRow:
    seed = trial_seed(spec.seed, trial)
    word = _make_word(code, spec, seed)
    delta, mode = word_relative_distance(code, word)
    bound = composed_robustness_bound(code) * delta
    if spec.sample_trials > 0:
        sampled = rejection_probability_sampled(
            word, code, spec.sample_trials, seed, spec.axis_mode
        )
        slack = Fraction(3 * sampled.standard_error).limit_denominator(10**9)
        statistic, value = "rejection_sampled", sampled.estimate
        satisfied = value + slack >= bound
    else:
        statistic, value = "rejection_exact", rejection_probability_exact(word, code, spec.axis_mode)
        satisfied = value >= bound
    return _row(code, spec, trial, seed, delta, mode, statistic, value, bound, satisfied)


def _decode_trial(code: TensorCode, spec: ExperimentSpec, trial: int) -> ResultRow:
    seed = trial_seed(spec.seed, trial)
    clean, noisy = noise.codeword_plus_errors(code, spec.errors, seed)
    cfg = DecoderConfig.for_code(code.base)
    decoded, _ = decode_square(noisy, cfg)
    success = decoded is not None and decoded == clean
    budget = cfg.error_budget()
    unique_radius = (code.base.minimum_distance() ** 2 - 1) // 2
    mode = "exact" if spec.errors <= unique_radius else "upper_bound"
    delta = Fraction(spec.errors, code.blocklength)
    satisfied = success or spec.errors > budget
    return _row(code, spec, trial, seed, delta, mode, "decode_exact", int(success), budget, satisfied)


def _fill_caches(code: TensorCode, kind: str) -> None:
    """Build every lazy cache the trials read, so that worker threads share
    them instead of racing to build their own."""
    base = code.base
    base.minimum_distance()
    if kind == "decode":
        # fills the coset table or the packed codebook, whichever decoding uses
        radius = DecoderConfig.for_code(base).radius
        base.bounded_distance_decode_batch(np.zeros((1, base.n), dtype=np.int64), radius)
        return
    if code.field.p**code.dimension <= ENUM_CAP:
        code.flattened().packed_codebook()
    if kind == "robustness":
        code.sub().flattened().packed_codebook()
        gathers = ("lines", "views")
    else:
        gathers = ("lines", "line_slice", "pair_id", "slice_place")
    plan = index_plan(code.n, code.m)
    for name in gathers:
        getattr(plan, name)


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    base = resolve_base_code(spec.base)
    if spec.kind == "decode":
        if spec.m != 2:
            raise ShapeError(
                f"decode experiments run on the square power; m must be 2, got m = {spec.m}"
            )
        code = TensorCode(base, 2)
        runner = _decode_trial
    else:
        if spec.m < 3:
            raise ShapeError(f"{spec.kind} experiments need m >= 3, got m = {spec.m}")
        code = TensorCode(base, spec.m)
        runner = _robustness_trial if spec.kind == "robustness" else _rejection_trial
    _fill_caches(code, spec.kind)
    threads = max(1, int(os.environ.get("TENSORLTC_THREADS", "1")))
    trials = range(spec.trials)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda t: runner(code, spec, t), trials))
    else:
        rows = [runner(code, spec, t) for t in trials]
    rows.sort(key=lambda r: r.trial)
    return rows


def violations(rows: list[ResultRow]) -> int:
    return sum(1 for row in rows if row.bound_satisfied == "false")


def write_csv(rows: list[ResultRow], fh) -> None:
    fh.write("schema=1\n")
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        fh.write(",".join(row.csv_values()) + "\n")


def write_json(rows: list[ResultRow], fh) -> None:
    payload = {"schema": 1, "rows": [asdict(row) for row in rows]}
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")
