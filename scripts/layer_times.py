"""Per-word time of each per-word layer and of the square decoder's layers.

For m = 3, 4, 5 and both tester axis modes, prints the median and, in
parentheses, the fastest and slowest of 7 passes over 300 seeded random
parity(3)^m words, in microseconds per word, for:

- ``oracle``: the plane-view oracle, through ``robustness_exact`` in that
  axis mode (each word misses the one-word memo);
- ``inconsistency``: the disagreement report from precomputed opinions;
- ``cover`` and ``subcube``: ``verify_heavy_cover`` and
  ``heavy_free_subcube`` on precomputed reports, each pass on new report
  objects so that nothing cached by an earlier call is reused;
- ``rejection``: ``rejection_probability_exact`` in that axis mode.

The disagreement layers do not read the axis mode, so their two rows
measure the same calls.

For the square decoder it prints the same three figures over 7 passes
over 300 seeded words of each kind the decode-square benchmark decodes,
in microseconds per call or per word:

- ``rep5``, ``rep400``: repetition(50)^2 codewords with 5 (in budget) and
  400 flipped entries; ``random``: uniform binary 50 x 50 words;
  ``ham1``: hamming74^2 codewords with one flipped entry;
- ``decode_square``: the whole decoder on the word, one call per word;
- ``stack W=1``, ``stack W=10``, ``stack W=50``: ``decode_stack`` on
  stacks of 1, 10 and 50 of the same words, per word;
- ``pass1``: the line decoder pass 1 runs on the word's 2n lines, in the
  decoder's narrow symbols;
- ``pass5``: the column check of pass 5 on the word's decoded rows
  (failed rows zero), a matrix whose rows are all codewords.

For the codebook it prints the same three figures over 7 passes, in
microseconds per call:

- ``pack``: a cold enumerate-and-pack, all packed blocks of a fresh code
  object, for the flat codes of parity(3)^4 ([81, 16]) and hamming74^2
  ([49, 16]), for ``random:20,10,3,0`` over GF(3), and for a random binary
  [40, 22] code, whose 2^22 codewords are above ``CODEBOOK_CAP``, so its
  blocks are streamed and never cached;
- ``oracle``: warm ``nearest_batch`` calls on the parity(3)^4 flat code
  with 1 and with 250 seeded random words, the one-word call being the
  one an experiment trial makes;
- ``codewords``: a cold ``codewords()`` of a fresh code object whose
  packed blocks are built untimed first, so the row times the unpack
  alone, for the parity(3)^4 flat code, ``random:20,10,3,0`` and a
  GF(65521) [5, 1] code (16 bit-planes). Its last column is the traced
  peak of one such call above the size of the codebook it returns, in
  MiB (``tracemalloc``, one untimed call).

For the experiment command it prints the same three figures over 7
passes, in microseconds:

- per trial, each of the four ``tensorltc experiment`` calls of the
  experiment-cli benchmark (robustness on parity(3)^4, sampled rejection
  on parity(3)^4, exact rejection of planted parity(3)^3 words, decoding
  repetition(50)^2), run in process through ``cli.main`` over seeds
  0-4 per pass;
- per call, the one-word paths that the sweep and decode benchmarks
  time: ``TensorCode.encode`` on repetition(50)^2 and parity(3)^3
  messages and ``rejection_probability_exact`` on parity(3)^3 words,
  each over 300 seeded inputs.

For the sampled tester it prints the same three figures over 7 passes
over the same 300 random parity(3)^m words, m = 3, 4, 5, in microseconds
per word, at 10, 300 and 10,000 draws per word:

- ``exact``: ``rejection_probability_exact``, one call per word (it reads
  no draws, so its three rows measure the same calls);
- ``sampled``: ``rejection_probability_sampled``, one call per word, the
  word's index as its seed;
- ``sampled/exact``: the ratio of the two medians.

The spread between the fastest and slowest pass shows how far the host
drifts during a run; a change smaller than it is not resolved. BLAS is
pinned to one thread. The package is imported from this checkout's
``src/``.

    python3 scripts/layer_times.py                  # all three tables (about a minute)
    python3 scripts/layer_times.py --m 3 4          # a subset of the per-word table
    python3 scripts/layer_times.py --only decoder   # the decoder table alone
    python3 scripts/layer_times.py --only codebook  # the codebook table alone
    python3 scripts/layer_times.py --only experiment  # the experiment table alone
    python3 scripts/layer_times.py --only sampled   # the sampled-tester table alone
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tensorltc import TensorCode, TensorWord, hamming74, parity_code, repetition_code  # noqa: E402
from tensorltc import cli  # noqa: E402
from tensorltc.analysis import (  # noqa: E402
    compute_opinions,
    heavy_free_subcube,
    inconsistency,
    verify_heavy_cover,
)
from tensorltc.decoding import DecoderConfig, decode_square, decode_stack  # noqa: E402
from tensorltc.errors import InvariantError  # noqa: E402
from tensorltc.linear_code import random_linear_code  # noqa: E402
from tensorltc.local_testing import (  # noqa: E402
    rejection_probability_exact,
    rejection_probability_sampled,
    robustness_exact,
)
from tensorltc.noise import codeword_plus_errors, random_word  # noqa: E402

import numpy as np  # noqa: E402

WORDS = 300
PASSES = 7
LAYERS = ("oracle", "inconsistency", "cover", "subcube", "rejection")
STACK_SIZES = (1, 10, 50)  # words per decode_stack call; each divides WORDS
DECODER_LAYERS = ("decode_square", *(f"stack W={size}" for size in STACK_SIZES), "pass1", "pass5")
# kind -> (base code, flipped entries, or None for uniform random words)
DECODE_KINDS = {
    "rep5": (repetition_code(50), 5),
    "rep400": (repetition_code(50), 400),
    "random": (repetition_code(50), None),
    "ham1": (hamming74(), 1),
}
# case -> a fresh code object, built untimed before each pass
CODEBOOKS = {
    "pack parity(3)^4 flat [81,16]": lambda: TensorCode(parity_code(3), 4).flattened(),
    "pack hamming74^2 flat [49,16]": lambda: TensorCode(hamming74(), 2).flattened(),
    "pack random:20,10,3,0 [20,10]": lambda: random_linear_code(20, 10, 3, seed=0),
    "pack streamed [40,22] GF(2)": lambda: random_linear_code(40, 22, 2, seed=0),
}
# case -> a fresh code object, its packed blocks built untimed before each pass
CODEWORDS = {
    "codewords parity(3)^4 flat [81,16]": CODEBOOKS["pack parity(3)^4 flat [81,16]"],
    "codewords random:20,10,3,0 [20,10]": CODEBOOKS["pack random:20,10,3,0 [20,10]"],
    "codewords GF(65521) [5,1]": lambda: random_linear_code(5, 1, 65521, seed=0),
}
CODEBOOK_COPIES = 5  # fresh codes enumerated per pass
ORACLE_CALLS = {1: 300, 250: 4}  # words per oracle call -> calls per pass
# the experiment-cli benchmark's calls: label -> (argv without --seed/--out, trials)
EXPERIMENT_CALLS = {
    "robustness parity(3)^4 errors": (
        "--kind robustness --family parity:3 --m 4 --mode errors --errors 2", 2
    ),
    "sampled rejection parity(3)^4": (
        "--kind rejection --family parity:3 --m 4 --mode random --sample-trials 10000", 2
    ),
    "exact rejection parity(3)^3 planted": (
        "--kind rejection --family parity:3 --m 3 --mode planted", 50
    ),
    "decode repetition(50)^2 errors": (
        "--kind decode --family repetition:50 --m 2 --mode errors --errors 5", 50
    ),
}
EXPERIMENT_SEEDS = 5  # seeds per call per pass
SAMPLED_DRAWS = (10, 300, 10000)  # sampled-tester draws per word
SAMPLED_CASES = ("exact", "sampled")


def _subcube(report):
    try:
        return heavy_free_subcube(report)
    except InvariantError:
        return None


def pass_us(call, items, fresh=list) -> list[float]:
    """Each of PASSES passes of ``call`` over ``fresh(items)``, in us per
    item; ``fresh`` runs untimed before each pass."""
    times = []
    for _ in range(PASSES):
        batch = fresh(items)
        start = perf_counter()
        for item in batch:
            call(item)
        times.append((perf_counter() - start) / len(items) * 1e6)
    return times


def cell(times: list[float], width: int) -> str:
    """``median (min-max)`` of the passes, right-aligned."""
    return f"{median(times):.1f} ({min(times):.1f}-{max(times):.1f})".rjust(width)


def fresh_reports(reports):
    """New report objects over the same arrays, so that no pass reads what
    an earlier pass derived and cached on a report."""
    return [dataclasses.replace(report) for report in reports]


def layer_times(m: int, axis_mode: str) -> dict[str, list[float]]:
    code = TensorCode(parity_code(3), m)
    shape = (code.n,) * m
    rng = np.random.default_rng(m)
    words = [TensorWord(code.field, rng.integers(0, 2, size=shape)) for _ in range(WORDS)]
    tables = [compute_opinions(word, code) for word in words]
    reports = [inconsistency(word, table) for word, table in zip(words, tables)]
    return {
        "oracle": pass_us(lambda word: robustness_exact(word, code, axis_mode), words),
        "inconsistency": pass_us(lambda pair: inconsistency(*pair), list(zip(words, tables))),
        "cover": pass_us(verify_heavy_cover, reports, fresh_reports),
        "subcube": pass_us(_subcube, reports, fresh_reports),
        "rejection": pass_us(lambda word: rejection_probability_exact(word, code, axis_mode), words),
    }


def decoder_times(kind: str) -> dict[str, list[float]]:
    base, errors = DECODE_KINDS[kind]
    cfg = DecoderConfig.for_code(base)
    square = TensorCode(base, 2)
    if errors is None:
        words = [random_word(square, seed) for seed in range(WORDS)]
    else:
        words = [codeword_plus_errors(square, errors, seed)[1] for seed in range(WORDS)]
    narrow = np.min_scalar_type(base.p - 1)
    lines = [np.concatenate([word.entries, word.entries.T]).astype(narrow) for word in words]
    rows = [base._decode_lines(word.entries.astype(narrow), cfg.radius)[0] for word in words]
    times = {"decode_square": pass_us(lambda word: decode_square(word, cfg), words)}
    for size in STACK_SIZES:
        stacks = [np.stack([w.entries for w in words[at : at + size]]) for at in range(0, WORDS, size)]
        per_stack = pass_us(lambda stack: decode_stack(stack, cfg), stacks)
        times[f"stack W={size}"] = [t / size for t in per_stack]
    times["pass1"] = pass_us(lambda line: base._decode_lines(line, cfg.radius), lines)
    # the check decode_stack makes in pass 5, on one word's narrow rows
    times["pass5"] = pass_us(
        lambda out: ((base._checks(out) @ out[:, base.pivots]) % base.p).any(), rows
    )
    return times


def enumerate_and_pack(code) -> None:
    """Every packed block of ``code``; streamed blocks are dropped as they
    come, so that only the cached codes keep theirs."""
    for _ in code._packed_blocks():
        pass


def packed(make):
    """A fresh code from ``make`` with its packed blocks built."""
    code = make()
    code._packed_blocks()
    return code


def codewords_peak_mib(make) -> float:
    """The traced peak of a cold ``codewords()`` above its result, in MiB."""
    code = packed(make)
    tracemalloc.start()
    try:
        codebook = code.codewords()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - codebook.nbytes) / 2**20


def codebook_times() -> dict[str, list[float]]:
    times = {
        case: pass_us(enumerate_and_pack, [make] * CODEBOOK_COPIES, lambda makers: [m() for m in makers])
        for case, make in CODEBOOKS.items()
    }
    for case, make in CODEWORDS.items():
        times[case] = pass_us(
            lambda code: code.codewords(), [make] * CODEBOOK_COPIES, lambda makers: [packed(m) for m in makers]
        )
    flat = TensorCode(parity_code(3), 4).flattened()
    rng = np.random.default_rng(0)
    flat.nearest_batch(rng.integers(0, 2, size=(1, flat.n)))  # fills the cache
    for count, calls in ORACLE_CALLS.items():
        batches = [rng.integers(0, 2, size=(count, flat.n)) for _ in range(calls)]
        times[f"oracle parity(3)^4 flat, {count} word(s)"] = pass_us(flat.nearest_batch, batches)
    return times


def experiment_times() -> dict[str, list[float]]:
    """us per trial of each experiment call, then us per call of the
    one-word encode and exact-rejection paths."""
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "rows.csv")

        def run(call):
            args, seed = call
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["experiment", *args, "--seed", str(seed), "--out", out]) != 0:
                    raise SystemExit(f"experiment {' '.join(args)} failed")

        for label, (args, trials) in EXPERIMENT_CALLS.items():
            args = [*args.split(), "--trials", str(trials)]
            calls = [(args, seed) for seed in range(EXPERIMENT_SEEDS)]
            times[f"{label}, per trial"] = [t / trials for t in pass_us(run, calls)]
    rng = np.random.default_rng(0)
    for label, code in (("repetition(50)^2", TensorCode(repetition_code(50), 2)),
                        ("parity(3)^3", TensorCode(parity_code(3), 3))):
        messages = list(rng.integers(0, 2, size=(WORDS, code.dimension)))
        times[f"encode {label}"] = pass_us(code.encode, messages)
    cube = TensorCode(parity_code(3), 3)
    words = [random_word(cube, seed) for seed in range(WORDS)]
    times["rejection_probability_exact parity(3)^3"] = pass_us(
        lambda word: rejection_probability_exact(word, cube), words
    )
    return times


def sampled_times(m: int) -> dict[tuple[str, int], list[float]]:
    """us per word of each sampled case at each draw count, keyed (case,
    draws), on WORDS random parity(3)^m words with seeds 0..WORDS-1."""
    code = TensorCode(parity_code(3), m)
    rng = np.random.default_rng(m)
    stack = rng.integers(0, 2, size=(WORDS,) + (code.n,) * m)
    words = list(enumerate(TensorWord(code.field, entries) for entries in stack))
    exact = pass_us(lambda pair: rejection_probability_exact(pair[1], code), words)
    times = {}
    for draws in SAMPLED_DRAWS:
        times["exact", draws] = exact
        times["sampled", draws] = pass_us(
            lambda pair: rejection_probability_sampled(pair[1], code, draws, pair[0]), words
        )
    return times


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, nargs="+", default=[3, 4, 5], choices=[3, 4, 5])
    parser.add_argument("--only", choices=["words", "decoder", "codebook", "experiment", "sampled"])
    args = parser.parse_args(argv)
    if args.only in (None, "words"):
        print(f"us per word, median (min-max) of {PASSES} passes, {WORDS} parity(3)^m words")
        print(f"{'m':>2} {'axes':<12}" + "".join(f"{name:>24}" for name in LAYERS))
        for m in args.m:
            for axis_mode in ("all", "first-three"):
                times = layer_times(m, axis_mode)
                print(f"{m:>2} {axis_mode:<12}" + "".join(cell(times[name], 24) for name in LAYERS))
    if args.only in (None, "decoder"):
        print(f"us per call, median (min-max) of {PASSES} passes over {WORDS} words of each kind")
        print(f"{'kind':<8}" + "".join(f"{name:>22}" for name in DECODER_LAYERS))
        for kind in DECODE_KINDS:
            times = decoder_times(kind)
            print(f"{kind:<8}" + "".join(cell(times[name], 22) for name in DECODER_LAYERS))
    if args.only in (None, "codebook"):
        print(f"us per call, median (min-max) of {PASSES} passes; codewords: traced peak above the result")
        print(f"{'case':<38}{'us per call':>24}{'MiB above':>12}")
        for case, times in codebook_times().items():
            peak = f"{codewords_peak_mib(CODEWORDS[case]):12.2f}" if case in CODEWORDS else ""
            print(f"{case:<38}" + cell(times, 24) + peak)
    if args.only in (None, "experiment"):
        print(f"us per trial or per call, median (min-max) of {PASSES} passes")
        print(f"{'case':<48}{'us':>24}")
        for case, times in experiment_times().items():
            print(f"{case:<48}" + cell(times, 24))
    if args.only in (None, "sampled"):
        print(f"us per word, median (min-max) of {PASSES} passes, {WORDS} parity(3)^m words")
        print(f"{'m':>2} {'draws':>6}" + "".join(f"{case:>24}" for case in SAMPLED_CASES) + f"{'sampled/exact':>15}")
        for m in args.m:
            times = sampled_times(m)
            for draws in SAMPLED_DRAWS:
                ratio = median(times["sampled", draws]) / median(times["exact", draws])
                cells = "".join(cell(times[case, draws], 24) for case in SAMPLED_CASES)
                print(f"{m:>2} {draws:>6}" + cells + f"{ratio:>15.2f}")


if __name__ == "__main__":
    main()
