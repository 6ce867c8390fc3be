"""Acceptance suite: one test per exit criterion, exact tolerances.

Criteria 2, 3, 4, the certified-bound half of 5, and the exact half of 7
share one sweep over the same instance families (all single- and
double-error perturbations of every codeword of the cube code, plus ten
thousand seeded random tensors per exponent), so the expensive oracles run
once. Each test prints its own pass line; run with ``pytest -s`` to see
them.
"""

import itertools
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
import reference

from tensorltc.analysis import analyze_word
from tensorltc.decoding import DecoderConfig, decode_square
from tensorltc.experiment import word_relative_distance
from tensorltc.linear_code import (
    hamming74,
    parity_code,
    random_linear_code,
    repetition_code,
)
from tensorltc.local_testing import (
    composed_robustness_bound,
    rejection_probability_exact,
    rejection_probability_sampled,
    robustness_exact,
    robustness_lower_bound,
)
from tensorltc.noise import codeword_plus_errors, random_codeword, random_word
from tensorltc.tensor_code import EncodeCounter, PlaneIndex, TensorCode, TensorWord

RANDOM_WORDS_PER_M = 10_000
EXTENSION_TRIALS = 1_000
DECODE_TRIALS = 1_000
SAMPLED_WORDS = 100
SAMPLED_TRIALS = 10_000


def _report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"acceptance criterion {criterion} ({label}): {status}{suffix}")
    assert ok, f"criterion {criterion} ({label}) failed{suffix}"


# -- shared sweep ---------------------------------------------------------------


@dataclass
class SweepStats:
    instances: int = 0
    single_instances: int = 0
    robustness_violations: int = 0
    chain_violations: int = 0
    identity_violations: int = 0
    floor_violations: int = 0
    single_equality_failures: int = 0
    cover_violations: int = 0
    subcube_violations: int = 0
    certified_violations: int = 0
    rejection_violations: int = 0


def _survey(code, stats, flat_entries, delta_numerator, is_single, check_rejection):
    word = TensorWord(code.field, flat_entries.reshape((code.n,) * code.m))
    delta = Fraction(int(delta_numerator), code.blocklength)

    rho = robustness_exact(word, code)
    if rho < robustness_lower_bound(code) * delta:
        stats.robustness_violations += 1
    # end-to-end chain: rho * 2m^2 / (d/n)^(m-1) dominates the distance
    d = code.base.minimum_distance()
    beta = Fraction(2 * code.m * code.m) / Fraction(d, code.n) ** (code.m - 1)
    if rho * beta < delta:
        stats.chain_violations += 1

    analysis = analyze_word(word, code)
    if analysis.floor.lhs != rho:
        stats.identity_violations += 1
    if not analysis.floor.holds:
        stats.floor_violations += 1
    if is_single and analysis.floor.lhs != analysis.floor.rhs:
        stats.single_equality_failures += 1
    if not analysis.heavy_cover_ok:
        stats.cover_violations += 1

    report = analysis.report
    sets = analysis.subcube.sets
    subcube_clean = (
        not report.disagreement[np.ix_(*sets)].any() if all(sets) else True
    )
    within_removal_bound = (
        analysis.subcube.removed * d ** (code.m - 1) <= 2 * report.support_size * code.m
    )
    if not (subcube_clean and within_removal_bound):
        stats.subcube_violations += 1

    if analysis.certified.value < delta:
        stats.certified_violations += 1

    if check_rejection:
        rejection = rejection_probability_exact(word, code)
        if rejection < composed_robustness_bound(code) * delta:
            stats.rejection_violations += 1

    stats.instances += 1
    stats.single_instances += bool(is_single)


@pytest.fixture(scope="session")
def m3_sweep(cube3):
    flat = cube3.flattened()
    codebook = flat.codewords()
    stats = SweepStats()
    pairs = list(itertools.combinations(range(27), 2))
    for ci in range(codebook.shape[0]):
        words = np.repeat(codebook[ci][None, :], 27 + len(pairs), axis=0)
        for s in range(27):
            words[s, s] ^= 1
        for row, (i, j) in enumerate(pairs, start=27):
            words[row, i] ^= 1
            words[row, j] ^= 1
        _, dists, _ = flat.nearest_batch(words)
        for row in range(words.shape[0]):
            _survey(cube3, stats, words[row], dists[row], row < 27, True)
    for start in range(0, RANDOM_WORDS_PER_M, 500):
        seeds = range(start, start + 500)
        words = np.stack([random_word(cube3, seed).flat() for seed in seeds])
        _, dists, _ = flat.nearest_batch(words)
        for row in range(words.shape[0]):
            _survey(cube3, stats, words[row], dists[row], False, True)
    return stats


@pytest.fixture(scope="session")
def m4_sweep(cube4):
    flat = cube4.flattened()
    stats = SweepStats()
    for start in range(0, RANDOM_WORDS_PER_M, 250):
        seeds = range(start, start + 250)
        words = np.stack([random_word(cube4, seed).flat() for seed in seeds])
        _, dists, _ = flat.nearest_batch(words)
        for row in range(words.shape[0]):
            _survey(cube4, stats, words[row], dists[row], False, False)
    return stats


# -- criterion 1: distance multiplicativity ------------------------------------


def test_criterion_1_distance_multiplicativity():
    corpus = [
        parity_code(3),
        parity_code(4),
        repetition_code(3),
        repetition_code(5),
        hamming74(),
    ]
    corpus += [random_linear_code(5, 2, 2, seed) for seed in range(5)]
    corpus += [random_linear_code(5, 2, 3, seed) for seed in range(5)]
    failures = []
    for base in corpus:
        d = base.minimum_distance()
        square_distance = TensorCode(base, 2).flattened().minimum_distance()
        if square_distance != d * d:
            failures.append((base, d, square_distance))
    _report(1, "distance multiplicativity", not failures, f"{len(corpus)} bases")


# -- criterion 2: plane-tester robustness bound ---------------------------------


def test_criterion_2_robustness_bound(m3_sweep, m4_sweep):
    ok = (
        m3_sweep.robustness_violations == 0
        and m4_sweep.robustness_violations == 0
        and m3_sweep.chain_violations == 0
        and m4_sweep.chain_violations == 0
    )
    detail = (
        f"m=3: {m3_sweep.instances} instances, m=4: {m4_sweep.instances} instances"
    )
    _report(2, "robustness bound", ok, detail)


# -- criterion 3: disagreement floor --------------------------------------------


def test_criterion_3_robustness_floor(m3_sweep, m4_sweep):
    ok = (
        m3_sweep.floor_violations == 0
        and m4_sweep.floor_violations == 0
        and m3_sweep.single_equality_failures == 0
        and m3_sweep.identity_violations == 0
        and m4_sweep.identity_violations == 0
    )
    detail = f"equality on {m3_sweep.single_instances} single-error instances"
    _report(3, "robustness floor", ok, detail)


# -- criterion 4: heavy-plane cover and clean subcube ----------------------------


def test_criterion_4_heavy_cover_and_subcube(m3_sweep, m4_sweep):
    ok = (
        m3_sweep.cover_violations == 0
        and m4_sweep.cover_violations == 0
        and m3_sweep.subcube_violations == 0
        and m4_sweep.subcube_violations == 0
    )
    _report(4, "heavy cover and subcube", ok)


# -- criterion 5: unique extension and certified bound ---------------------------


def test_criterion_5_unique_extension(cube3, m3_sweep, m4_sweep):
    from tensorltc.analysis import extend_from_subcube
    from tensorltc.noise import erase_planes

    rng = np.random.default_rng(2024)
    extension_failures = 0
    for trial in range(EXTENSION_TRIALS):
        word = random_codeword(cube3, trial)
        planes = [PlaneIndex(axis, int(rng.integers(0, 3))) for axis in (1, 2, 3)]
        masked, sets = erase_planes(word, planes)
        recovered = extend_from_subcube(masked, sets, cube3)
        if not (isinstance(recovered, TensorWord) and recovered == word):
            extension_failures += 1
    certified_ok = (
        m3_sweep.certified_violations == 0 and m4_sweep.certified_violations == 0
    )
    ok = extension_failures == 0 and certified_ok
    _report(5, "unique extension and certified bound", ok, f"{EXTENSION_TRIALS} erasure round trips")


# -- criterion 6: recursive encoder ----------------------------------------------


def test_criterion_6_encoder(cube3, cube4):
    flat3 = cube3.flattened()
    messages = reference.messages(flat3, np.arange(256))
    mismatches = 0
    for msg in messages:
        if not np.array_equal(cube3.encode(msg).flat(), flat3.encode(msg)):
            mismatches += 1
    flat4 = cube4.flattened()
    rng = np.random.default_rng(99)
    for _ in range(1000):
        msg = rng.integers(0, 2, size=16)
        if not np.array_equal(cube4.encode(msg).flat(), flat4.encode(msg)):
            mismatches += 1

    scaling_ok = True
    for code in (cube3, cube4):
        counter = EncodeCounter()
        code.encode(np.zeros(code.dimension, dtype=int), counter)
        ceiling = code.m * code.n ** (code.m - 1)
        if not ceiling / 2 <= counter.base_calls <= ceiling:
            scaling_ok = False
    _report(6, "recursive encoder", mismatches == 0 and scaling_ok, "1256 messages")


# -- criterion 7: composed tester is a strong local tester -----------------------


def test_criterion_7_strong_local_testing(cube3, cube4, m3_sweep):
    exact_ok = m3_sweep.rejection_violations == 0

    codeword_rejections = 0
    flat3 = cube3.flattened()
    for msg in reference.messages(flat3, np.arange(256)):
        word = cube3.encode(msg)
        if rejection_probability_exact(word, cube3) != 0:
            codeword_rejections += 1
    for seed in range(10):
        if rejection_probability_exact(random_codeword(cube4, seed), cube4) != 0:
            codeword_rejections += 1

    bound4 = composed_robustness_bound(cube4)
    sampled_failures = 0
    sampled_words = (
        [("random", seed) for seed in range(60)]
        + [("errors", seed) for seed in range(20)]
        + [("codeword", seed) for seed in range(20)]
    )
    for index, (kind, seed) in enumerate(sampled_words):
        if kind == "random":
            word = random_word(cube4, 50_000 + seed)
        elif kind == "errors":
            word = codeword_plus_errors(cube4, 1 + seed % 4, seed)[1]
        else:
            word = random_codeword(cube4, seed)
        delta, mode = word_relative_distance(cube4, word)
        assert mode == "exact"
        sampled = rejection_probability_sampled(
            word, cube4, SAMPLED_TRIALS, seed=index
        )
        slack = Fraction(3 * sampled.standard_error).limit_denominator(10**9)
        if sampled.estimate + slack < bound4 * delta:
            sampled_failures += 1
        if kind == "codeword" and sampled.estimate != 0:
            sampled_failures += 1

    ok = exact_ok and codeword_rejections == 0 and sampled_failures == 0
    detail = f"{SAMPLED_WORDS} sampled words x {SAMPLED_TRIALS} trials"
    _report(7, "strong local testing", ok, detail)


# -- criterion 8: square-power decoder -------------------------------------------


def test_criterion_8_square_decoder():
    rep = repetition_code(50)
    rep_square = TensorCode(rep, 2)
    cfg = DecoderConfig.for_code(rep)
    budget = cfg.error_budget()
    assert budget == 5
    decode_failures = 0
    for trial in range(DECODE_TRIALS):
        clean, noisy = codeword_plus_errors(rep_square, budget, trial)
        decoded, _ = decode_square(noisy, cfg)
        if decoded != clean:
            decode_failures += 1

    hamming = hamming74()
    hamming_square = TensorCode(hamming, 2)
    hamming_cfg = DecoderConfig.for_code(hamming)
    hamming_failures = 0
    for seed in range(5):
        clean = random_codeword(hamming_square, seed)
        for i in range(7):
            for j in range(7):
                noisy = clean.entries.copy()
                noisy[i, j] ^= 1
                decoded, _ = decode_square(
                    TensorWord(hamming_square.field, noisy), hamming_cfg
                )
                if decoded != clean:
                    hamming_failures += 1

    flat = rep_square.flattened()
    rng = np.random.default_rng(5)
    unsound = 0
    for seed in range(50):
        _, overloaded = codeword_plus_errors(rep_square, 400, seed)
        garbage = TensorWord(rep_square.field, rng.integers(0, 2, size=(50, 50)))
        for word in (overloaded, garbage):
            decoded, _ = decode_square(word, cfg)
            if decoded is not None and flat.syndrome(decoded.flat()).any():
                unsound += 1

    ok = decode_failures == 0 and hamming_failures == 0 and unsound == 0
    detail = f"{DECODE_TRIALS} budget patterns, 245 single flips"
    _report(8, "square-power decoder", ok, detail)


# -- criterion 9: byte-identical experiment reruns --------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    specs = [
        [
            "experiment", "--kind", "robustness", "--family", "parity:3", "--m", "3",
            "--mode", "errors", "--errors", "2", "--trials", "10", "--seed", "31",
        ],
        [
            "experiment", "--kind", "decode", "--family", "repetition:50", "--m", "2",
            "--mode", "errors", "--errors", "5", "--trials", "5", "--seed", "8",
            "--format", "json",
        ],
    ]
    identical = True
    for index, args in enumerate(specs):
        outputs = []
        for run in range(2):
            out = tmp_path / f"spec{index}-run{run}.out"
            result = subprocess.run(
                [sys.executable, "-m", "tensorltc.cli", *args, "--out", str(out)],
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr.decode()
            outputs.append(out.read_bytes())
        identical &= outputs[0] == outputs[1]
    _report(9, "deterministic experiments", identical)
