"""The four benchmark workloads, driven through the public tensorltc API.

Each workload builds its codes in ``setup``, makes the inputs of op ``i``
from the workload seed alone (``make_op``; the program never sees the
seed), runs one op (``run_op``), checks every output (``check``) and, in
the traced run, calls inner layers on the same inputs (``probe``).

Why these four (see DESIGN.md for the full record):

- ``sweep-m3`` mirrors the acceptance m=3 fixture. Per-word time is the
  analysis and plane-view oracle, not the flat oracle.
- ``sweep-m4`` is the one workload where the batched flat oracle is the
  largest cost.
- ``decode-square`` exercises bounded-distance and erasure decoding and
  scans no large codebook, so it bypasses oracle and analysis changes.
- ``experiment-cli`` is the only path through ``experiment`` and ``cli``;
  every call rebuilds its codes cold and the flat oracle runs one word at
  a time.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from tensorltc import EncodeCounter, LinearCode, PartialWord, PlaneIndex, TensorCode, TensorWord
from tensorltc import cli, noise
from tensorltc.analysis import (
    LARGE_DISAGREEMENT,
    WordAnalysis,
    certified_distance_bound,
    compute_opinions,
    extend_from_subcube,
    heavy_free_subcube,
    inconsistency,
    robustness_floor_check,
    verify_heavy_cover,
)
from tensorltc.decoding import DecoderConfig, decode_square
from tensorltc.experiment import (
    ExperimentSpec,
    run_experiment,
    trial_seed,
    word_relative_distance,
    write_csv,
)
from tensorltc.linear_code import (
    PATTERN_CAP,
    SYNDROME_CAP,
    ErasureFailure,
    hamming74,
    parity_code,
    repetition_code,
)
from tensorltc.local_testing import (
    composed_robustness_bound,
    rejection_probability_exact,
    rejection_probability_sampled,
    robustness_exact,
    robustness_lower_bound,
)
from tracer import NULL_TRACER

clock = perf_counter


@dataclass
class OpOutcome:
    """What one op produced, with its timings.

    ``samples_s`` are the unit-call latencies, ``program_s`` the time spent
    inside tensorltc during the op, ``words`` the tensor words it finished.
    """

    samples_s: list[float] = field(default_factory=list)
    program_s: float = 0.0
    words: int = 0
    data: dict = field(default_factory=dict)


def _timed(outcome: OpOutcome, start: float) -> float:
    elapsed = clock() - start
    outcome.program_s += elapsed
    return elapsed


class Workload:
    """Defaults for the optional parts of a workload."""

    name: str
    ref_ops: int  # the ops whose digests are stored, and the traced run's ops
    expected_largest: str
    # Layers reached only through probes, mapped to the layer whose span
    # already holds the same work; the probe's busy time is taken off that
    # layer's self time.
    probe_parents: dict = {}

    def probe(self, state, inputs: dict, outcome: OpOutcome, tr) -> list[str]:
        return []

    def post_checks(self, state, first_inputs: dict, first_outcome: OpOutcome) -> list[str]:
        return []


# -- sweeps -----------------------------------------------------------------------


@dataclass
class SweepState:
    code: TensorCode
    flat: LinearCode  # the flattened code
    robustness_bound: Fraction
    chain_factor: Fraction
    rejection_bound: Fraction


def _sweep_setup(m: int) -> SweepState:
    base = parity_code(3)
    code = TensorCode(base, m)
    flat = code.flattened()
    flat.codewords()
    code.sub().flattened()
    d = base.minimum_distance()
    return SweepState(
        code=code,
        flat=flat,
        robustness_bound=robustness_lower_bound(code),
        chain_factor=Fraction(2 * m * m) / Fraction(d, code.n) ** (m - 1),
        rejection_bound=composed_robustness_bound(code),
    )


def _survey(state: SweepState, entries: np.ndarray, with_rejection: bool, tr):
    """One word's survey calls: robustness, the six analysis steps and,
    on m = 3, exact rejection."""
    code = state.code
    word = TensorWord(code.field, entries.reshape((code.n,) * code.m))
    with tr.span("local_testing.robustness_exact"):
        rho = robustness_exact(word, code)
    with tr.span("analysis.compute_opinions"):
        opinions = compute_opinions(word, code)
    with tr.span("analysis.inconsistency"):
        report = inconsistency(word, opinions)
    with tr.span("analysis.robustness_floor_check"):
        floor = robustness_floor_check(opinions, report)
    with tr.span("analysis.verify_heavy_cover"):
        cover_ok, witnesses = verify_heavy_cover(report)
    with tr.span("analysis.heavy_free_subcube"):
        subcube = heavy_free_subcube(report)
    with tr.span("analysis.certified_distance_bound"):
        certified = certified_distance_bound(report)
    rejection = None
    if with_rejection:
        with tr.span("local_testing.rejection_probability_exact"):
            rejection = rejection_probability_exact(word, code)
    if tr.active:
        tr.count("analysis.inconsistency.marks", report.support_size)
        tr.count("analysis.inconsistency.to_fix", report.num_to_fix)
        tr.count("analysis.certified_distance_bound.large", certified.branch == LARGE_DISAGREEMENT)
        if with_rejection:
            tr.count(
                "local_testing.rejection_probability_exact.paths",
                math.prod(level * code.n for level in range(3, code.m + 1)),
            )
    analysis = WordAnalysis(opinions, report, floor, cover_ok, witnesses, subcube, certified)
    return rho, analysis, rejection


def _oracle(state: SweepState, words: np.ndarray, outcome: OpOutcome, tr) -> np.ndarray:
    start = clock()
    with tr.span("linear_code.nearest_batch"):
        _, dists, _ = state.flat.nearest_batch(words)
    _timed(outcome, start)
    if tr.active:
        tr.count("linear_code.nearest_batch.words", words.shape[0])
        tr.count(
            "linear_code.nearest_batch.codewords_scanned",
            words.shape[0] * state.flat.num_codewords(),
        )
    return dists


def _survey_block(state, words, with_rejection, outcome, tr) -> None:
    dists = _oracle(state, words, outcome, tr)
    records = []
    for row in words:
        start = clock()
        records.append(_survey(state, row, with_rejection, tr))
        outcome.samples_s.append(_timed(outcome, start))
    outcome.words += words.shape[0]
    outcome.data.update(words=words, dists=dists, records=records)


def _encode(code: TensorCode, message, outcome: OpOutcome, tr) -> TensorWord:
    counter = EncodeCounter() if tr.active else None
    start = clock()
    with tr.span("tensor_code.encode"):
        word = code.encode(message, counter)
    _timed(outcome, start)
    if tr.active:
        tr.count("tensor_code.encode.base_calls", counter.base_calls)
    return word


def _check_sweep(state: SweepState, inputs: dict, outcome: OpOutcome) -> list[str]:
    """Acceptance criteria 2-5 and 7, in exact arithmetic, for every word."""
    code = state.code
    d = code.base.minimum_distance()
    data = outcome.data
    words, dists, records = data["words"], data["dists"], data["records"]
    expected = inputs.get("expected_distance")
    problems = []
    if len(records) != words.shape[0]:
        problems.append(f"surveyed {len(records)} of {words.shape[0]} words")
    for row, (rho, analysis, rejection) in enumerate(records):
        delta = Fraction(int(dists[row]), code.blocklength)
        report = analysis.report
        sets = analysis.subcube.sets
        failed = []
        if expected is not None and expected[row] >= 0 and dists[row] != expected[row]:
            failed.append(f"distance {dists[row]} != planted {expected[row]}")
        if rho < state.robustness_bound * delta:
            failed.append("robustness bound")
        if rho * state.chain_factor < delta:
            failed.append("chain bound")
        if analysis.floor.lhs != rho:
            failed.append("floor lhs != rho")
        if not analysis.floor.holds:
            failed.append("floor")
        if expected is not None and expected[row] == 1 and analysis.floor.lhs != analysis.floor.rhs:
            failed.append("floor equality on a single error")
        if not analysis.heavy_cover_ok:
            failed.append("heavy cover")
        if all(sets) and report.disagreement[np.ix_(*sets)].any():
            failed.append("subcube not clean")
        if analysis.subcube.removed * d ** (code.m - 1) > 2 * report.support_size * code.m:
            failed.append("removal bound")
        if analysis.certified.value < delta:
            failed.append("certified bound")
        if rejection is not None and rejection < state.rejection_bound * delta:
            failed.append("rejection bound")
        problems.extend(f"word {row}: {msg}" for msg in failed)
    codebook = state.flat.codewords()
    for row in inputs["crosscheck"]:
        own = int((codebook != words[row]).sum(axis=1).min())
        if own != dists[row]:
            problems.append(f"word {row}: nearest_batch distance {dists[row]} != scan {own}")
    for index, (clean, recovered) in enumerate(data.get("extensions", ())):
        if not (isinstance(recovered, TensorWord) and recovered == clean):
            problems.append(f"extension {index} did not return its codeword")
    return problems


def _sweep_stream(outcome: OpOutcome) -> bytes:
    data = outcome.data
    lines = [
        f"{int(dist)} {rho} {rejection} {json.dumps(analysis.to_json_dict(), sort_keys=True)}"
        for dist, (rho, analysis, rejection) in zip(data["dists"], data["records"])
    ]
    for _, recovered in data.get("extensions", ()):
        lines.append(
            recovered.value if isinstance(recovered, ErasureFailure) else recovered.flat().tobytes().hex()
        )
    return ("\n".join(lines) + "\n").encode()


class _Sweep(Workload):
    m: int

    def setup(self, workdir: Path) -> SweepState:
        return _sweep_setup(self.m)

    def check(self, state, inputs, outcome) -> list[str]:
        return _check_sweep(state, inputs, outcome)

    def stream(self, outcome) -> bytes:
        return _sweep_stream(outcome)


class SweepM3(_Sweep):
    """parity(3)^3: alternating codeword blocks (all 27 single and 351
    double errors of one codeword, plus its 27 extension round trips) and
    blocks of 378 uniform random words."""

    name = "sweep-m3"
    m = 3
    ref_ops = 2
    expected_largest = "analysis.inconsistency"
    BLOCK = 378  # 27 single + 351 double errors

    def make_op(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        inputs = {"crosscheck": rng.choice(self.BLOCK, size=2, replace=False)}
        if index % 2 == 0:
            inputs["message"] = rng.integers(0, 2, size=8)
            inputs["expected_distance"] = np.array([1] * 27 + [2] * 351)
        else:
            inputs["random"] = rng.integers(0, 2, size=(self.BLOCK, 27))
        return inputs

    def run_op(self, state: SweepState, inputs: dict, tr) -> OpOutcome:
        outcome = OpOutcome()
        if "random" in inputs:
            _survey_block(state, inputs["random"], True, outcome, tr)
            return outcome
        clean = _encode(state.code, inputs["message"], outcome, tr)
        flips = [(s,) for s in range(27)] + list(itertools.combinations(range(27), 2))
        words = np.repeat(clean.flat()[None, :], len(flips), axis=0)
        for row, positions in enumerate(flips):
            words[row, list(positions)] ^= 1
        _survey_block(state, words, True, outcome, tr)
        extensions = []
        for coords in itertools.product(range(3), repeat=3):
            planes = [PlaneIndex(axis, c) for axis, c in zip((1, 2, 3), coords)]
            start = clock()
            with tr.span("noise.erase_planes"):
                masked, sets = noise.erase_planes(clean, planes)
            with tr.span("analysis.extend_from_subcube"):
                recovered = extend_from_subcube(masked, sets, state.code)
            _timed(outcome, start)
            tr.count("analysis.extend_from_subcube.failed", isinstance(recovered, ErasureFailure))
            extensions.append((clean, recovered))
        outcome.data["extensions"] = extensions
        return outcome

    def probe(self, state: SweepState, inputs: dict, outcome: OpOutcome, tr) -> list[str]:
        """Erasure-decode every line of the codeword with one coordinate of
        its axis erased: the known-sets the extension round trips solve."""
        if "extensions" not in outcome.data:
            return []
        code = state.code
        clean = outcome.data["extensions"][0][0].entries
        problems = []
        for axis in range(code.m):
            lines = np.moveaxis(clean, axis, -1).reshape(-1, code.n)
            for erased in range(code.n):
                known = np.arange(code.n) != erased
                for line in lines:
                    with tr.span("linear_code.erasure_decode"):
                        completed = code.base.erasure_decode(PartialWord(line, known))
                    failed = isinstance(completed, ErasureFailure)
                    tr.count("linear_code.erasure_decode.failed", failed)
                    if failed or not np.array_equal(completed, line):
                        problems.append(f"erasure probe on axis {axis + 1} missed its line")
        return problems


class SweepM4(_Sweep):
    """parity(3)^4: blocks of 250 words, alternately uniform random and a
    codeword with 1-4 seeded errors."""

    name = "sweep-m4"
    m = 4
    ref_ops = 1
    expected_largest = "linear_code.nearest_batch"
    BLOCK = 250

    def make_op(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        half = self.BLOCK // 2
        errors = rng.integers(1, 5, size=half)
        expected = np.full(self.BLOCK, -1)
        expected[1::2] = errors
        return {
            "random": rng.integers(0, 2, size=(half, 81)),
            "messages": rng.integers(0, 2, size=(half, 16)),
            "errors": errors,
            "positions": np.argsort(rng.random((half, 81)), axis=1)[:, :4],
            "expected_distance": expected,
            "crosscheck": rng.choice(self.BLOCK, size=2, replace=False),
        }

    def run_op(self, state: SweepState, inputs: dict, tr) -> OpOutcome:
        outcome = OpOutcome()
        words = np.empty((self.BLOCK, 81), dtype=np.int64)
        words[0::2] = inputs["random"]
        for row, message in enumerate(inputs["messages"]):
            word = _encode(state.code, message, outcome, tr).flat().copy()
            word[inputs["positions"][row, : inputs["errors"][row]]] ^= 1
            words[2 * row + 1] = word
        _survey_block(state, words, False, outcome, tr)
        return outcome


# -- square decoding ---------------------------------------------------------------


@dataclass
class DecodeState:
    codes: dict  # kind -> (TensorCode, DecoderConfig)


# Each seeded cycle of ten ops holds seven in-budget repetition(50)^2 words,
# one overloaded one, one uniform random word and one hamming74^2 single flip.
DECODE_CYCLE = ("rep5",) * 7 + ("rep400", "random", "ham1")
_DECODE_ERRORS = {"rep5": 5, "rep400": 400, "ham1": 1}


class DecodeSquare(Workload):
    name = "decode-square"
    ref_ops = len(DECODE_CYCLE)
    expected_largest = "decoding.decode_square"
    # the probes re-run pass 1 and the row half of pass 4 of decode_square
    probe_parents = {
        "linear_code.bounded_distance_decode": "decoding.decode_square",
        "linear_code.erasure_decode": "decoding.decode_square",
    }

    def setup(self, workdir: Path) -> DecodeState:
        codes = {}
        for kind, base in (("rep", repetition_code(50)), ("ham", hamming74())):
            cfg = DecoderConfig.for_code(base)
            # fills the coset table when the syndrome-table path applies
            base.bounded_distance_decode(np.zeros(base.n, dtype=np.int64), cfg.radius)
            codes[kind] = (TensorCode(base, 2), cfg)
        return DecodeState(codes)

    def make_op(self, seed: int, index: int) -> dict:
        cycle, slot = divmod(index, len(DECODE_CYCLE))
        order = np.random.default_rng([seed, cycle, 1]).permutation(len(DECODE_CYCLE))
        kind = DECODE_CYCLE[order[slot]]
        rng = np.random.default_rng([seed, index])
        if kind == "random":
            return {"kind": kind, "word": rng.integers(0, 2, size=(50, 50))}
        n, k = (50, 1) if kind.startswith("rep") else (7, 4)
        return {
            "kind": kind,
            "message": rng.integers(0, 2, size=k * k),
            "positions": rng.choice(n * n, size=_DECODE_ERRORS[kind], replace=False),
        }

    def run_op(self, state: DecodeState, inputs: dict, tr) -> OpOutcome:
        outcome = OpOutcome()
        code, cfg = state.codes["ham" if inputs["kind"] == "ham1" else "rep"]
        clean = None
        if "word" in inputs:
            noisy = TensorWord(code.field, inputs["word"])
        else:
            clean = _encode(code, inputs["message"], outcome, tr)
            flat = clean.flat().copy()
            flat[inputs["positions"]] ^= 1
            noisy = TensorWord(code.field, flat.reshape(clean.entries.shape))
        start = clock()
        with tr.span("decoding.decode_square"):
            decoded, trace = decode_square(noisy, cfg)
        _timed(outcome, start)
        outcome.samples_s.append(outcome.program_s)
        outcome.words = 1
        tr.count("decoding.decode_square.ok", trace.status == "ok")
        tr.count(f"decoding.decode_square.status.{trace.status}")
        tr.count(
            "decoding.decode_square.removed_lines",
            len(trace.removed_rows) + len(trace.removed_cols),
        )
        outcome.data.update(code=code, clean=clean, noisy=noisy, decoded=decoded, trace=trace)
        return outcome

    def check(self, state, inputs, outcome) -> list[str]:
        data = outcome.data
        decoded = data["decoded"]
        problems = []
        if decoded is not None and not data["code"].contains(decoded):
            problems.append("returned word is not a codeword")
        if inputs["kind"] in ("rep5", "ham1") and decoded != data["clean"]:
            problems.append(f"{inputs['kind']} word not decoded ({data['trace'].status})")
        return problems

    def stream(self, outcome) -> bytes:
        decoded = outcome.data["decoded"]
        text = json.dumps(outcome.data["trace"].to_json_dict(), sort_keys=True)
        tail = "none" if decoded is None else decoded.flat().tobytes().hex()
        return f"{text}\n{tail}\n".encode()

    def probe(self, state, inputs, outcome, tr) -> list[str]:
        """Pass 1 on every row and column, and the row half of pass 4."""
        data = outcome.data
        base, trace = data["code"].base, data["trace"]
        cfg = state.codes["ham" if inputs["kind"] == "ham1" else "rep"][1]
        entries = data["noisy"].entries
        n = base.n
        table_path = (
            base.p ** (n - base.k) <= SYNDROME_CAP
            and sum(math.comb(n, w) * (base.p - 1) ** w for w in range(cfg.radius + 1)) <= PATTERN_CAP
        )
        row_decoded = np.zeros((n, n), dtype=np.int64)
        lines = [(True, i, entries[i]) for i in range(n)] + [(False, j, entries[:, j]) for j in range(n)]
        for is_row, index, line in lines:
            with tr.span("linear_code.bounded_distance_decode"):
                decoded = base.bounded_distance_decode(line, cfg.radius)
            tr.count("linear_code.bounded_distance_decode.table", table_path)
            tr.count("linear_code.bounded_distance_decode.none", decoded is None)
            if is_row and decoded is not None:
                row_decoded[index] = decoded
        surviving_rows = [i for i in range(n) if i not in trace.removed_rows]
        known = np.ones(n, dtype=bool)
        known[list(trace.removed_cols)] = False
        if trace.removed_cols and surviving_rows and known.any():
            for i in surviving_rows:
                with tr.span("linear_code.erasure_decode"):
                    completed = base.erasure_decode(PartialWord(row_decoded[i], known))
                tr.count("linear_code.erasure_decode.failed", isinstance(completed, ErasureFailure))
        return []


# -- experiment CLI ----------------------------------------------------------------


CLI_CALLS = (
    dict(kind="robustness", family="parity:3", m=4, mode="errors", errors=2, trials=2, sample_trials=0),
    dict(kind="rejection", family="parity:3", m=4, mode="random", errors=1, trials=2, sample_trials=10000),
    dict(kind="rejection", family="parity:3", m=3, mode="planted", errors=1, trials=50, sample_trials=0),
    dict(kind="decode", family="repetition:50", m=2, mode="errors", errors=5, trials=50, sample_trials=0),
)


def cli_argv(call: dict, seed: int, out: Path) -> list[str]:
    argv = ["experiment", "--kind", call["kind"], "--family", call["family"]]
    argv += ["--m", str(call["m"]), "--mode", call["mode"]]
    if call["mode"] == "errors":
        argv += ["--errors", str(call["errors"])]
    if call["sample_trials"]:
        argv += ["--sample-trials", str(call["sample_trials"])]
    return argv + ["--trials", str(call["trials"]), "--seed", str(seed), "--out", str(out)]


@dataclass
class CliState:
    workdir: Path
    codes: dict  # (family, m) -> TensorCode


def _csv_rows(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode().splitlines()[2:]]


class ExperimentCli(Workload):
    name = "experiment-cli"
    ref_ops = 1
    expected_largest = "experiment.word_relative_distance"
    probe_parents = {
        "experiment.run_experiment": "cli.main",
        "experiment.write_csv": "cli.main",
        "experiment.word_relative_distance": "experiment.run_experiment",
        "local_testing.rejection_probability_sampled": "experiment.run_experiment",
    }

    def setup(self, workdir: Path) -> CliState:
        codes = {}
        for base, m in ((parity_code(3), 4), (parity_code(3), 3)):
            code = TensorCode(base, m)
            code.flattened()
            code.sub().flattened()
            base.minimum_distance()
            codes[("parity:3", m)] = code
        DecoderConfig.for_code(repetition_code(50))
        return CliState(workdir, codes)

    def make_op(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        return {"seeds": rng.integers(0, 2**31, size=len(CLI_CALLS))}

    def run_op(self, state: CliState, inputs: dict, tr) -> OpOutcome:
        outcome = OpOutcome()
        codes, outputs = [], []
        sink = io.StringIO()
        for call, seed in zip(CLI_CALLS, inputs["seeds"]):
            out = state.workdir / f"{call['kind']}-{call['m']}-{call['mode']}.csv"
            argv = cli_argv(call, int(seed), out)
            start = clock()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with tr.span("cli.main"):
                    codes.append(cli.main(argv))
            _timed(outcome, start)
            outputs.append(out.read_bytes() if out.exists() else b"")
            out.unlink(missing_ok=True)
        outcome.samples_s.append(outcome.program_s)
        outcome.data.update(exit_codes=codes, csv=outputs)
        outcome.words = sum(len(_csv_rows(data)) for data in outputs)
        return outcome

    def check(self, state, inputs, outcome) -> list[str]:
        problems = []
        for call, code, data in zip(CLI_CALLS, outcome.data["exit_codes"], outcome.data["csv"]):
            rows = _csv_rows(data)
            if code != 0:
                problems.append(f"{call['kind']} m={call['m']}: exit code {code}")
            if len(rows) != call["trials"]:
                problems.append(f"{call['kind']} m={call['m']}: {len(rows)} rows")
            if any(row[-1] != "true" for row in rows):
                problems.append(f"{call['kind']} m={call['m']}: a row violates its bound")
        return problems

    def stream(self, outcome) -> bytes:
        return b"".join(outcome.data["csv"])

    def probe(self, state: CliState, inputs: dict, outcome: OpOutcome, tr) -> list[str]:
        """Re-run each call's inner layers on the same inputs, outside the op:
        the experiment itself, its CSV writer, and for every trial word
        (regenerated from ``trial_seed``) the distance and sampled tester."""
        problems = []
        for call, seed, data in zip(CLI_CALLS, inputs["seeds"], outcome.data["csv"]):
            seed = int(seed)
            spec = ExperimentSpec(
                kind=call["kind"], base=call["family"], m=call["m"], mode=call["mode"],
                errors=call["errors"], trials=call["trials"], seed=seed,
                sample_trials=call["sample_trials"],
            )
            with tr.span("experiment.run_experiment"):
                rows = run_experiment(spec)
            tr.count("experiment.run_experiment.trials", spec.trials)
            buffer = io.StringIO()
            with tr.span("experiment.write_csv"):
                write_csv(rows, buffer)
            text = buffer.getvalue().encode()
            tr.count("experiment.write_csv.bytes", len(text))
            if text != data:
                problems.append(f"{call['kind']} m={call['m']}: run_experiment bytes differ from the CLI's")
            if call["kind"] == "decode":
                continue
            code = state.codes[(call["family"], call["m"])]
            for trial, row in enumerate(_csv_rows(data)):
                word = _trial_word(code, call, trial_seed(seed, trial))
                with tr.span("experiment.word_relative_distance"):
                    delta, mode = word_relative_distance(code, word)
                tr.count("experiment.word_relative_distance.lower_bound", mode == "lower_bound")
                if str(delta) != row[6]:
                    problems.append(f"{call['kind']} trial {trial}: distance {delta} != CSV {row[6]}")
                if call["sample_trials"]:
                    with tr.span("local_testing.rejection_probability_sampled"):
                        sampled = rejection_probability_sampled(
                            word, code, call["sample_trials"], trial_seed(seed, trial)
                        )
                    tr.count("local_testing.rejection_probability_sampled.draws", sampled.trials)
                    if str(sampled.estimate) != row[9]:
                        problems.append(f"sampled trial {trial}: {sampled.estimate} != CSV {row[9]}")
        return problems

    def post_checks(self, state: CliState, first_inputs: dict, first_outcome: OpOutcome) -> list[str]:
        """Re-run the first cycle with one thread per CPU; bytes must match."""
        threads = str(len(os.sched_getaffinity(0)))
        previous = os.environ.get("TENSORLTC_THREADS")
        os.environ["TENSORLTC_THREADS"] = threads
        try:
            rerun = self.run_op(state, first_inputs, NULL_TRACER)
        finally:
            if previous is None:
                del os.environ["TENSORLTC_THREADS"]
            else:
                os.environ["TENSORLTC_THREADS"] = previous
        if rerun.data["csv"] != first_outcome.data["csv"]:
            return [f"CSV bytes differ at TENSORLTC_THREADS={threads}"]
        return []


def _trial_word(code: TensorCode, call: dict, seed: int) -> TensorWord:
    if call["mode"] == "random":
        return noise.random_word(code, seed)
    if call["mode"] == "errors":
        return noise.codeword_plus_errors(code, call["errors"], seed)[1]
    return noise.planted_word(code, seed)


WORKLOADS = {w.name: w for w in (SweepM3(), SweepM4(), DecodeSquare(), ExperimentCli())}

# Which end-to-end metric each layer should move, and on which workload.
LAYER_TARGETS = {
    "linear_code.nearest_batch": "words_per_s on sweep-m4 (large share), sweep-m3 (small); not decode-square",
    "experiment.word_relative_distance": "words_per_s, call_tail_ms on experiment-cli",
    "experiment.run_experiment": "call_tail_ms on experiment-cli",
    "experiment.write_csv": "call_tail_ms on experiment-cli",
    "cli.main": "call_tail_ms on experiment-cli",
    "local_testing.rejection_probability_sampled": "call_tail_ms on experiment-cli",
    "analysis.inconsistency": "words_per_s, call_tail_ms on sweep-m3, sweep-m4",
    "analysis.compute_opinions": "call_tail_ms on sweep-m3, sweep-m4",
    "local_testing.robustness_exact": "call_tail_ms on sweep-m3, sweep-m4",
    "analysis.verify_heavy_cover": "call_tail_ms on sweep-m3",
    "analysis.heavy_free_subcube": "call_tail_ms on sweep-m3",
    "analysis.certified_distance_bound": "call_tail_ms on sweep-m3",
    "local_testing.rejection_probability_exact": "call_tail_ms on sweep-m3",
    "analysis.extend_from_subcube": "words_per_s on sweep-m3",
    "decoding.decode_square": "words_per_s, call_tail_ms on decode-square",
    "linear_code.bounded_distance_decode": "call_tail_ms on decode-square",
    "linear_code.erasure_decode": "call_tail_ms on decode-square; words_per_s on sweep-m3",
    "tensor_code.encode": "words_per_s (small) on decode-square, sweep-m4",
}
