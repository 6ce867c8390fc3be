#!/usr/bin/env python3
"""Benchmark of tensorltc.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-m3 --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout, never from an
installed copy. ``--trace 0`` runs the workload as a closed loop for the
given seconds and prints the end-to-end metrics; ``--trace 1`` runs the
workload's reference ops with and without spans and prints the per-layer
metrics and the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names and
units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

# One BLAS thread, set before numpy loads its BLAS. With numpy's default of
# one thread per CPU, the flat oracle's matrix products on a shared 2-vCPU
# host were the noisiest part of the run: the sweep-m4 p95 tail read
# 3.5-12.8 ms over five seeds, against 3.0-3.3 ms with one thread.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

import numpy as np  # noqa: E402

from tracer import NULL_TRACER, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"
DEFAULT_SEED = 0
# Set-up is measured in rounds, with fresh objects each time. A round
# repeats it until SETUP_ROUND_S have been spent (at least once, at most
# SETUP_MAX_REPEATS times) and keeps the median. SETUP_ROUNDS rounds run
# before the timed window, and one more after each SETUP_EVERY_S of it, so
# that setup_s, the median over rounds, spans the host's speed phases like
# the other metrics rather than reading the first second of the run.
SETUP_ROUNDS = 5
SETUP_ROUND_S = 0.03
SETUP_MAX_REPEATS = 300
SETUP_EVERY_S = 2.0
# The tail is the highest of these percentiles with ten samples beyond it,
# and p90 in a run of fewer unit calls than that needs (experiment-cli has
# about 20 cycles). The timed window runs on until there are MIN_SAMPLES
# unit calls. The ladder stops at p95: in a 20 s run p99 had 27 samples
# beyond it on sweep-m4 and decode-square, and read host stalls (up to 3x
# the p95) rather than the program. It does not go below p90: the host
# switches between a fast and a slow speed for seconds to minutes, and the
# p50 of 20 cycles read whichever held most of the run (IQR/median 0.18 and
# 0.26 over ten seeds), where p90 reads the slow speed.
TAIL_PERCENTILES = (95.0, 90.0)
TAIL_BEYOND = 10
MIN_SAMPLES = 20
MAX_OVERRUN_S = 60.0
# words_per_s is the 10th percentile of throughput over slices of
# consecutive words holding at least SLICE_S of program time: the rate the
# run sustained in nine tenths of its slices. The host's fast bursts come
# and go from run to run; a low quantile reads the slow speed. On
# experiment-cli a cycle spans about five slices, so the 25th percentile
# read its cycles' p75, which moved with the share of fast bursts.
SLICE_S = 0.25
SLICE_QUANTILE = 10
clock = perf_counter


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import tensorltc from this checkout's ``src/``."""
    package = SRC / "tensorltc" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no tensorltc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tensorltc

    if Path(tensorltc.__file__).resolve() != package.resolve():
        raise ProgramMissing(f"tensorltc imported from {tensorltc.__file__}, not {package}")
    return tensorltc


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- environment -------------------------------------------------------------------


def _read_text(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _blas() -> object:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 2 has no dict mode
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def _git_commit() -> str:
    git = ROOT / ".git"
    head = _read_text(str(git / "HEAD"))
    if head is None:
        return "unavailable (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read_text(str(git / ref))
    if direct:
        return direct.strip()
    for line in (_read_text(str(git / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unresolved ({ref})"


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    cpu_max = _read_text("/sys/fs/cgroup/cpu.max")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max.strip() if cpu_max else "unavailable",
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
        "tensorltc_threads": os.environ.get("TENSORLTC_THREADS"),
        "blas_threads": BLAS_THREADS,
    }


# -- shared pieces -----------------------------------------------------------------


def _input_bytes(inputs: dict) -> bytes:
    parts = []
    for key in sorted(inputs):
        value = inputs[key]
        raw = value.tobytes() if hasattr(value, "tobytes") else repr(value).encode()
        parts.append(key.encode() + b"=" + raw)
    return b"\n".join(parts)


class Digests:
    """sha256 of the inputs and of the result stream of the reference ops."""

    def __init__(self) -> None:
        self.inputs = hashlib.sha256()
        self.results = hashlib.sha256()

    def add(self, workload, inputs, outcome) -> None:
        self.inputs.update(_input_bytes(inputs))
        self.results.update(b"missing" if outcome is None else workload.stream(outcome))

    def hex(self) -> dict:
        return {"inputs": self.inputs.hexdigest(), "results": self.results.hexdigest()}


class Ledger:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: " + "; ".join(problems[:5]))


def _run_op(workload, state, inputs, tr):
    """(outcome, run seconds, problems); an exception fails the op only."""
    try:
        start = clock()
        with tr.span("op"):
            outcome = workload.run_op(state, inputs, tr)
        return outcome, clock() - start, []
    except Exception:  # noqa: BLE001 - the loop must go on and count it
        return None, 0.0, [traceback.format_exc(limit=4)]


def _check(workload, state, inputs, outcome) -> list[str]:
    try:
        return workload.check(state, inputs, outcome)
    except Exception:  # noqa: BLE001
        return [traceback.format_exc(limit=4)]


def _setup_round(workload, workdir: Path):
    times: list[float] = []
    while not times or (sum(times) < SETUP_ROUND_S and len(times) < SETUP_MAX_REPEATS):
        start = clock()
        state = workload.setup(workdir)
        times.append(clock() - start)
    return state, median(times)


def _setup(workload, workdir: Path):
    rounds: list[float] = []
    for _ in range(SETUP_ROUNDS):
        state, round_s = _setup_round(workload, workdir)
        rounds.append(round_s)
    return state, rounds


def _reference_check(workload, state, seed: int, digests: dict, ledger: Ledger) -> dict:
    """Compare the default seed's reference-op digests with the stored ones."""
    if seed != DEFAULT_SEED:
        reference_run = Digests()
        for index in range(workload.ref_ops):
            inputs = workload.make_op(DEFAULT_SEED, index)
            outcome, _, problems = _run_op(workload, state, inputs, NULL_TRACER)
            reference_run.add(workload, inputs, outcome)
        digests = reference_run.hex()
    stored = json.loads(REFERENCE_FILE.read_text()).get(workload.name)
    match = stored == digests
    ledger.record("reference digests", [] if match else [f"default-seed digests {digests} != stored {stored}"])
    return {"default_seed": DEFAULT_SEED, "digests": digests, "matches_stored": match}


def _word_costs(outcome) -> list[float]:
    """Program time per word: the word's own unit call plus an equal share of
    the op's batched calls, or an equal share of the op when its unit call
    is not per word."""
    if not outcome.words:
        return []
    if len(outcome.samples_s) == outcome.words:
        share = (outcome.program_s - sum(outcome.samples_s)) / outcome.words
        return [sample + share for sample in outcome.samples_s]
    return [outcome.program_s / outcome.words] * outcome.words


def tail(samples: list[float]) -> dict | None:
    if len(samples) < MIN_SAMPLES:
        return None
    values = np.asarray(samples)
    for q in TAIL_PERCENTILES:
        cut = float(np.percentile(values, q))
        beyond = int((values > cut).sum())
        if beyond >= TAIL_BEYOND or q == TAIL_PERCENTILES[-1]:
            return {"percentile": q, "value_s": cut, "beyond": beyond, "samples": len(samples)}


# -- untraced run ------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Closed loop of ops for ``seconds`` (at least the reference ops and
    MIN_SAMPLES unit calls); end-to-end metrics from program time only."""
    state, setup_times = _setup(workload, workdir)
    ledger = Ledger()
    digests = Digests()
    samples: list[float] = []
    slices: list[float] = []  # words per second of each slice
    slice_words = 0
    slice_s = 0.0
    words = 0
    program_s = 0.0
    index = 0
    start = last_setup = clock()
    while True:
        elapsed = clock() - start
        enough = len(samples) >= MIN_SAMPLES or elapsed >= seconds + MAX_OVERRUN_S
        if index >= workload.ref_ops and elapsed >= seconds and enough:
            break
        inputs = workload.make_op(seed, index)
        outcome, _, problems = _run_op(workload, state, inputs, NULL_TRACER)
        if outcome is not None:
            problems = _check(workload, state, inputs, outcome)
            samples.extend(outcome.samples_s)
            words += outcome.words
            program_s += outcome.program_s
            for cost in _word_costs(outcome):
                slice_words += 1
                slice_s += cost
                if slice_s >= SLICE_S:
                    slices.append(slice_words / slice_s)
                    slice_words, slice_s = 0, 0.0
        ledger.record(f"op {index}", problems)
        if index < workload.ref_ops:
            digests.add(workload, inputs, outcome)
        if index == 0 and outcome is not None:  # untimed, and keeps no outcome alive
            ledger.record("post checks", workload.post_checks(state, inputs, outcome))
        index += 1
        if clock() - last_setup >= SETUP_EVERY_S:
            setup_times.append(_setup_round(workload, workdir)[1])
            last_setup = clock()
    window_s = clock() - start
    reference = _reference_check(workload, state, seed, digests.hex(), ledger)

    metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if not slices and slice_s:  # a run too short for one full slice
        slices.append(slice_words / slice_s)
    tail_info = tail(samples) if samples else None
    if slices:
        metrics["words_per_s"] = float(np.percentile(slices, SLICE_QUANTILE))
    if samples:
        metrics["call_mean_ms"] = sum(samples) / len(samples) * 1e3
        metrics["call_p50_ms"] = median(samples) * 1e3
    if tail_info is not None:
        metrics["call_tail_ms"] = tail_info["value_s"] * 1e3
    return {
        "metrics": metrics,
        "ledger": ledger,
        "report": {
            "ops": index,
            "words": words,
            "program_s": program_s,
            "window_s": window_s,
            "setup_rounds": len(setup_times),
            "tail": tail_info or f"omitted: fewer than {MIN_SAMPLES} unit calls",
            "slices": len(slices),
            "words_per_s_overall": words / program_s if program_s else None,
            "fail_frac": ledger.failed / ledger.attempted,
            "digests": digests.hex(),
            "reference": reference,
        },
    }


# -- traced run --------------------------------------------------------------------


def _layer_value(name: str, totals: dict, counts: dict) -> float:
    layer, _, leaf = name.rpartition(".")
    entry = totals.get(layer)
    calls = entry.calls if entry else 0
    if leaf == "calls":
        return float(calls)
    if leaf == "busy_s":
        return entry.busy_s if entry else 0.0
    if leaf == "self_s":
        return entry.self_s if entry else 0.0
    if leaf == "us_per_word":
        words = counts.get(layer + ".words", 0)
        return entry.busy_s / words * 1e6 if entry and words else 0.0
    if leaf.endswith("_frac"):
        return counts.get(name[: -len("_frac")], 0) / calls if calls else 0.0
    return float(counts.get(name, 0))


def measure_traced(workload, seed: int, seconds: float, workdir: Path, per_layer: list[dict]) -> dict:
    """Passes over the reference ops until ``seconds`` pass (at least one).

    Every op runs once without spans and once with them, alternating which
    goes first; probes run after the traced op, outside its span. Per-layer
    values are per pass, reported as the median over passes.
    """
    state, _ = _setup(workload, workdir)
    ops = [workload.make_op(seed, index) for index in range(workload.ref_ops)]
    ledger = Ledger()
    digests = Digests()
    passes: list[dict] = []
    tables: list[dict] = []
    start = clock()
    while not passes or clock() - start < seconds:
        tracer = Tracer()
        untraced_s = traced_s = 0.0
        for index, inputs in enumerate(ops):
            traced_first = (len(passes) + index) % 2 == 1
            for traced in (True, False) if traced_first else (False, True):
                if not traced:
                    _, elapsed, _ = _run_op(workload, state, inputs, NULL_TRACER)
                    untraced_s += elapsed
                    continue
                tracer.op = index
                outcome, elapsed, problems = _run_op(workload, state, inputs, tracer)
                traced_s += elapsed
                if outcome is not None:
                    try:
                        problems = workload.probe(state, inputs, outcome, tracer)
                    except Exception:  # noqa: BLE001
                        problems = [traceback.format_exc(limit=4)]
                    problems += _check(workload, state, inputs, outcome)
                tracer.op = None
                ledger.record(f"pass {len(passes)} op {index}", problems)
                if not passes:
                    digests.add(workload, inputs, outcome)
        totals = tracer.totals()
        for child, parent in workload.probe_parents.items():
            if child in totals and parent in totals:
                totals[parent].self_s -= totals[child].busy_s
        values = {m["name"]: _layer_value(m["name"], totals, tracer.counts) for m in per_layer}
        values["bench.trace_overhead_ms_per_op"] = (traced_s - untraced_s) / len(ops) * 1e3
        values["bench.trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
        passes.append(values)
        tables.append({name: vars(entry) for name, entry in totals.items() if name != "op"})
    reference = _reference_check(workload, state, seed, digests.hex(), ledger)

    metrics = {name: median(p[name] for p in passes) for name in passes[0]}
    layers = {
        name: {key: median(t.get(name, {}).get(key, 0.0) for t in tables) for key in ("calls", "busy_s", "self_s")}
        for name in sorted({n for t in tables for n in t})
    }
    largest = max(layers, key=lambda n: layers[n]["self_s"]) if layers else None
    return {
        "metrics": metrics,
        "ledger": ledger,
        "report": {
            "passes": len(passes),
            "ops_per_pass": len(ops),
            "layers": layers,
            "largest_layer": largest,
            "expected_largest_layer": workload.expected_largest,
            "largest_matches_expected": largest == workload.expected_largest,
            "fail_frac": ledger.failed / ledger.attempted,
            "digests": digests.hex(),
            "reference": reference,
        },
    }


# -- output ------------------------------------------------------------------------


def _print_untraced(name: str, result: dict, spec: dict) -> None:
    metrics, report = result["metrics"], result["report"]
    print(f"workload {name}: {report['ops']} ops, {report['words']} words in {report['window_s']:.2f} s")
    for entry in spec["end_to_end"]:
        value = metrics.get(entry["name"])
        shown = "omitted" if value is None else f"{value:.6g}"
        print(f"  {entry['name']:<14} {shown:>14} {entry['unit']}")
    for name, unit in (("call_p50_ms", "ms"), ("call_mean_ms", "ms"), ("fail_frac", "1")):
        value = report["fail_frac"] if name == "fail_frac" else metrics.get(name, float("nan"))
        print(f"  {name:<14} {value:>14.6g} {unit} (no bound)")
    tail_info = report["tail"]
    if isinstance(tail_info, dict):
        print(f"  call_tail_ms is p{tail_info['percentile']:g} of {tail_info['samples']} samples")
    else:
        print(f"  call_tail_ms {tail_info}")


def _print_traced(name: str, result: dict) -> None:
    from workloads import LAYER_TARGETS

    report = result["report"]
    print(f"workload {name} traced: {report['passes']} passes of {report['ops_per_pass']} ops (medians per pass)")
    print(f"  {'layer':<45} {'calls':>8} {'busy_s':>10} {'self_s':>10}  should move")
    for layer, row in report["layers"].items():
        target = LAYER_TARGETS.get(layer, "")
        print(f"  {layer:<45} {row['calls']:>8.0f} {row['busy_s']:>10.4f} {row['self_s']:>10.4f}  {target}")
    overhead = result["metrics"]
    print(
        f"  tracing overhead: {overhead['bench.trace_overhead_ms_per_op']:.4g} ms/op "
        f"({overhead['bench.trace_overhead_frac']:.2%})"
    )
    verdict = "as expected" if report["largest_matches_expected"] else "MISMATCH: expected"
    print(f"  largest layer by self time: {report['largest_layer']} ({verdict} {report['expected_largest_layer']})")


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return its printed result as a dict."""
    import workloads

    spec = benchmark_spec()
    workload = workloads.WORKLOADS[name]
    os.environ["TENSORLTC_THREADS"] = "1"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if trace:
            result = measure_traced(workload, seed, seconds, Path(tmp), spec["per_layer"])
        else:
            result = measure(workload, seed, seconds, Path(tmp))
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    ledger = result["ledger"]
    result["final"] = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            e["name"]: {"value": result["metrics"][e["name"]], "unit": e["unit"]}
            for e in entries
            if e["name"] in result["metrics"]
        },
    }
    result["environment"] = environment()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        _print_traced(args.workload, result)
    else:
        _print_untraced(args.workload, result, benchmark_spec())
    for message in result["ledger"].messages:
        print(f"FAILED {message}", file=sys.stderr)
    report = dict(result["report"], environment=result["environment"])
    print("report " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps(result["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
