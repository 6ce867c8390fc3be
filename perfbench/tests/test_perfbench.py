"""Smoke tests of the benchmark itself, at the smallest size each workload
allows (its reference ops only).

Run from the root of the checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import workloads  # noqa: E402
from tracer import NULL_TRACER  # noqa: E402

SPEC = run.benchmark_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def tiny():
    """One untraced and one traced run per workload, default seed, no
    sample floor, so each run is just its reference ops."""
    saved = run.MIN_SAMPLES
    run.MIN_SAMPLES = 0
    try:
        return {
            (name, trace): run.run(name, run.DEFAULT_SEED, 0.0, trace)
            for name in NAMES
            for trace in (False, True)
        }
    finally:
        run.MIN_SAMPLES = saved


def test_benchmark_json_names_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_printed_with_units(tiny, name):
    result = tiny[(name, False)]
    printed = result["final"]["metrics"]
    for entry in SPEC["end_to_end"]:
        if entry["name"] == "call_tail_ms" and entry["name"] not in printed:
            assert result["report"]["tail"].startswith("omitted:")
            continue
        assert printed[entry["name"]]["unit"] == entry["unit"]
        assert printed[entry["name"]]["value"] > 0
    assert result["metrics"]["call_p50_ms"] > 0 and result["metrics"]["call_mean_ms"] > 0
    assert result["report"]["fail_frac"] == 0
    assert result["final"]["correct"] and result["final"]["failed"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_every_layer_metric(tiny, name):
    result = tiny[(name, True)]
    printed = result["final"]["metrics"]
    assert [e["name"] for e in SPEC["per_layer"]] == list(printed)
    for entry in SPEC["per_layer"]:
        assert printed[entry["name"]]["unit"] == entry["unit"]
    assert result["report"]["fail_frac"] == 0
    assert result["report"]["largest_layer"] in result["report"]["layers"]


@pytest.mark.parametrize("name", NAMES)
def test_default_seed_digests_reproduce(tiny, name):
    for trace in (False, True):
        reference = tiny[(name, trace)]["report"]["reference"]
        assert reference["matches_stored"], reference


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_runs_see_identical_inputs(tiny, name):
    untraced = tiny[(name, False)]["report"]["digests"]
    traced = tiny[(name, True)]["report"]["digests"]
    assert traced == untraced


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_inputs(name):
    workload = workloads.WORKLOADS[name]
    for index in range(workload.ref_ops):
        same = run._input_bytes(workload.make_op(7, index))
        assert same == run._input_bytes(workload.make_op(7, index))
    first = b"".join(run._input_bytes(workload.make_op(7, i)) for i in range(workload.ref_ops))
    other = b"".join(run._input_bytes(workload.make_op(8, i)) for i in range(workload.ref_ops))
    assert first != other


def test_same_seed_gives_same_result_digest():
    saved = run.MIN_SAMPLES
    run.MIN_SAMPLES = 0
    try:
        first, second = (run.run("decode-square", 7, 0.0, False) for _ in range(2))
    finally:
        run.MIN_SAMPLES = saved
    assert first["report"]["digests"] == second["report"]["digests"]


def _checked(workload, state, inputs, outcome) -> run.Ledger:
    ledger = run.Ledger()
    ledger.record("op", run._check(workload, state, inputs, outcome))
    return ledger


@pytest.mark.parametrize("index", [0, 1])
def test_checker_counts_a_distance_off_by_one(index):
    """δ is known on planted-error words (op 0) and cross-checked by a
    codebook scan on the seeded subset of random words (op 1)."""
    workload = workloads.WORKLOADS["sweep-m3"]
    state = workload.setup(None)
    inputs = workload.make_op(3, index)
    outcome = workload.run_op(state, inputs, NULL_TRACER)
    assert _checked(workload, state, inputs, outcome).failed == 0
    row = 5 if "message" in inputs else inputs["crosscheck"][0]
    outcome.data["dists"] = outcome.data["dists"].copy()
    outcome.data["dists"][row] += 1
    ledger = _checked(workload, state, inputs, outcome)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_checker_counts_a_wrong_decode():
    workload = workloads.WORKLOADS["decode-square"]
    state = workload.setup(None)
    index = next(i for i in range(10) if workload.make_op(3, i)["kind"] == "rep5")
    inputs = workload.make_op(3, index)
    outcome = workload.run_op(state, inputs, NULL_TRACER)
    assert _checked(workload, state, inputs, outcome).failed == 0
    decoded = outcome.data["decoded"]
    outcome.data["decoded"] = type(decoded)(decoded.field, 1 - decoded.entries)
    assert _checked(workload, state, inputs, outcome).failed == 1


def test_tail_is_p95_with_ten_samples_beyond_else_p90():
    assert run.tail([0.001] * 15) is None
    info = run.tail(list(np.linspace(0.001, 0.1, 2000)))
    assert info["percentile"] == 95.0 and info["beyond"] >= 10
    info = run.tail(list(np.linspace(0.001, 0.1, 150)))
    assert info["percentile"] == 90.0 and info["beyond"] >= 10
    info = run.tail(list(np.linspace(0.001, 0.1, 20)))
    assert info["percentile"] == 90.0 and info["beyond"] == 2


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_command_prints_result_json_last():
    done = _bench(ROOT, "--workload", "decode-square", "--seed", "2", "--seconds", "0.2", "--trace", "0")
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(final) == ["attempted", "correct", "failed", "metrics"]
    assert final["correct"] and final["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "decode-square", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
