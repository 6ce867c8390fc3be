import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorltc import cli, experiment, noise
from tensorltc.analysis import compute_opinions
from tensorltc.errors import CapacityError, ShapeError
from tensorltc.experiment import (
    TRIALS_CAP,
    ExperimentSpec,
    ResultRow,
    resolve_base_code,
    run_experiment,
    trial_seed,
    violations,
    word_relative_distance,
    write_json,
)
from tensorltc.linear_code import LinearCode, hamming74, parity_code
from tensorltc.local_testing import DRAW_CAP, check_draws, robustness_exact
from tensorltc.noise import random_codeword
from tensorltc.tensor_code import TensorCode, save_tensor

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_output(capsys):
    code, out, _ = run_cli(capsys, "params", "--family", "parity:3", "--m", "3")
    assert code == 0
    assert out == "n^m=27 k^m=8 d^m=8 rate=8/27 delta=8/27\n"


def test_resolve_families(tmp_path):
    assert resolve_base_code("parity:4").n == 4
    assert resolve_base_code("repetition:5").k == 1
    assert resolve_base_code("hamming74") == hamming74()
    assert resolve_base_code("random:5,2,3,7") == resolve_base_code("random:5,2,3,7")
    with pytest.raises(ValueError):
        resolve_base_code("nonsense:1")
    path = tmp_path / "c.txt"
    path.write_text("2 3 2\n1 0 1\n0 1 1\n", encoding="utf-8")
    assert resolve_base_code(f"file:{path}") == parity_code(3)
    with pytest.raises(ValueError):
        resolve_base_code(str(path))  # a bare path is no family


def test_encode_membership_round_trip(capsys, tmp_path):
    msg = tmp_path / "msg.txt"
    msg.write_text("1 0 1 1 0 0 1 0\n")
    word = tmp_path / "word.txt"
    code, _, _ = run_cli(
        capsys, "encode", "--family", "parity:3", "--m", "3",
        "--message", str(msg), "--out", str(word),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "membership", "--family", "parity:3", "--m", "3", "--word", str(word)
    )
    assert code == 0 and out.strip() == "true"


def test_membership_false_on_corrupted_word(capsys, tmp_path):
    square = TensorCode(parity_code(3), 3)
    word = random_codeword(square, 0)
    entries = word.entries.copy()
    entries[0, 0, 0] ^= 1
    from tensorltc.tensor_code import TensorWord

    path = tmp_path / "w.txt"
    save_tensor(TensorWord(square.field, entries), path)
    code, out, _ = run_cli(
        capsys, "membership", "--family", "parity:3", "--m", "3", "--word", str(path)
    )
    assert code == 0 and out.strip() == "false"


def test_robustness_and_test_commands(capsys, tmp_path):
    square = TensorCode(parity_code(3), 3)
    clean = random_codeword(square, 1)
    noisy = clean.entries.copy()
    noisy[1, 1, 1] ^= 1
    from tensorltc.tensor_code import TensorWord

    path = tmp_path / "w.txt"
    save_tensor(TensorWord(square.field, noisy), path)
    code, out, _ = run_cli(
        capsys, "robustness", "--family", "parity:3", "--m", "3", "--word", str(path)
    )
    assert code == 0
    assert "rho=1/27" in out and "delta=1/27" in out and "satisfied=true" in out
    code, out, _ = run_cli(
        capsys, "test", "--family", "parity:3", "--m", "3", "--word", str(path), "--exact"
    )
    assert code == 0 and "rejection=1/3" in out
    code, out, _ = run_cli(
        capsys, "test", "--family", "parity:3", "--m", "3", "--word", str(path),
        "--trials", "300", "--seed", "7",
    )
    assert code == 0 and "mode=sampled" in out


def test_analyze_command(capsys, tmp_path):
    square = TensorCode(parity_code(3), 3)
    path = tmp_path / "w.txt"
    save_tensor(random_codeword(square, 2), path)
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "analyze", "--family", "parity:3", "--m", "3",
        "--word", str(path), "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["wt_E"] == "0" and doc["num_to_fix"] == 0
    assert doc["branch"] == "small-disagreement"


def test_decode_command_success_and_failure(capsys, tmp_path):
    square = TensorCode(hamming74(), 2)
    clean = random_codeword(square, 3)
    noisy = clean.entries.copy()
    noisy[2, 5] ^= 1
    from tensorltc.tensor_code import TensorWord

    path = tmp_path / "w.txt"
    save_tensor(TensorWord(square.field, noisy), path)
    out_path = tmp_path / "decoded.txt"
    trace_path = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys, "decode", "--family", "hamming74", "--word", str(path),
        "--out", str(out_path), "--trace", str(trace_path),
    )
    assert code == 0 and "decoded distance=1" in out
    from tensorltc.tensor_code import load_tensor

    assert load_tensor(out_path) == clean
    assert json.loads(trace_path.read_text())["status"] == "ok"

    bad = tmp_path / "bad.txt"
    junk = np.zeros((3, 3), dtype=int)
    junk[0, 0] = 1
    save_tensor(TensorWord(TensorCode(parity_code(3), 2).field, junk), bad)
    code, _, err = run_cli(capsys, "decode", "--family", "parity:3", "--word", str(bad))
    assert code == 3
    assert "decode failed" in err


@pytest.mark.parametrize("radius", ["-1", "11"])
def test_decode_radius_refusals_name_the_radius(capsys, tmp_path, radius):
    """A negative radius, or one above 2n, whose default removal threshold
    radius/(2n) would pass 1, is refused as a radius: the CLI has no
    threshold setting to name."""
    path = tmp_path / "w.txt"
    save_tensor(random_codeword(TensorCode(resolve_base_code("repetition:5"), 2), 0), path)
    code, _, err = run_cli(
        capsys, "decode", "--family", "repetition:5", "--word", str(path), "--radius", radius
    )
    assert code == 1 and f"radius {radius}" in err
    assert "threshold" not in err and "Traceback" not in err


def test_usage_errors_exit_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "params", "--m", "3")  # no code source
    assert code == 1
    code, _, err = run_cli(capsys, "params", "--family", "parity:3")  # missing --m
    assert code == 1
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 1


def test_out_of_range_integers_exit_one(capsys, tmp_path):
    huge = "99999999999999999999"
    word = tmp_path / "word.txt"
    word.write_text(f"2 3 3\n{huge}" + " 0" * 26 + "\n")
    code, _, err = run_cli(
        capsys, "membership", "--family", "parity:3", "--m", "3", "--word", str(word)
    )
    assert code == 1 and "[0, 2)" in err
    base = tmp_path / "code.txt"
    base.write_text(f"2 3 2\n1 0 1\n0 1 {huge}\n")
    word.write_text("2 3 3\n" + " 0" * 27 + "\n")
    code, _, err = run_cli(
        capsys, "membership", "--code", str(base), "--m", "3", "--word", str(word)
    )
    assert code == 1 and "[0, 2)" in err
    message = tmp_path / "msg.txt"
    message.write_text(f"1 0 1 {huge} 0 0 1 0\n")
    code, _, err = run_cli(
        capsys, "encode", "--family", "parity:3", "--m", "3",
        "--message", str(message), "--out", str(tmp_path / "out.txt"),
    )
    assert code == 1 and "[0, 2)" in err


def test_oversized_headers_exit_one_before_reading_the_body(capsys, tmp_path):
    word = tmp_path / "word.txt"
    word.write_text("2 1000000 1000000\n0 1\n")
    code, _, err = run_cli(
        capsys, "membership", "--family", "parity:3", "--m", "3", "--word", str(word)
    )
    assert code == 1 and "header" in err
    base = tmp_path / "code.txt"
    base.write_text("2 1000000 1000000\n0 1\n")
    code, _, err = run_cli(capsys, "params", "--code", str(base), "--m", "3")
    assert code == 1 and "header" in err


@pytest.mark.parametrize("m", ["99999999999999999999", "64"])
def test_tensor_exponent_outside_1_to_63_exits_one(capsys, tmp_path, m):
    code, _, err = run_cli(capsys, "params", "--family", "parity:3", "--m", m)
    assert code == 1 and "[1, 63]" in err
    code, _, err = run_cli(
        capsys, "experiment", "--kind", "robustness", "--family", "parity:3",
        "--m", m, "--trials", "1", "--out", str(tmp_path / "rows.csv"),
    )
    assert code == 1 and "[1, 63]" in err


@pytest.mark.parametrize("m", [63, 64])
def test_every_command_runs_at_63_axes_and_refuses_64(capsys, tmp_path, m):
    """Only n = 1 codes reach m = 63 under the file cap. A stack of words,
    or of plane views, takes a 64th axis, numpy's limit, so every command
    runs at m = 63 and refuses m = 64 by its range, not by a traceback."""
    word, out = tmp_path / "w.txt", str(tmp_path / "rows.csv")
    word.write_text(f"2 {m} 1\n0\n")
    commands = [
        ["params"],
        ["membership", "--word", str(word)],
        ["test", "--word", str(word), "--trials", "10"],
        ["test", "--word", str(word), "--exact"],
        ["robustness", "--word", str(word)],
        ["analyze", "--word", str(word)],
    ]
    for kind, sample in (("robustness", "0"), ("rejection", "0"), ("rejection", "10")):
        for mode in ("random", "errors", "planted"):
            commands.append(
                ["experiment", "--kind", kind, "--mode", mode, "--trials", "3",
                 "--sample-trials", sample, "--out", out]
            )
    for command in commands:
        argv = [command[0], "--family", "repetition:1", "--m", str(m), *command[1:]]
        code, _, err = run_cli(capsys, *argv)
        assert "Traceback" not in err, argv
        assert (code == 0) if m == 63 else (code == 1 and "[1, 63]" in err), (argv, err)


@pytest.mark.parametrize(
    "family", ["parity:1000000", "repetition:100000000000", "random:1000000,500000,2,0"]
)
def test_oversized_family_exits_one_before_allocating(capsys, family):
    code, _, err = run_cli(capsys, "params", "--family", family, "--m", "1")
    assert code == 1 and "above the cap" in err and "Traceback" not in err


def test_capacity_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "params", "--family", "random:30,26,2,0", "--m", "2")
    assert code == 2
    assert "capacity" in err.lower()


def test_capacity_message_writes_the_codeword_count_as_a_power(capsys):
    code, _, err = run_cli(capsys, "params", "--family", "parity:400", "--m", "1")
    assert code == 2 and "2^399" in err and len(err.encode()) < 120


@pytest.mark.parametrize("kind, m", [("rejection", "30"), ("robustness", "63")])
def test_experiment_words_above_the_file_cap_exit_two_at_once(capsys, tmp_path, kind, m):
    """n^m is checked against the word-file cap before any word or code is
    built: 3^30 entries would need petabytes, and 3^63 a 2^(2^63) count."""
    out = tmp_path / "rows.csv"
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "experiment", "--kind", kind, "--family", "parity:3", "--m", m,
        "--trials", "2", "--out", str(out),
    )
    assert time.perf_counter() - start < 1
    assert code == 2 and f"3^{m} entries" in err and "Traceback" not in err
    assert not out.exists()


# Run in a child process under an address-space limit, so that an array
# too large for it fails at once instead of filling the machine's memory;
# one BLAS thread keeps the library's own buffers small under that limit.
CAPPED_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from tensorltc import cli
start = time.perf_counter()
code = cli.main(sys.argv[1:])
print(f"{time.perf_counter() - start:.3f}")
sys.exit(code)
"""


def run_capped(argv: list[str], out: Path | None) -> tuple[subprocess.CompletedProcess, float]:
    """Run the CLI in a CAPPED_CHILD with a 60 s timeout, writing to ``out``
    if given: (child, wall s)."""
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", CAPPED_CHILD, *argv, *(["--out", str(out)] if out else [])],
        env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return child, time.perf_counter() - start


@pytest.mark.parametrize("kind, family", [("rejection", "parity:3"), ("robustness", "repetition:3")])
def test_index_plans_above_the_cap_exit_two_at_once(tmp_path, kind, family):
    """3^15 entries pass the word-file cap, but the plane-view index array
    of the 3^15 cube, which the line syndromes also read, holds 15 * 3^15
    entries, 1.6 GiB of intp: it is refused before it is allocated."""
    out = tmp_path / "rows.csv"
    argv = ["experiment", "--kind", kind, "--family", family, "--m", "15", "--trials", "1"]
    child, _ = run_capped(argv, out)
    assert child.returncode == 2, child.stderr
    assert "index array" in child.stderr and "Traceback" not in child.stderr
    assert float(child.stdout) < 1
    assert not out.exists()


@pytest.mark.parametrize("family, m", [("repetition:3", "9"), ("parity:2", "14")])
def test_flat_codes_build_no_parity_check_matrix(tmp_path, family, m):
    """The flat code of 3^9 or 2^14 entries would have a dense parity-check
    matrix of 2.89 or 2.00 GiB, which nothing in a robustness run reads."""
    argv = ["experiment", "--kind", "robustness", "--family", family, "--m", m, "--trials", "1"]
    child, wall = run_capped(argv, tmp_path / "rows.csv")
    assert wall < 10
    assert child.returncode in (0, 2), child.stderr
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize(
    "family, m, status",
    [("parity:2", "18", 0), ("parity:3", "13", 0), ("parity:2", "22", 2), ("parity:2", "24", 2)],
)
def test_exact_rejection_needs_no_slice_tables(tmp_path, family, m, status):
    """Failing slices come from the line-syndrome mask and pair weights
    from a closed form, so no table grows with 2^m axis subsets or with
    the slices of every line: parity(2)^18 and parity(3)^13 run in
    seconds, and the plane views of the 2^22 and 2^24 cubes, over the
    index-array cap, are refused with exit 2."""
    argv = ["experiment", "--kind", "rejection", "--family", family, "--m", m, "--trials", "1"]
    child, wall = run_capped(argv, tmp_path / "rows.csv")
    assert child.returncode == status, child.stderr
    assert "Traceback" not in child.stderr
    if status == 0:
        assert wall < 5
    else:
        assert "index array" in child.stderr


@pytest.mark.parametrize("sample", ["0", "100"])
@pytest.mark.parametrize(
    "family, m", [("repetition:3", "15"), ("parity:2", "22"), ("parity:2", "24")]
)
def test_rejection_refusals_come_before_the_distance(tmp_path, family, m, sample):
    """The tester runs before the exact distance search, so a word whose
    plane views are over the index-array cap is refused at once, exact or
    sampled, without scanning the flat code first. Half a second, not the
    1 s refusal budget: searching the distance of parity(2)^22 first
    already takes most of a second."""
    argv = ["experiment", "--kind", "rejection", "--family", family, "--m", m, "--trials", "1",
            "--sample-trials", sample]
    child, _ = run_capped(argv, tmp_path / "rows.csv")
    assert child.returncode == 2, child.stderr
    assert "index array" in child.stderr and "Traceback" not in child.stderr
    assert float(child.stdout) < 0.5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["test", "--trials", "1000000000000"], "tester draws exceed cap"),
        (["experiment", "--kind", "rejection", "--trials", "1", "--sample-trials", "1000000000000"],
         "tester draws exceed cap"),
        (["experiment", "--kind", "rejection", "--trials", "1000000000000"], "trials exceed cap"),
    ],
)
def test_huge_counts_exit_two_at_once(tmp_path, argv, message):
    """10^12 tester draws would take 7.28 TiB of draw arrays, and 10^12
    trials a list of chunks past any memory: both counts are refused
    before anything is allocated for them."""
    argv = [argv[0], "--family", "parity:3", "--m", "4", *argv[1:]]
    out = tmp_path / "rows.csv"
    if argv[0] == "test":
        word, out = tmp_path / "word.txt", None
        save_tensor(random_codeword(TensorCode(parity_code(3), 4), 0), word)
        argv += ["--word", str(word)]
    child, _ = run_capped(argv, out)
    assert child.returncode == 2, child.stderr
    assert message in child.stderr and "Traceback" not in child.stderr
    assert float(child.stdout) < 0.5
    assert out is None or not out.exists()


def test_count_caps_admit_their_bound_and_refuse_past_it(monkeypatch):
    """Each count cap admits its own value; one more is refused, in an
    experiment before any word is drawn."""
    check_draws(DRAW_CAP)
    with pytest.raises(CapacityError, match=f"{DRAW_CAP + 1} tester draws exceed cap"):
        check_draws(DRAW_CAP + 1)

    def no_draws(*args):
        raise AssertionError("a word was drawn before the refusal")

    monkeypatch.setattr(noise, "word_draws", no_draws)
    for counts, message in [
        (dict(trials=TRIALS_CAP + 1), "trials exceed cap"),
        (dict(trials=1, sample_trials=DRAW_CAP + 1), "tester draws exceed cap"),
    ]:
        with pytest.raises(CapacityError, match=message):
            run_experiment(ExperimentSpec(kind="rejection", base="parity:3", m=4, **counts))


@pytest.mark.parametrize(
    "kind, family, m, message",
    [
        ("robustness", "parity:3", 15, r"nearest-codeword search over 2\^16384"),
        ("robustness", "repetition:3", 15, "index array"),
        ("rejection", "parity:2", 24, "index array"),
    ],
)
def test_tester_refusals_come_before_any_word_is_drawn(monkeypatch, kind, family, m, message):
    """The caps the first trial's tester would hit, robustness's plane-view
    search first and then the plane views' index array, refuse the
    experiment before any word is drawn or built."""

    def no_draws(*args):
        raise AssertionError("a word was drawn before the refusal")

    monkeypatch.setattr(noise, "word_draws", no_draws)
    with pytest.raises(CapacityError, match=message):
        run_experiment(ExperimentSpec(kind=kind, base=family, m=m, trials=1))


@pytest.mark.parametrize(
    "kind, m, extra",
    [("rejection", 5, []), ("rejection", 5, ["--sample-trials", "10"]), ("decode", 2, ["--mode", "errors"])],
)
def test_base_distance_refusal_comes_before_any_word_is_drawn(
    capsys, tmp_path, monkeypatch, kind, m, extra
):
    """Every kind reads the base code's minimum distance, for its bound or
    its decoder; parity(26)'s search over 2^25 codewords is refused before
    any word is drawn."""

    def no_draws(*args):
        raise AssertionError("a word was drawn before the refusal")

    monkeypatch.setattr(noise, "word_draws", no_draws)
    out = tmp_path / "rows.csv"
    code, _, err = run_cli(
        capsys, "experiment", "--kind", kind, "--family", "parity:26", "--m", str(m),
        "--trials", "1", "--out", str(out), *extra,
    )
    assert code == 2 and "search over 2^25 codewords" in err
    assert not out.exists()


@pytest.mark.parametrize("family, n", [("parity:3", 3), ("parity:26", 26)])
@pytest.mark.parametrize("errors", ["999999", "-1"])
def test_error_count_outside_the_word_exits_one_before_any_cap(capsys, tmp_path, family, n, errors):
    """An --errors count outside [0, n^m] is a usage error, reported before
    the caps: parity(26)'s search over 2^25 codewords is never reached."""
    out = tmp_path / "rows.csv"
    code, _, err = run_cli(
        capsys, "experiment", "--kind", "rejection", "--family", family, "--m", "3",
        "--mode", "errors", "--errors", errors, "--trials", "1", "--out", str(out),
    )
    assert code == 1 and f"error count {errors} outside [0, {n**3}]" in err
    assert not out.exists()


def test_plane_oracle_refuses_before_building_its_flat_code(capsys, tmp_path, monkeypatch):
    """parity(64)^3's plane views would be searched over 2^(63^2)
    codewords: the cap is hit without the Kronecker generator being built.
    The word's own distance, over 2^(63^3) codewords, takes the syndrome
    lower bound, which builds no generator either."""
    built = []
    monkeypatch.setattr(TensorCode, "flattened", lambda self: built.append(self))
    base = parity_code(64)
    word = TensorCode(base, 3).encode(np.zeros(63**3, dtype=np.int64))
    for call in (robustness_exact, compute_opinions):
        with pytest.raises(CapacityError, match=r"2\^3969 codewords"):
            call(word, TensorCode(base, 3))
    assert word_relative_distance(TensorCode(base, 3), word) == (0, "lower_bound")
    out = tmp_path / "rows.csv"
    code, _, err = run_cli(
        capsys, "experiment", "--kind", "robustness", "--family", "parity:64", "--m", "3",
        "--trials", "1", "--out", str(out),
    )
    assert code == 2 and "2^3969 codewords" in err and not out.exists()
    assert built == []


def test_negative_sample_trials_exit_one(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    code, _, err = run_cli(
        capsys, "experiment", "--kind", "rejection", "--family", "parity:3", "--m", "3",
        "--sample-trials", "-5", "--out", str(out),
    )
    assert code == 1 and "sample_trials must be >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, m, extra", [("robustness", "4", []), ("decode", "2", ["--mode", "errors", "--errors", "1"])]
)
@pytest.mark.parametrize("sample", ["10", "1000000000000"])
def test_sample_trials_outside_rejection_exit_one(capsys, monkeypatch, tmp_path, kind, m, extra, sample):
    """Only rejection experiments sample the tester; any other kind
    refuses ``--sample-trials`` before any draw or cap, a count past the
    draw cap and a word past the file cap included."""
    drawn = []
    monkeypatch.setattr(noise, "word_draws", lambda *args: drawn.append(args))
    out = tmp_path / "rows.csv"
    for family in ("parity:3", "parity:4097"):
        code, _, err = run_cli(
            capsys, "experiment", "--kind", kind, "--family", family, "--m", m, *extra,
            "--sample-trials", sample, "--trials", "1000000000000", "--out", str(out),
        )
        assert code == 1 and f"sample_trials applies to rejection experiments, not {kind}" in err
    assert not out.exists() and drawn == []


def test_experiment_csv_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys, "experiment", "--kind", "robustness", "--family", "parity:3",
            "--m", "3", "--mode", "errors", "--errors", "2", "--trials", "8",
            "--seed", "123", "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "schema=1"
    assert lines[1].startswith("trial,kind,mode,")
    assert len(lines) == 2 + 8
    assert all(line.endswith("true") for line in lines[2:])


def test_experiment_json_mirrors_csv(capsys, tmp_path):
    out = tmp_path / "rows.json"
    code, _, _ = run_cli(
        capsys, "experiment", "--kind", "rejection", "--family", "parity:3",
        "--m", "3", "--mode", "random", "--trials", "5", "--seed", "9",
        "--format", "json", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert len(doc["rows"]) == 5
    assert doc["rows"][0]["statistic"] == "rejection_exact"
    assert all(row["bound_satisfied"] == "true" for row in doc["rows"])


def test_write_json_matches_json_dump_of_the_whole_payload():
    """Rows are written one at a time, in the bytes ``json.dump`` writes
    for the whole payload, for rows of every kind, for no rows, and for
    rows whose text holds quotes, backslashes, control and non-ASCII
    characters."""
    texts = ['say "hi"', "back\\slash", "tab\tnew\nline\x00", "Größe ∞", "\U0001f600", ""]
    odd = [
        ResultRow(i, text, "random", 3, 2, 2**64 + i, "1/2", text[::-1], "s", "v", "b", "true")
        for i, text in enumerate(texts)
    ]
    specs = [
        ExperimentSpec(kind="robustness", base="parity:3", m=3, mode="planted", trials=3),
        ExperimentSpec(kind="rejection", base="parity:3", m=3, trials=3),
        ExperimentSpec(kind="rejection", base="parity:3", m=4, sample_trials=20, trials=2),
        ExperimentSpec(kind="rejection", base="parity:3", m=5, mode="errors", trials=1),
        ExperimentSpec(kind="decode", base="hamming74", m=2, mode="errors", errors=2, trials=3),
    ]
    for rows in [[], odd] + [run_experiment(spec) for spec in specs]:
        out = io.StringIO()
        write_json(rows, out)
        payload = {"schema": 1, "rows": [dataclasses.asdict(row) for row in rows]}
        assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_experiment_decode_kind(capsys, tmp_path):
    out = tmp_path / "dec.csv"
    code, _, _ = run_cli(
        capsys, "experiment", "--kind", "decode", "--family", "repetition:50",
        "--m", "2", "--mode", "errors", "--errors", "5", "--trials", "5",
        "--seed", "3", "--out", str(out),
    )
    assert code == 0
    rows = out.read_text().splitlines()[2:]
    assert all(",decode_exact,1,5,true" in line for line in rows)


@pytest.mark.parametrize("errors, mode", [("4", "exact"), ("5", "upper_bound")])
def test_decode_distance_mode_is_exact_up_to_the_unique_radius(capsys, tmp_path, errors, mode):
    """repetition(3)^2 has d^2 = 9 and unique radius 4: up to 4 errors the
    planted codeword is the nearest, so the error count is the distance;
    past it, only an upper bound."""
    out = tmp_path / "dec.csv"
    code, _, _ = run_cli(
        capsys, "experiment", "--kind", "decode", "--family", "repetition:3", "--m", "2",
        "--mode", "errors", "--errors", errors, "--trials", "3", "--out", str(out),
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [row[7] for row in rows] == [mode] * 3


def test_experiment_decode_kind_requires_square_power(capsys, tmp_path):
    out = tmp_path / "dec.csv"
    code, _, err = run_cli(
        capsys, "experiment", "--kind", "decode", "--family", "repetition:5",
        "--m", "7", "--trials", "2", "--out", str(out),
    )
    assert code == 1 and "m must be 2" in err
    assert not out.exists()
    with pytest.raises(ShapeError):
        run_experiment(ExperimentSpec(kind="decode", base="repetition:5", m=3, trials=1))


@pytest.mark.parametrize("mode", ["random", "planted"])
def test_experiment_decode_kind_takes_errors_mode_only(capsys, tmp_path, mode):
    """Decode trials always decode codewords with errors, so any other mode
    would label those rows wrongly: it is refused with exit 1."""
    out = tmp_path / "dec.csv"
    code, _, err = run_cli(
        capsys, "experiment", "--kind", "decode", "--family", "repetition:5",
        "--m", "2", "--mode", mode, "--trials", "2", "--out", str(out),
    )
    assert code == 1 and "mode must be errors" in err
    assert not out.exists()
    with pytest.raises(ValueError, match="mode must be errors"):
        run_experiment(ExperimentSpec(kind="decode", base="repetition:5", m=2, mode=mode))


def test_consecutive_main_calls_share_one_parser(capsys, tmp_path):
    """The parser is built once per process, and no value of one call
    leaks into the next: a sampled run followed by the same run without
    ``--sample-trials`` enumerates every path again."""
    assert cli.build_parser() is cli.build_parser()
    argv = ["experiment", "--kind", "rejection", "--family", "parity:3", "--m", "3",
            "--trials", "2", "--seed", "4"]
    assert run_cli(capsys, *argv, "--sample-trials", "50", "--out", str(tmp_path / "a.csv"))[0] == 0
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "b.csv"))[0] == 0
    sampled, exact = (
        [line.split(",")[8] for line in (tmp_path / name).read_text().splitlines()[2:]]
        for name in ("a.csv", "b.csv")
    )
    assert sampled == ["rejection_sampled"] * 2 and exact == ["rejection_exact"] * 2
    code, out, _ = run_cli(capsys, "test", "--family", "parity:3", "--m", "3", "--help")
    assert code == 0 and "--exact" in out
    code, _, err = run_cli(capsys, "params", "--family", "parity:3", "--m", "3", "--bogus")
    assert code == 1 and "unrecognized arguments: --bogus" in err
    code, _, err = run_cli(capsys, "params", "--family", "parity:3")
    assert code == 1 and "--m" in err
    code, out, _ = run_cli(capsys, "params", "--family", "parity:3", "--m", "3")
    assert code == 0 and out.startswith("n^m=27 ")


def test_experiment_stacks_stay_within_the_entry_budget(monkeypatch):
    """Each chunk's stacked words hold at most CHUNK_ENTRIES entries, and a
    word larger than the budget runs alone."""
    shapes = []
    build_words = noise.build_words

    def spy(code, mode, draws):
        clean, words = build_words(code, mode, draws)
        shapes.append(words.shape)
        return clean, words

    monkeypatch.setattr(noise, "build_words", spy)
    monkeypatch.setattr(experiment, "CHUNK_ENTRIES", 100)
    for kind, m, trials, chunks in (("rejection", 3, 20, 7), ("robustness", 5, 3, 3)):
        shapes.clear()
        spec = ExperimentSpec(kind=kind, base="parity:3", m=m, mode="planted", trials=trials)
        assert len(run_experiment(spec)) == trials
        assert len(shapes) == chunks and sum(shape[0] for shape in shapes) == trials
        assert all(np.prod(shape) <= 100 or shape[0] == 1 for shape in shapes)
    monkeypatch.undo()
    shapes.clear()
    monkeypatch.setattr(noise, "build_words", spy)
    spec = ExperimentSpec(kind="rejection", base="parity:3", m=3, trials=50)
    run_experiment(spec)
    assert shapes == [(50, 3, 3, 3)]  # on one thread, a run within the budget is one chunk
    shapes.clear()
    monkeypatch.setenv("TENSORLTC_THREADS", "2")
    run_experiment(spec)
    # trial 0 alone first, then about one chunk per thread
    assert shapes[0] == (1, 3, 3, 3)
    assert sorted(shapes[1:]) == [(24, 3, 3, 3), (25, 3, 3, 3)]


def test_experiment_threads_do_not_change_output(capsys, tmp_path, monkeypatch):
    spec = ExperimentSpec(
        kind="robustness", base="parity:3", m=3, mode="random", trials=10, seed=77
    )
    sequential = run_experiment(spec)
    monkeypatch.setenv("TENSORLTC_THREADS", "4")
    threaded = run_experiment(spec)
    assert sequential == threaded


@pytest.mark.parametrize("kind", ["robustness", "decode"])
def test_threaded_experiment_enumerates_each_code_once(capsys, tmp_path, monkeypatch, kind):
    """Every lazy codebook is built before the trials fan out over threads."""
    family, m = ("parity:3", "3") if kind == "robustness" else ("repetition:30", "2")
    argv = ["experiment", "--kind", kind, "--family", family, "--m", m, "--trials", "40"]
    if kind == "decode":
        argv += ["--mode", "errors"]  # decode experiments take no other mode
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "one.csv"))
    assert code == 0

    enumerations = Counter()
    blocks = LinearCode._blocks

    def slow_counting_blocks(self):
        enumerations[id(self)] += 1
        time.sleep(0.05)  # hands the other thread the interpreter mid-build
        return blocks(self)

    monkeypatch.setattr(LinearCode, "_blocks", slow_counting_blocks)
    monkeypatch.setenv("TENSORLTC_THREADS", "2")
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "two.csv"))
    assert code == 0
    # robustness: the base distance, the flat codebook and the plane-view
    # codebook; decode: the base code's packed blocks, which its distance
    # and its codebook both read
    assert sorted(enumerations.values()) == ([1, 1, 1] if kind == "robustness" else [1])
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_threaded_robustness_experiment_writes_the_same_csv(capsys, tmp_path, monkeypatch):
    """Worker threads share the code's one-entry plane-opinion memo."""
    argv = ["experiment", "--kind", "robustness", "--family", "parity:3", "--m", "4",
            "--mode", "errors", "--errors", "2", "--trials", "16", "--seed", "5"]
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "one.csv"))[0] == 0
    monkeypatch.setenv("TENSORLTC_THREADS", "2")
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "two.csv"))[0] == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_violation_rows_exit_four(capsys, tmp_path, monkeypatch):
    bad_row = ResultRow(
        trial=0, kind="robustness", mode="random", m=3, n=3, seed=1,
        true_distance="1/27", distance_mode="exact", statistic="robustness_exact",
        value="0", bound="1/27", bound_satisfied="false",
    )
    monkeypatch.setattr(cli, "run_experiment", lambda spec: [bad_row])
    out = tmp_path / "v.csv"
    code, _, err = run_cli(
        capsys, "experiment", "--kind", "robustness", "--family", "parity:3",
        "--m", "3", "--trials", "1", "--out", str(out),
    )
    assert code == 4
    assert "violate" in err
    assert violations([bad_row]) == 1


def test_trial_seed_stability():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    assert trial_seed(0, 1) != trial_seed(0, 2)
    assert trial_seed(1, 0) != trial_seed(2, 0)


def test_distance_lower_bound_mode_above_enumeration_cap():
    from fractions import Fraction

    from tensorltc.experiment import distance_lower_bound_batch
    from tensorltc.noise import random_codeword, random_word

    # parity(3)^5 has 2^32 codewords, beyond the exact-oracle cap
    tall = TensorCode(parity_code(3), 5)
    delta, mode = word_relative_distance(tall, random_codeword(tall, 0))
    assert (delta, mode) == (0, "lower_bound")
    word = random_word(tall, 1)
    delta, mode = word_relative_distance(tall, word)
    assert mode == "lower_bound" and delta > 0

    # on an enumerable instance the lower bound never exceeds the truth
    cube = TensorCode(parity_code(3), 3)
    for seed in range(30):
        word = random_word(cube, seed)
        delta, mode = word_relative_distance(cube, word)
        assert mode == "exact"
        assert Fraction(distance_lower_bound_batch(cube, word.entries[None])[0], 27) <= delta


def test_experiment_survives_lower_bound_distance_mode():
    spec = ExperimentSpec(
        kind="robustness", base="parity:3", m=5, mode="errors", errors=1,
        trials=2, seed=1,
    )
    rows = run_experiment(spec)
    assert all(row.distance_mode == "lower_bound" for row in rows)
    assert all(row.bound_satisfied == "true" for row in rows)


# -- malformed input files ---------------------------------------------------------

JUNK = st.sampled_from(["x", "1.5", "-1", "0x1", "nan", "99999999999999999999", "-0", "1e3", ""])


@st.composite
def malformed_file(draw, valid_header, count_of) -> bytes:
    """The ``p a b`` header ``valid_header`` with a body of ``count_of(a, b)``
    symbols, then at most one kind of damage: a header number changed, a
    junk header token, a short header, a junk body token, one symbol too
    many or too few, or raw bytes in place of the text."""
    header = list(valid_header)
    damage = draw(st.integers(0, 9))
    if damage == 4:
        header[draw(st.integers(0, 2))] = draw(st.integers(-1, 5))
    p = max(2, header[0])
    size = min(count_of(*header[1:]), 200)
    body = [str(v) for v in draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))]
    head = [str(v) for v in header]
    if damage == 5:
        head[draw(st.integers(0, 2))] = draw(JUNK)
    elif damage == 6:
        head = head[: draw(st.integers(0, 2))]
    elif damage == 7 and body:
        body[draw(st.integers(0, len(body) - 1))] = draw(JUNK)
    elif damage == 8:
        body = body[:-1] if draw(st.booleans()) else body + ["0"]
    elif damage == 9:
        return draw(st.binary(max_size=60))
    return (" ".join(head) + "\n" + " ".join(body) + "\n").encode()


def code_entries(n, k):
    return max(0, n * k)


def tensor_entries(m, n):
    return n**m if 1 <= m <= 4 and n >= 0 else 0


@pytest.mark.filterwarnings("ignore:generator rows have rank")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_malformed_files_map_to_documented_exit_codes(data):
    """membership, decode and analyze never let a traceback out: every
    malformed code or word file ends in one of the exit codes 0-4."""
    m = data.draw(st.integers(1, 3))
    code_file = data.draw(malformed_file((2, 3, 2), code_entries))  # near a [3, 2] binary code
    word_file = data.draw(malformed_file((2, m, 3), tensor_entries))
    source = data.draw(st.sampled_from(["file", "parity:3"]))
    with tempfile.TemporaryDirectory() as tmp:
        code_path, word_path = Path(tmp) / "code.txt", Path(tmp) / "word.txt"
        code_path.write_bytes(code_file)
        word_path.write_bytes(word_file)
        base = ["--code", str(code_path)] if source == "file" else ["--family", source]
        for command in ("membership", "decode", "analyze"):
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                status = cli.main([command, *base, "--m", str(m), "--word", str(word_path)])
            assert status in range(5)
            assert "Traceback" not in stderr.getvalue()
