import contextlib
import io
import json
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorltc import cli
from tensorltc.analysis import compute_opinions
from tensorltc.errors import CapacityError, ShapeError
from tensorltc.experiment import (
    ExperimentSpec,
    ResultRow,
    resolve_base_code,
    run_experiment,
    trial_seed,
    violations,
)
from tensorltc.linear_code import LinearCode, hamming74, parity_code
from tensorltc.local_testing import robustness_exact
from tensorltc.noise import random_codeword
from tensorltc.tensor_code import TensorCode, save_tensor


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
    from tensorltc.linear_code import save_code

    save_code(parity_code(3), path)
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


@pytest.mark.parametrize("m", ["99999999999999999999", "65"])
def test_tensor_exponent_outside_1_to_64_exits_one(capsys, tmp_path, m):
    code, _, err = run_cli(capsys, "params", "--family", "parity:3", "--m", m)
    assert code == 1 and "[1, 64]" in err
    code, _, err = run_cli(
        capsys, "experiment", "--kind", "robustness", "--family", "parity:3",
        "--m", m, "--trials", "1", "--out", str(tmp_path / "rows.csv"),
    )
    assert code == 1 and "[1, 64]" in err


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


@pytest.mark.parametrize("kind, m", [("rejection", "30"), ("robustness", "64")])
def test_experiment_words_above_the_file_cap_exit_two_at_once(capsys, tmp_path, kind, m):
    """n^m is checked against the word-file cap before any word or code is
    built: 3^30 entries would need petabytes, and 3^64 a 2^(2^64) count."""
    out = tmp_path / "rows.csv"
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "experiment", "--kind", kind, "--family", "parity:3", "--m", m,
        "--trials", "2", "--out", str(out),
    )
    assert time.perf_counter() - start < 1
    assert code == 2 and f"3^{m} entries" in err and "Traceback" not in err
    assert not out.exists()


def test_plane_oracle_refuses_before_building_its_flat_code(capsys, tmp_path, monkeypatch):
    """parity(64)^3's plane views would be searched over 2^(63^2)
    codewords: the cap is hit without the Kronecker generator being built."""
    built = []
    monkeypatch.setattr(TensorCode, "flattened", lambda self: built.append(self))
    base = parity_code(64)
    word = TensorCode(base, 3).encode(np.zeros(63**3, dtype=np.int64))
    for call in (robustness_exact, compute_opinions):
        with pytest.raises(CapacityError, match=r"2\^3969 codewords"):
            call(word, TensorCode(base, 3))
    with pytest.raises(CapacityError, match=r"2\^250047 codewords"):
        TensorCode(base, 3).distance_to(word)
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
    # codebook; decode: the distance and the codebook of the base code
    assert sorted(enumerations.values()) == ([1, 1, 1] if kind == "robustness" else [2])
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

    from tensorltc.experiment import distance_lower_bound, word_relative_distance
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
        assert distance_lower_bound(cube, word) <= cube.distance_to(word)


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
