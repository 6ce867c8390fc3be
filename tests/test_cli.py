import json
import time
from collections import Counter

import numpy as np
import pytest

from tensorltc import cli
from tensorltc.experiment import (
    ExperimentSpec,
    ResultRow,
    resolve_base_code,
    run_experiment,
    trial_seed,
    violations,
)
from tensorltc.linear_code import LinearCode, hamming74, parity_code
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


def test_capacity_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "params", "--family", "random:30,26,2,0", "--m", "2")
    assert code == 2
    assert "capacity" in err.lower()


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
