"""Run a fixed set of seed-0 CLI commands and print one sha256 over their output.

Each command's exit code, stdout, stderr and output file are hashed in
order, so two checkouts that print the same digest produce byte-identical
results on the whole set. Word files are made with ``tensorltc.noise`` at
seed 0. The package is imported from this checkout's ``src/``.

    python3 scripts/cli_identity.py             # digest of the whole set
    python3 scripts/cli_identity.py --verbose   # plus one digest per command
    python3 scripts/cli_identity.py --only decode   # the decode-heavy slice
    python3 scripts/cli_identity.py --only analyze  # plane opinions and analysis
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from tensorltc import cli, noise  # noqa: E402
from tensorltc.experiment import resolve_base_code  # noqa: E402
from tensorltc.tensor_code import TensorCode, TensorWord, save_tensor  # noqa: E402


def _words(tmp: Path) -> dict[str, Path]:
    """Every word file the commands read, keyed by name."""
    specs = {}

    def code(family, m):
        return TensorCode(resolve_base_code(family), m)

    p3_3, p3_4, p3_5 = code("parity:3", 3), code("parity:3", 4), code("parity:3", 5)
    r3 = code("random:4,2,3,1", 3)
    rep = code("repetition:50", 2)
    ham = code("hamming74", 2)
    specs["p3_3_random"] = noise.random_word(p3_3, 0)
    specs["p3_3_planted"] = noise.planted_word(p3_3, 0)
    specs["p3_4_random"] = noise.random_word(p3_4, 0)
    specs["p3_4_err3"] = noise.codeword_plus_errors(p3_4, 3, 0)[1]
    specs["p3_5_err4"] = noise.codeword_plus_errors(p3_5, 4, 0)[1]
    specs["r3_err2"] = noise.codeword_plus_errors(r3, 2, 0)[1]
    for name, cube in (("p3_3", p3_3), ("p3_4", p3_4), ("ham3", code("hamming74", 3)), ("r3", r3)):
        specs[f"{name}_random"] = noise.random_word(cube, 0)
        for errors in range(1, 5):
            specs[f"{name}_err{errors}"] = noise.codeword_plus_errors(cube, errors, 0)[1]
    specs["rep_err30"] = noise.codeword_plus_errors(rep, 30, 0)[1]
    specs["rep_err1500"] = noise.codeword_plus_errors(rep, 1500, 0)[1]
    specs["rep_random"] = noise.random_word(rep, 0)
    # 30 flips in one row: the row is removed and re-extended by erasures
    clean = noise.random_codeword(rep, 0).entries.copy()
    clean[20, :30] ^= 1
    specs["rep_row_burst"] = TensorWord(rep.field, clean)
    # lines removed at the default threshold: two words fail in pass 4
    # (row-erasure-ambiguous, column-erasure-ambiguous), one completes
    for errors, seed in ((2, 0), (6, 0), (2, 2)):
        specs[f"ham_err{errors}_s{seed}"] = noise.codeword_plus_errors(ham, errors, seed)[1]
    ham_clean = noise.random_codeword(ham, 0).entries
    for pos in range(49):
        flipped = ham_clean.copy()
        flipped[divmod(pos, 7)] ^= 1
        specs[f"ham_flip{pos}"] = TensorWord(ham.field, flipped)
    paths = {}
    for name, word in specs.items():
        paths[name] = tmp / f"{name}.txt"
        save_tensor(word, paths[name])
    (tmp / "msg3.txt").write_text(" ".join(str(v) for v in np.arange(8) % 2) + "\n")
    (tmp / "msg4.txt").write_text(" ".join(str(v) for v in np.arange(16) % 2) + "\n")
    return paths


def _commands(w: dict[str, Path], tmp: Path) -> list[tuple[str, list[str], Path | None]]:
    """(slice, argv, output file) for every command, in a fixed order."""
    cmds: list[tuple[str, list[str], Path | None]] = []
    out = tmp / "out"

    def experiment(slice_, *args):
        for fmt in ("csv", "json"):
            argv = ["experiment", *args, "--seed", "0", "--format", fmt, "--out", str(out)]
            cmds.append((slice_, argv, out))

    experiment("other", "--kind", "robustness", "--family", "parity:3", "--m", "3", "--trials", "30")
    experiment("other", "--kind", "robustness", "--family", "parity:3", "--m", "4",
               "--mode", "errors", "--errors", "2", "--trials", "8")
    experiment("other", "--kind", "robustness", "--family", "parity:3", "--m", "3",
               "--mode", "planted", "--axes", "3", "--trials", "20")
    experiment("other", "--kind", "rejection", "--family", "parity:3", "--m", "3", "--trials", "30")
    for axes in ("m", "3"):
        experiment("other", "--kind", "rejection", "--family", "parity:3", "--m", "4",
                   "--mode", "errors", "--errors", "3", "--axes", axes, "--trials", "5")
    experiment("other", "--kind", "rejection", "--family", "parity:3", "--m", "4",
               "--sample-trials", "300", "--trials", "5")
    experiment("other", "--kind", "rejection", "--family", "random:4,2,3,1", "--m", "3",
               "--mode", "errors", "--errors", "2", "--trials", "10")
    experiment("decode", "--kind", "decode", "--family", "repetition:50", "--m", "2",
               "--mode", "errors", "--errors", "5", "--trials", "30")
    experiment("decode", "--kind", "decode", "--family", "hamming74", "--m", "2",
               "--mode", "errors", "--errors", "1", "--trials", "30")

    for family, m, word, slice_ in (
        ("parity:3", "3", "p3_3_random", "other"),
        ("parity:3", "3", "p3_3_planted", "decode"),
        ("parity:3", "4", "p3_4_err3", "other"),
        ("random:4,2,3,1", "3", "r3_err2", "other"),
    ):
        argv = ["analyze", "--family", family, "--m", m, "--word", str(w[word])]
        cmds.append((slice_, [*argv, "--out", str(out)], out))

    for family, m, prefix in (
        ("parity:3", "3", "p3_3"),
        ("parity:3", "4", "p3_4"),
        ("hamming74", "3", "ham3"),
        ("random:4,2,3,1", "3", "r3"),
    ):
        for word in [f"{prefix}_random"] + [f"{prefix}_err{e}" for e in range(1, 5)]:
            base = ["--family", family, "--m", m, "--word", str(w[word])]
            cmds.append(("analyze", ["analyze", *base, "--out", str(out)], out))
            cmds.append(("analyze", ["robustness", *base, "--axes", "m"], None))
            cmds.append(("analyze", ["robustness", *base, "--axes", "3"], None))
    experiment("analyze", "--kind", "robustness", "--family", "parity:3", "--m", "3",
               "--axes", "3", "--trials", "20")
    experiment("analyze", "--kind", "robustness", "--family", "parity:3", "--m", "4",
               "--mode", "errors", "--errors", "3", "--axes", "3", "--trials", "8")

    trace = tmp / "trace.json"
    decodes = [("repetition:50", name) for name in
               ("rep_err30", "rep_err1500", "rep_random", "rep_row_burst")]
    decodes += [("hamming74", name) for name in ("ham_err2_s0", "ham_err6_s0", "ham_err2_s2")]
    decodes += [("hamming74", f"ham_flip{pos}") for pos in range(49)]
    for family, word in decodes:
        argv = ["decode", "--family", family, "--word", str(w[word]), "--trace", str(trace)]
        cmds.append(("decode", argv, trace))

    for family, m, word in (
        ("parity:3", "4", "p3_4_random"),
        ("parity:3", "4", "p3_4_err3"),
        ("parity:3", "5", "p3_5_err4"),
        ("random:4,2,3,1", "3", "r3_err2"),
    ):
        base = ["--family", family, "--m", m, "--word", str(w[word])]
        cmds.append(("other", ["test", *base, "--exact", "--axes", "3"], None))
        cmds.append(("other", ["test", *base, "--exact", "--axes", "m"], None))
        cmds.append(("other", ["test", *base, "--trials", "1000", "--seed", "0"], None))
        cmds.append(("other", ["test", *base, "--trials", "777", "--seed", "5", "--axes", "3"], None))
        cmds.append(("other", ["robustness", *base], None))
        cmds.append(("other", ["membership", *base], None))

    for m in ("3", "4"):
        encoded = tmp / f"enc{m}.txt"
        base = ["--family", "parity:3", "--m", m]
        message = str(tmp / f"msg{m}.txt")
        cmds.append(("other", ["encode", *base, "--message", message, "--out", str(encoded)], encoded))
        cmds.append(("other", ["membership", *base, "--word", str(encoded)], None))
    return cmds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=["analyze", "decode", "other"], help="run one slice of the set")
    parser.add_argument("--verbose", action="store_true", help="print one digest per command")
    args = parser.parse_args()
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        words = _words(tmp)
        for slice_, argv, target in _commands(words, tmp):
            if args.only and slice_ != args.only:
                continue
            if target is not None and target.exists():
                target.unlink()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = cli.main(argv)
            record = hashlib.sha256()
            # temporary paths differ between runs; hash the text without them
            for part in (str(status), stdout.getvalue(), stderr.getvalue()):
                record.update(part.replace(name, "TMP").encode() + b"\0")
            record.update(target.read_bytes() if target is not None and target.exists() else b"-")
            total.update(record.digest())
            count += 1
            if args.verbose:
                shown = [a.replace(name, "TMP") for a in argv]
                print(f"{record.hexdigest()[:16]} exit={status} {' '.join(shown)}")
    print(f"{count} commands sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
