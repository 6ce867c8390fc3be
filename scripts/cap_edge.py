"""Run the capacity-edge grid of ``experiment --trials 1`` commands, one child at a time.

Each command runs in its own child process under a 2 GiB address-space
limit (``RLIMIT_AS``) and one BLAS thread, with a 60 s timeout, strictly
one after another so that at most one child holds memory at a time. The
grid covers three tester kinds, robustness, exact rejection and sampled
rejection (100 draws), over parity(3) and repetition(3) at m = 5..16,
parity(2) at m in {10, 14, 18, 22, 24, 25}, parity(4) at m = 4..13 and
parity(26) at m in {3, 5}, whose 2^25 base codewords are too many to
search for the minimum distance, and decoding with 5 errors over repetition(n)^2 for n in {1024, 2048,
4096, 4097}. Three more commands ask for 10^12 of a count over
parity(3)^4: tester draws of ``test``, ``--sample-trials`` and
``--trials`` of a rejection experiment.

For each command it prints the exit code, the wall time, the child's
peak resident set and the last line it wrote to stderr. A size the caps
let through should exit 0; one they refuse should exit 2 within half a
second, child start-up included. A traceback (exit 1), a timeout or a
slower refusal is a fault. The package is imported from this checkout's
``src/``.

    python3 scripts/cap_edge.py                       # the whole grid (minutes)
    python3 scripts/cap_edge.py --kind rejection      # exact rejection rows only
    python3 scripts/cap_edge.py --kind decode         # the square decoder's rows
    python3 scripts/cap_edge.py --kind counts         # the huge-count rows
    python3 scripts/cap_edge.py --family parity:2     # one family's rows
    python3 scripts/cap_edge.py --kind rejection --family parity:3 --m 14   # one row
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT = 2 << 30
TIMEOUT_S = 60
REFUSAL_S = 0.5

CHILD = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({LIMIT}, {LIMIT}))
from tensorltc import cli
sys.exit(cli.main(sys.argv[1:]))
"""

KINDS = {
    "robustness": ["--kind", "robustness"],
    "rejection": ["--kind", "rejection"],
    "sampled": ["--kind", "rejection", "--sample-trials", "100"],
    "decode": ["--kind", "decode", "--mode", "errors", "--errors", "5"],
}

GRID = [
    ("parity:3", range(5, 17)),
    ("repetition:3", range(5, 17)),
    ("parity:2", (10, 14, 18, 22, 24, 25)),
    ("parity:4", range(4, 14)),
    ("parity:26", (3, 5)),
]
DECODE_GRID = [(f"repetition:{n}", (2,)) for n in (1024, 2048, 4096, 4097)]
HUGE = "1000000000000"
# (label, arguments) of the counts past their caps, over parity(3)^4
COUNTS = [
    ("draws", ["test", "--trials", HUGE]),
    ("samples", ["experiment", "--kind", "rejection", "--trials", "1", "--sample-trials", HUGE]),
    ("trials", ["experiment", "--kind", "rejection", "--trials", HUGE]),
]


def commands(kinds: list[str], families: list[str], tmp: Path):
    """(kind, family, m, CLI arguments) of every selected command."""
    for kind in kinds:
        if kind == "counts":
            if "parity:3" in families:
                for label, argv in COUNTS:
                    if argv[0] == "test":  # the tester reads a word: parity(3)^4's zero word
                        (tmp / "word.txt").write_text("2 4 3\n" + " 0" * 81 + "\n")
                        argv = [*argv, "--word", str(tmp / "word.txt")]
                    else:
                        argv = [*argv, "--out", str(tmp / "rows.csv")]
                    yield label, "parity:3", 4, [*argv, "--family", "parity:3", "--m", "4"]
            continue
        for family, exponents in DECODE_GRID if kind == "decode" else GRID:
            if family in families:
                for m in exponents:
                    argv = ["experiment", *KINDS[kind], "--family", family, "--m", str(m)]
                    yield kind, family, m, [*argv, "--trials", "1", "--out", str(tmp / "rows.csv")]


def run(argv: list[str], tmp: Path) -> tuple[int | None, float, float, str]:
    """(exit code or None on timeout, wall s, peak RSS MB, last stderr line)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    with open(tmp / "stderr.txt", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD, *argv],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        timer = threading.Timer(TIMEOUT_S, child.kill)
        timer.start()
        # wait4 reports the resources of this one child, not of all children
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        timed_out = not timer.is_alive()
        timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        lines = [line.strip() for line in err if line.strip()]
    code = None if timed_out else child.returncode
    return code, wall, usage.ru_maxrss / 1024, lines[-1] if lines else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=sorted([*KINDS, "counts"]), action="append")
    parser.add_argument(
        "--family", choices=[family for family, _ in GRID + DECODE_GRID], action="append"
    )
    parser.add_argument("--m", type=int, action="append", help="only rows of this exponent")
    args = parser.parse_args(argv)
    kinds = args.kind or [*KINDS, "counts"]
    families = args.family or [family for family, _ in GRID + DECODE_GRID]
    faults = 0
    print(f"{'kind':<10} {'family':<13} {'m':>2} {'exit':>7} {'wall_s':>7} {'peak_mb':>8}  last stderr line")
    with tempfile.TemporaryDirectory() as tmp:
        for kind, family, m, argv in commands(kinds, families, Path(tmp)):
            if args.m and m not in args.m:
                continue
            code, wall, peak, last = run(argv, Path(tmp))
            faults += code not in (0, 2) or (code == 2 and wall > REFUSAL_S)
            shown = "timeout" if code is None else str(code)
            print(f"{kind:<10} {family:<13} {m:>2} {shown:>7} {wall:>7.2f} {peak:>8.0f}  {last}", flush=True)
    print(f"{faults} commands ended in a traceback, a timeout or a refusal slower than {REFUSAL_S} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
