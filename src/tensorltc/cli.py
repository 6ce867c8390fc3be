"""Command-line front end.

Subcommands cover code/tensor file round trips, membership, the composed
tester, exact robustness, the disagreement analyzer, the square-power
decoder, and reproducible experiment sweeps.

Exit codes: 0 success, 1 usage or input error, 2 capacity cap hit,
3 decode failure, 4 a bound-violation row in an experiment.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .analysis import analyze_word
from .decoding import DecoderConfig, decode_square
from .errors import CapacityError, ShapeError
from .experiment import (
    ExperimentSpec,
    resolve_base_code,
    run_experiment,
    violations,
    word_relative_distance,
    write_csv,
    write_json,
)
from .local_testing import (
    composed_robustness_bound,
    rejection_probability_exact,
    rejection_probability_sampled,
    robustness_exact,
    robustness_lower_bound,
)
from .tensor_code import TensorCode, TensorWord, load_tensor, save_tensor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_DECODE = 3
EXIT_VIOLATION = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(f"{self.prog}: {message}"))


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(message, file=sys.stderr)
    return code


def _axis_mode(flag: str) -> str:
    return "first-three" if flag == "3" else "all"


def _add_code_args(sub, default_m: int | None = None):
    sub.add_argument(
        "--family",
        help="base code family: parity:n | repetition:n | hamming74 | random:n,k,p,seed | file:PATH",
    )
    sub.add_argument("--code", help="base code file (alternative to --family)")
    if default_m is None:
        sub.add_argument("--m", type=int, required=True, help="tensor exponent")
    else:
        sub.add_argument("--m", type=int, default=default_m, help="tensor exponent")


def _base_code(args):
    if bool(args.family) == bool(args.code):
        raise ValueError("exactly one of --family or --code is required")
    return resolve_base_code(args.family if args.family else f"file:{args.code}")


def _load_word(code: TensorCode, path: str) -> TensorWord:
    word = load_tensor(path)
    code.check_shape(word)
    return word


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tensorltc", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("params", help="print tensor-power code parameters")
    _add_code_args(sub)

    sub = subs.add_parser("encode", help="encode a message file to a tensor word file")
    _add_code_args(sub)
    sub.add_argument("--message", required=True, help="file of k^m whitespace-separated symbols")
    sub.add_argument("--out", required=True, help="output tensor word file")

    sub = subs.add_parser("membership", help="test whether a word belongs to the code")
    _add_code_args(sub)
    sub.add_argument("--word", required=True, help="tensor word file")

    sub = subs.add_parser("test", help="run the composed plane tester on a word")
    _add_code_args(sub)
    sub.add_argument("--word", required=True)
    sub.add_argument("--trials", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--axes", choices=["3", "m"], default="m")
    sub.add_argument("--exact", action="store_true", help="enumerate every tester path")

    sub = subs.add_parser("robustness", help="exact robustness of a word under the plane tester")
    _add_code_args(sub)
    sub.add_argument("--word", required=True)
    sub.add_argument("--axes", choices=["3", "m"], default="m")

    sub = subs.add_parser("analyze", help="emit the disagreement report for a word")
    _add_code_args(sub)
    sub.add_argument("--word", required=True)
    sub.add_argument("--out", help="write JSON here instead of stdout")

    sub = subs.add_parser("decode", help="decode a two-axis word to the square power")
    _add_code_args(sub, default_m=2)
    sub.add_argument("--word", required=True)
    sub.add_argument("--radius", type=int, help="per-line decoding radius override")
    sub.add_argument("--out", help="write the decoded tensor word here")
    sub.add_argument("--trace", help="write the decode trace as JSON here")

    sub = subs.add_parser("experiment", help="run a reproducible experiment sweep")
    _add_code_args(sub)
    sub.add_argument("--kind", choices=["robustness", "rejection", "decode"], required=True)
    sub.add_argument("--mode", choices=["random", "errors", "planted"], default="random")
    sub.add_argument("--errors", type=int, default=1, help="errors per word for mode=errors/decode")
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--axes", choices=["3", "m"], default="m")
    sub.add_argument(
        "--sample-trials",
        type=int,
        default=0,
        help="rejection kind: tester draws per word (0 = exact enumeration)",
    )
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--out", required=True)

    return parser


def cmd_params(args) -> int:
    code = TensorCode(_base_code(args), args.m)
    params = code.params()
    print(
        f"n^m={params.blocklength} k^m={params.dimension} d^m={params.distance} "
        f"rate={params.rate} delta={params.relative_distance}"
    )
    return EXIT_OK


def cmd_encode(args) -> int:
    code = TensorCode(_base_code(args), args.m)
    with open(args.message, "r", encoding="utf-8") as fh:
        symbols = code.field.parse(fh.read().split())
    word = code.encode(symbols)
    save_tensor(word, args.out)
    return EXIT_OK


def cmd_membership(args) -> int:
    code = TensorCode(_base_code(args), args.m)
    word = _load_word(code, args.word)
    print("true" if code.contains(word) else "false")
    return EXIT_OK


def cmd_test(args) -> int:
    code = TensorCode(_base_code(args), args.m)
    word = _load_word(code, args.word)
    axis_mode = _axis_mode(args.axes)
    if args.exact:
        rejection = rejection_probability_exact(word, code, axis_mode)
        print(f"rejection={rejection} mode=exact")
    else:
        sampled = rejection_probability_sampled(word, code, args.trials, args.seed, axis_mode)
        print(
            f"rejection={sampled.estimate} mode=sampled trials={sampled.trials} "
            f"seed={sampled.seed} stderr={sampled.standard_error:.6g}"
        )
    return EXIT_OK


def cmd_robustness(args) -> int:
    code = TensorCode(_base_code(args), args.m)
    word = _load_word(code, args.word)
    rho = robustness_exact(word, code, _axis_mode(args.axes))
    coefficient = robustness_lower_bound(code)
    delta, mode = word_relative_distance(code, word)
    threshold = coefficient * delta
    ratio = "inf" if threshold == 0 else str(Fraction(rho, threshold))
    satisfied = rho >= threshold
    print(
        f"rho={rho} bound={coefficient} delta={delta} distance_mode={mode} "
        f"rho_over_bound_delta={ratio} satisfied={str(satisfied).lower()}"
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    code = TensorCode(_base_code(args), args.m)
    word = _load_word(code, args.word)
    result = analyze_word(word, code)
    text = json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_decode(args) -> int:
    base = _base_code(args)
    if args.m != 2:
        raise ValueError("decode operates on the square power; --m must be 2")
    code = TensorCode(base, 2)
    word = _load_word(code, args.word)
    cfg = DecoderConfig.for_code(base, radius=args.radius)
    decoded, trace = decode_square(word, cfg)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(trace.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if decoded is None:
        return _fail(f"decode failed: {trace.status}", EXIT_DECODE)
    if args.out:
        save_tensor(decoded, args.out)
    print(f"decoded distance={trace.result_distance} budget={trace.budget}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        kind=args.kind,
        base=args.family if args.family else f"file:{args.code}",
        m=args.m,
        mode=args.mode,
        errors=args.errors,
        trials=args.trials,
        seed=args.seed,
        axis_mode=_axis_mode(args.axes),
        sample_trials=args.sample_trials,
    )
    if bool(args.family) == bool(args.code):
        raise ValueError("exactly one of --family or --code is required")
    rows = run_experiment(spec)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        if args.format == "csv":
            write_csv(rows, fh)
        else:
            write_json(rows, fh)
    bad = violations(rows)
    if bad:
        return _fail(f"{bad} of {len(rows)} rows violate their bound", EXIT_VIOLATION)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "params": cmd_params,
    "encode": cmd_encode,
    "membership": cmd_membership,
    "test": cmd_test,
    "robustness": cmd_robustness,
    "analyze": cmd_analyze,
    "decode": cmd_decode,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CapacityError as exc:
        return _fail(f"capacity cap: {exc}", EXIT_CAPACITY)
    except (ValueError, ShapeError, OSError) as exc:
        return _fail(str(exc))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
