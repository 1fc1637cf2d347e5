"""Command-line front end: one JSON document per invocation on stdout.

Exit codes: 0 success (or certified), 1 not certified / suite failure,
2 usage or parse error.  Diagnostics go to stderr.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # argparse is imported where a parser is built, off the well-formed path
    import argparse

from .bott import BlockedWeight, bbw_cohomology
from .geometry import parse_shape, parse_variety, quotient_ranks
from .syzygy import SCHEMA_VERSION, np_certify, np_threshold

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_USAGE = 2

_BLOCK_RE = re.compile(r"\[[^\[\]]*\]")
# bracketed blocks separated by single commas, with whitespace around them
_BLOCK_LIST_RE = re.compile(rf"\s*{_BLOCK_RE.pattern}\s*(?:,\s*{_BLOCK_RE.pattern}\s*)*")


def _parse_block_list(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse a comma-separated list of bracketed integer blocks."""
    if not _BLOCK_LIST_RE.fullmatch(text):
        raise ValueError(f"cannot parse weight blocks from {text!r}")
    blocks = []
    for g in _BLOCK_RE.findall(text):
        body = g[1:-1].strip()
        if not body:
            raise ValueError(f"empty weight block {g!r}")
        try:
            blocks.append(tuple(map(int, body.split(","))))
        except ValueError:
            raise ValueError(f"bad integer in weight block {g!r}") from None
    return tuple(blocks)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


# json.dumps builds a new encoder for each call with sort_keys; one is enough
_ENCODER = json.JSONEncoder(sort_keys=True)


def _emit(doc: dict) -> None:
    # Exact dimensions can pass the int->str digit limit of Python >= 3.10.7,
    # so lift it for this dump only; older versions have no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = _ENCODER.encode(doc)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")


def cmd_cohomology(args: SimpleNamespace) -> int:
    shape = parse_shape(args.shape)
    blocks = _parse_block_list(args.weight)
    ranks = quotient_ranks(shape)
    if tuple(len(b) for b in blocks) != ranks:
        raise ValueError(
            f"weight block lengths {tuple(len(b) for b in blocks)} do not match "
            f"quotient ranks {ranks} of {args.shape}"
        )
    _emit(bbw_cohomology(BlockedWeight(blocks)).to_json_dict())
    return EXIT_OK


def cmd_np(args: SimpleNamespace) -> int:
    spec = parse_variety(args.spec)
    coeffs = _parse_int_list(args.L)
    cert = np_certify(spec, coeffs, args.p)
    _emit(cert.to_json_dict())
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def cmd_np_threshold(args: SimpleNamespace) -> int:
    family = {"C": "C", "B": "BD", "D": "BD", "BD": "BD"}.get(args.family.upper())
    if family is None:
        raise ValueError(f"unknown family {args.family!r} (expected C, B, D, or BD)")
    ranks = _parse_int_list(args.ranks)
    thr = np_threshold(family, ranks, args.p)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "family": family,
            "ranks": list(ranks),
            "p": args.p,
            "threshold": {"num": thr.value.numerator, "den": thr.value.denominator},
            "witness_config": list(thr.witness_config),
        }
    )
    return EXIT_OK


def cmd_verify(args: SimpleNamespace) -> int:
    from .verify import run_suite  # here, so other subcommands never load the suites

    summary = run_suite(args.suite, cases=args.cases, seed=args.seed)
    _emit(summary)
    return EXIT_OK if summary["pass"] else EXIT_NOT_CERTIFIED


# The options of the table subcommands, declared once: name -> (command
# function, help, options).  Each option is (flag, dest, type, help); every
# one is required, and a type of None keeps the string as given, as argparse
# does.  build_parser makes these subparsers from it, and _read_table reads a
# well-formed argv off it without building any parser.
_TABLE = {
    "cohomology": (cmd_cohomology, "all cohomology of a Schur-power bundle", (
        ("--shape", "shape", None, 'flag shape, e.g. "fl(1;2)"'),
        ("--weight", "weight", None, 'blocked weight, e.g. "[3],[0]"'),
    )),
    "np": (cmd_np, "certify Property (N_p) for an ample bundle", (
        ("--spec", "spec", None, 'variety, e.g. "sfl(6,5,3;12)" or "g2x"'),
        ("--L", "L", None, 'line-bundle coefficients, e.g. "3,2,1"'),
        ("--p", "p", int, None),
    )),
    "np-threshold": (cmd_np_threshold, "exact rational gap threshold", (
        ("--family", "family", None, "C, B, D, or BD"),
        ("--ranks", "ranks", None, 'tail quotient ranks, e.g. "1,2,3"'),
        ("--p", "p", int, None),
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The np-atlas argument parser, built once per process.

    Each parse_args call returns a fresh Namespace, so the cached parser
    carries no state from one main call to the next.  Its ``commands`` maps
    each subcommand name to that subcommand's own parser.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="np-atlas",
        description="Exact cohomology of homogeneous bundles and syzygy certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    for command, (fn, summary, options) in _TABLE.items():
        p = sub.add_parser(command, help=summary)
        for flag, dest, convert, help_text in options:
            p.add_argument(flag, dest=dest, required=True, type=convert, help=help_text)
        p.set_defaults(fn=fn)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def _read_table(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse returns for a table subcommand's plain argv, else None.

    Plain means every option of the subcommand exactly once, each as its full
    flag followed by a str value that does not start with "-", and every typed
    value converting with the type argparse calls.  argparse reads such an
    argv the same way; anything else (help, abbreviations, "--flag=value",
    repeats, "--", a value like "-1", a bad value) is left to it, so help,
    usage and every error still come from argparse.  main refuses an entry
    that is not a str, which argparse cannot read, before calling this.  The
    attributes come in a SimpleNamespace, which the commands read as they
    read argparse's Namespace; argparse itself stays unloaded.
    """
    entry = _TABLE.get(argv[0]) if argv else None
    if entry is None:
        return None
    fn, _, options = entry
    if len(argv) != 1 + 2 * len(options):
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    values = {}
    for flag, dest, convert, _ in options:
        text = given.get(flag)
        if not isinstance(text, str) or text.startswith("-"):
            return None
        if convert is not None:
            try:
                text = convert(text)
            except ValueError:
                return None
        values[dest] = text
    # a repeated flag leaves another flag out, so it is caught above
    return SimpleNamespace(command=argv[0], fn=fn, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    for arg in argv:  # argparse and the option table read strings only
        if not isinstance(arg, str):
            print(f"np-atlas: argument {arg!r} is not a string", file=sys.stderr)
            return EXIT_USAGE
    args = _read_table(argv)
    if args is None:
        import argparse

        parser = build_parser()
        try:
            # The top-level parser hands everything after a subcommand's name to
            # that subcommand's parser unread, so call that parser directly.
            subparser = parser.commands.get(argv[0]) if argv else None
            if subparser is None:
                args = parser.parse_args(argv)
            else:
                args = subparser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"np-atlas: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
