"""Command-line front end: one JSON document per invocation on stdout.

Exit codes: 0 success (or certified), 1 not certified / suite failure,
2 usage or parse error.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

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


def cmd_cohomology(args: argparse.Namespace) -> int:
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


def cmd_np(args: argparse.Namespace) -> int:
    spec = parse_variety(args.spec)
    coeffs = _parse_int_list(args.L)
    cert = np_certify(spec, coeffs, args.p)
    _emit(cert.to_json_dict())
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def cmd_np_threshold(args: argparse.Namespace) -> int:
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


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite  # here, so other subcommands never load the suites

    summary = run_suite(args.suite, cases=args.cases, seed=args.seed)
    _emit(summary)
    return EXIT_OK if summary["pass"] else EXIT_NOT_CERTIFIED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The np-atlas argument parser, built once per process.

    Each parse_args call returns a fresh Namespace, so the cached parser
    carries no state from one main call to the next.  Its ``commands`` maps
    each subcommand name to that subcommand's own parser.
    """
    parser = argparse.ArgumentParser(
        prog="np-atlas",
        description="Exact cohomology of homogeneous bundles and syzygy certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("cohomology", help="all cohomology of a Schur-power bundle")
    p.add_argument("--shape", required=True, help='flag shape, e.g. "fl(1;2)"')
    p.add_argument("--weight", required=True, help='blocked weight, e.g. "[3],[0]"')
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("np", help="certify Property (N_p) for an ample bundle")
    p.add_argument("--spec", required=True, help='variety, e.g. "sfl(6,5,3;12)" or "g2x"')
    p.add_argument("--L", required=True, help='line-bundle coefficients, e.g. "3,2,1"')
    p.add_argument("--p", required=True, type=int)
    p.set_defaults(fn=cmd_np)

    p = sub.add_parser("np-threshold", help="exact rational gap threshold")
    p.add_argument("--family", required=True, help="C, B, D, or BD")
    p.add_argument("--ranks", required=True, help='tail quotient ranks, e.g. "1,2,3"')
    p.add_argument("--p", required=True, type=int)
    p.set_defaults(fn=cmd_np_threshold)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
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
