"""The benchmark workloads: seeded inputs, queries and canonical outputs.

A query is a ``Query(key, call, canon)``.  ``call()`` sends one request through
np-atlas's public entry points and is the only part that is timed;
``canon(result)`` renders what a user receives as canonical text.  Each
workload has a finite universe of queries whose output digests were recorded
from a trusted commit (``refs/<workload>.json.gz``, written by
``make_refs.py``); the seed picks the inputs of one pass from that universe and
sets their order, so every seeded pass can be checked.  Queries that share a
key (the threshold and the two certificates of one threshold-sweep entry) are
checked together against one digest of their outputs in order, which keeps
the reference table small; a mismatch fails every query of the key.

Every call goes through a module attribute (``syzygy.np_threshold``, never a
name imported from it), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import random
from itertools import product
from math import ceil
from pathlib import Path
from typing import Any, Callable, NamedTuple

from np_atlas import bott, cli, geometry, schur, syzygy
from np_atlas.bott import BlockedWeight
from np_atlas.partitions import format_partition

REFS_DIR = Path(__file__).resolve().parent / "refs"


class Query(NamedTuple):
    key: str
    call: Callable[[], Any]
    canon: Callable[[Any], str]


class KeyDigests:
    """Digest of each key's canonical outputs, in the order they arrive; 32
    bits is plenty to catch a changed output."""

    def __init__(self):
        self._hashers = {}

    def add(self, key: str, text: str) -> None:
        self._hashers.setdefault(key, hashlib.sha256()).update(text.encode() + b"\0")

    def result(self) -> dict[str, str]:
        return {key: h.hexdigest()[:8] for key, h in self._hashers.items()}


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _ints(xs) -> str:
    return ",".join(str(x) for x in xs)


# --- threshold-sweep ---------------------------------------------------------
# np_threshold for C and BD over every rank tuple of length <= 4 with parts <= 5
# and p = 1..10, each followed by np_certify on the matching isotropic flag at
# the gap ceil(threshold) and at the gap just below it.  Length-5 tuples are
# left out to keep the reference table small; a pass samples the universe.

THRESHOLD_FAMILIES = ("C", "BD")
THRESHOLD_RANKS = tuple(
    ranks for length in range(1, 5) for ranks in product(range(1, 6), repeat=length)
)
THRESHOLD_ENTRIES = tuple(
    (family, ranks, p)
    for family in THRESHOLD_FAMILIES
    for ranks in THRESHOLD_RANKS
    for p in range(1, 11)
)
THRESHOLD_PASS_ENTRIES = 1000


def isotropic_token(family: str, ranks: tuple[int, ...]) -> str:
    """Catalog token of the variety whose tail quotient ranks are ``ranks``:
    sfl(...; 2 n1) for C and the odd orthogonal ofl(...; 2 n1 + 1) for BD."""
    dims = [sum(ranks[i:]) for i in range(len(ranks))]
    n1 = dims[0]
    if family == "C":
        return f"sfl({_ints(dims)};{2 * n1})"
    return f"ofl({_ints(dims)};{2 * n1 + 1})"


def _threshold_json(result) -> str:
    return _dumps({
        "threshold": [result.value.numerator, result.value.denominator],
        "witness_config": list(result.witness_config),
        "per_s": [[s, list(c), v.numerator, v.denominator] for s, c, v in result.per_s],
    })


def _identity(text: str) -> str:
    return text


def threshold_entry_queries(family: str, ranks: tuple[int, ...], p: int,
                            spec: geometry.VarietySpec) -> list[Query]:
    """Threshold, then certificates at the gap ceil(threshold) ("hi") and at
    the gap below it ("lo"; ceil + 1 when no positive gap lies below).  The
    certificates take their gap from the threshold query's result, as a user
    sweeping gaps would."""
    key = f"{family}|{_ints(ranks)}|{p}"
    k = len(ranks)
    state = {}

    def threshold():
        state["threshold"] = result = syzygy.np_threshold(family, ranks, p)
        return result

    def certificate(side: str):
        def call():
            hi = ceil(state["threshold"].value)
            gap = hi if side == "hi" else (hi - 1 if hi > 1 else hi + 1)
            line_bundle = tuple(gap * (k - i) for i in range(k))
            return _dumps(syzygy.np_certify(spec, line_bundle, p).to_json_dict())
        return call

    return [
        Query(key, threshold, _threshold_json),
        Query(key, certificate("hi"), _identity),
        Query(key, certificate("lo"), _identity),
    ]


def _threshold_queries(entries) -> list[Query]:
    specs = {}
    out = []
    for family, ranks, p in entries:
        if (family, ranks) not in specs:
            specs[family, ranks] = geometry.parse_variety(isotropic_token(family, ranks))
        out += threshold_entry_queries(family, ranks, p, specs[family, ranks])
    return out


def threshold_sweep(seed: int) -> list[Query]:
    rng = random.Random(seed)
    return _threshold_queries(rng.sample(THRESHOLD_ENTRIES, THRESHOLD_PASS_ENTRIES))


# --- g2-sweep ----------------------------------------------------------------
# The CLI's `np` subcommand on g2x and g2p for p = 1..10, each at l = p or at a
# larger l chosen by the seed.  Cost depends on p, not on l, so every seed
# does the same work.

G2_SPECS = ("g2x", "g2p")
G2_EXTRA_GAP = 3  # larger gaps are p+1 .. p+3


def run_cli(argv: list[str]) -> str:
    """Run the CLI in-process; return its stdout, raising on a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code not in (cli.EXIT_OK, cli.EXIT_NOT_CERTIFIED):
        raise RuntimeError(f"np-atlas {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue()


def g2_query(spec: str, p: int, l: int) -> Query:
    coeffs = str(l) if spec == "g2x" else f"{2 * l},{l}"
    argv = ["np", "--spec", spec, "--L", coeffs, "--p", str(p)]
    return Query(f"{spec}|{p}|{l}", lambda: run_cli(argv), _identity)


def g2_sweep(seed: int) -> list[Query]:
    rng = random.Random(seed)
    combos = []
    for spec in G2_SPECS:
        for p in range(1, 11):
            l = p if rng.random() < 0.5 else p + rng.randint(1, G2_EXTRA_GAP)
            combos.append((spec, p, l))
    rng.shuffle(combos)
    return [g2_query(*c) for c in combos]


# --- bbw-large ---------------------------------------------------------------
# bbw_cohomology on blocked weights with n = 100, 120, ..., 300, 2-4 blocks
# and pairwise distinct shifted entries, so nothing vanishes.  Each n has
# BBW_VARIANTS weights; the seed picks one per n, so a pass has one weight of
# every size and the same cost profile for every seed.  Run by hand only (see
# run.WORKLOADS).  The CLI cannot print these results: `np-atlas cohomology`
# exits 2 on dimensions of more than 4300 digits, a known defect probed by
# tests/test_perfbench.py.

BBW_SIZES = tuple(range(100, 301, 20))
BBW_VARIANTS = 16


def bbw_weight(n: int, variant: int) -> BlockedWeight:
    """Deterministic non-vanishing weight: distinct shifted values, strictly
    decreasing inside each block, shifted back by (1, ..., n)."""
    rng = random.Random(f"bbw-large:{n}:{variant}")
    blocks = rng.randint(2, 4)
    cuts = sorted(rng.sample(range(1, n), blocks - 1))
    ranks = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    shifted = rng.sample(range(-n, 2 * n), n)
    blocks, start = [], 0
    for r in ranks:
        block = sorted(shifted[start:start + r], reverse=True)
        blocks.append(tuple(x + start + i + 1 for i, x in enumerate(block)))
        start += r
    return BlockedWeight(tuple(blocks))


def bbw_json(result) -> str:
    """Degree, dominant weight and hex(dimension); hex has no digit limit."""
    if result.vanishes:
        return _dumps({"status": "vanishes"})
    return _dumps({"degree": result.degree, "weight": list(result.weight),
                   "dimension_hex": hex(result.dimension)})


def bbw_query(n: int, variant: int) -> Query:
    w = bbw_weight(n, variant)
    return Query(f"{n}|{variant}", lambda: bott.bbw_cohomology(w), bbw_json)


def bbw_large(seed: int) -> list[Query]:
    rng = random.Random(seed)
    pairs = [(n, rng.randrange(BBW_VARIANTS)) for n in BBW_SIZES]
    rng.shuffle(pairs)
    return [bbw_query(*pair) for pair in pairs]


# --- cli-cohomology ----------------------------------------------------------
# The CLI's `cohomology` subcommand on the same kind of non-vanishing blocked
# weights, with n = 4, 8, ..., 64: each query takes 1-2 ms, parsing and
# printing included, so a run times each one many times.  The seed draws
# CLI_PER_SIZE of the CLI_VARIANTS weights of every size and sets their order,
# so every seed has the same mix of sizes.  n stays far below bbw-large's
# sizes, whose dimensions the CLI cannot print.

CLI_SIZES = tuple(range(4, 65, 4))
CLI_VARIANTS = 80
CLI_PER_SIZE = 10


def cohomology_argv(w: BlockedWeight) -> list[str]:
    """`np-atlas cohomology` arguments for a weight on the full flag of its blocks."""
    ranks = w.ranks
    dims = [sum(ranks[i:]) for i in range(1, len(ranks))]
    return ["cohomology", "--shape", f"fl({_ints(dims)};{w.n})",
            "--weight", ",".join(f"[{_ints(b)}]" for b in w.blocks)]


def cli_cohomology_query(n: int, variant: int) -> Query:
    argv = cohomology_argv(bbw_weight(n, variant))
    return Query(f"{n}|{variant}", lambda: run_cli(argv), _identity)


def cli_cohomology(seed: int) -> list[Query]:
    rng = random.Random(seed)
    pairs = [(n, v) for n in CLI_SIZES for v in rng.sample(range(CLI_VARIANTS), CLI_PER_SIZE)]
    rng.shuffle(pairs)
    return [cli_cohomology_query(*pair) for pair in pairs]


# --- schur-cold --------------------------------------------------------------
# Cold LR work: tensor_decompose over partitions of 9 times partitions of 5,
# filtration_quotients of partitions of 7 over four block structures,
# schur_complex_term across the isotropic catalog at gap 5, and
# restriction_surjectivity_check across the catalog at a seeded gap 1..3.  The
# seed sets the order, which decides how much LR cache reuse a query finds; the
# distinct LR computations, and so most of the cost, do not depend on it.

SCHUR_CATALOG = ("sfl(2;6)", "sfl(2,1;6)", "sfl(3;8)", "sfl(3,1;8)", "sfl(3,2,1;8)",
                 "sfl(4;10)", "ofl(2;7)", "ofl(2,1;7)", "ofl(3;9)", "ofl(3,1;9)")
SCHUR_TENSOR_SIZES = (9, 5)
SCHUR_FILTRATION_SIZE = 7
SCHUR_FILTRATION_RANKS = ((2, 2, 2), (3, 3), (2, 3, 1), (3, 2, 2))
SCHUR_COMPLEX_GAP = 5
SCHUR_COMPLEX_DEGREES = range(1, 7)
SCHUR_RESTRICTION_GAPS = (1, 2, 3)


def _chain(gap: int, k: int) -> tuple[int, ...]:
    return tuple(gap * (k - i) for i in range(k))


def _summands_json(summands) -> str:
    return _dumps([[s.shape, s.multiplicity] for s in summands])


def _complex_json(term) -> str:
    return _dumps([term.level, term.homological_degree, list(term.twist),
                   [[s.shape, s.multiplicity] for s in term.summands]])


def _surjectivity_json(report) -> str:
    return _dumps([report.ok, [[e.degree_required, e.beta, e.beta_prime, e.multiplicity,
                                e.result.to_json_dict(), e.ok] for e in report.entries]])


def _fixed_schur_queries() -> list[Query]:
    out = []
    for mu in schur.partitions_of(SCHUR_TENSOR_SIZES[0]):
        for nu in schur.partitions_of(SCHUR_TENSOR_SIZES[1]):
            length = len(mu) + len(nu)
            out.append(Query(f"td|{format_partition(mu)}|{format_partition(nu)}|{length}",
                             lambda mu=mu, nu=nu, length=length:
                             schur.tensor_decompose(mu, nu, length),
                             _summands_json))
    for alpha in schur.partitions_of(SCHUR_FILTRATION_SIZE):
        for ranks in SCHUR_FILTRATION_RANKS:
            if len(alpha) <= sum(ranks):
                out.append(Query(f"fq|{format_partition(alpha)}|{_ints(ranks)}",
                                 lambda alpha=alpha, ranks=ranks:
                                 schur.filtration_quotients(alpha, ranks),
                                 _summands_json))
    for token in SCHUR_CATALOG:
        shape = geometry.parse_variety(token).shape
        a = _chain(SCHUR_COMPLEX_GAP, shape.k)
        for level in range(1, shape.k + 1):
            for j in SCHUR_COMPLEX_DEGREES:
                out.append(Query(f"sct|{token}|{level}|{j}",
                                 lambda shape=shape, a=a, level=level, j=j:
                                 syzygy.schur_complex_term(shape, a, level, j),
                                 _complex_json))
    return out


def surjectivity_query(token: str, gap: int) -> Query:
    spec = geometry.parse_variety(token)
    a = _chain(gap, spec.shape.k)
    return Query(f"rsc|{token}|{gap}",
                 lambda: geometry.restriction_surjectivity_check(spec, a),
                 _surjectivity_json)


def schur_cold(seed: int) -> list[Query]:
    rng = random.Random(seed)
    queries = _fixed_schur_queries()
    queries += [surjectivity_query(t, rng.choice(SCHUR_RESTRICTION_GAPS))
                for t in SCHUR_CATALOG]
    rng.shuffle(queries)
    return queries


# --- registry ----------------------------------------------------------------

BUILDERS = {
    "threshold-sweep": threshold_sweep,
    "cli-cohomology": cli_cohomology,
    "g2-sweep": g2_sweep,
    "bbw-large": bbw_large,
    "schur-cold": schur_cold,
}


def universe(name: str) -> list[Query]:
    """Every query a seed can draw for the workload, for writing references."""
    if name == "threshold-sweep":
        return _threshold_queries(THRESHOLD_ENTRIES)
    if name == "g2-sweep":
        return [g2_query(spec, p, l) for spec in G2_SPECS for p in range(1, 11)
                for l in range(p, p + G2_EXTRA_GAP + 1)]
    if name == "bbw-large":
        return [bbw_query(n, v) for n in BBW_SIZES for v in range(BBW_VARIANTS)]
    if name == "cli-cohomology":
        return [cli_cohomology_query(n, v) for n in CLI_SIZES for v in range(CLI_VARIANTS)]
    if name == "schur-cold":
        return _fixed_schur_queries() + [surjectivity_query(t, g) for t in SCHUR_CATALOG
                                         for g in SCHUR_RESTRICTION_GAPS]
    raise KeyError(name)


def ref_path(name: str) -> Path:
    return REFS_DIR / f"{name}.json.gz"


def load_refs(name: str) -> dict[str, str]:
    with gzip.open(ref_path(name), "rt", encoding="utf-8") as fh:
        return json.load(fh)
