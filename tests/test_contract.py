"""Every exported callable refuses a float or a bool where it takes an int,
a bare int where it takes a sequence, and a non-string where it takes a string.

CALLS holds one valid call per callable in np_atlas.__all__.  The valid call
runs first, so any cache is warm; then each int leaf of its arguments (inside
plain tuples, not inside built objects, which have calls of their own) is
replaced by x + 0.5, by float(x) and, where x is 1, by True, and every such
call must raise ValueError.  In the same way each plain tuple argument, and
each plain tuple inside one, is replaced by the int 3, and each string leaf
by the int 3, None, a list holding it and its bytes.  The descent tests
type(value) is tuple, because the library's records are tuple subclasses.
Each record argument is replaced by a string, None, the int 3 and the plain
tuple of its fields, once alone and once with every top-level int argument
set to 0 and then to -1, so that a bound check which fires first cannot read
a field of the non-record before its type is checked.  A new exported
callable fails the test until it has an entry.

BOUNDS lists every int input bounded below, and a value one below its least
must raise exactly "{name} must be >= {least}, got {least - 1}".

JSON_RECORDS builds one record of each kind that has to_json_dict, and every
dict and list reachable from the dict it returns must be the caller's own.
"""

import copy
from types import SimpleNamespace

import pytest

import np_atlas
from np_atlas import (
    BlockedWeight,
    Family,
    FlagShape,
    VarietySpec,
    parse_variety,
)
from np_atlas.partitions import normalize
from np_atlas.schur import partitions_of
from np_atlas.verify import suite_serre_duality

SHAPE = FlagShape(6, (3, 1))
SPEC = VarietySpec(Family.C, SHAPE)
G2X = parse_variety("g2x")
G2P = parse_variety("g2p")

# name -> positional arguments of one valid call; None marks a result record,
# which the library builds and no caller hands in
CALLS = {
    "BlockedWeight": (((2, 1), (0,)),),
    "CohomologyResult": None,
    "Family": ("C",),
    "FlagShape": (6, (3, 1)),
    "InversionBoundReport": None,
    "NpCertificate": None,
    "SchurSummand": None,
    "ThresholdResult": None,
    "VarietySpec": (Family.C, SHAPE),
    "bbw_cohomology": (BlockedWeight(((2, 1), (0,))),),
    "canonical_weight": (SHAPE,),
    "conjugate": ((3, 1),),
    "filtration_quotients": ((2, 1), (1, 2)),
    "flag_dimension": ((2, 1, 3),),
    "g2_np_certify": (G2P, (2, 1), 1),
    "inversion_bound": (((1,), (1,)), (1, 1, 1), (3, 1), 1),
    "lr_coefficient": ((2, 1), (1,), (1,)),
    "np_certify": (SPEC, (3, 1), 1),
    "np_threshold": ("C", (2, 1), 1),
    "parse_shape": ("fl(3,1;6)",),
    "parse_variety": ("sfl(3,1;6)",),
    "quotient_ranks": (SHAPE,),
    "restriction_surjectivity_check": (G2X, (1,)),
    "schur_character": ((2, 1), 2),
    "schur_complex_term": (SHAPE, (3, 1), 1, 1),
    "skew_decompose": ((3, 1), (1,)),
    "tensor_decompose": ((1,), (1,), 2),
    "wedge_of_sym2": (1, 3),
    "wedge_of_wedge2": (1, 3),
    "weyl_dimension": ((2, 1, 0), 3),
}


def _variants(value):
    """Copies of nested tuples with one int leaf replaced by a float or a bool."""
    if type(value) is int:
        yield from [value + 0.5, float(value)] + ([True] if value == 1 else [])
    elif type(value) is tuple:
        for i, item in enumerate(value):
            for bad in _variants(item):
                yield value[:i] + (bad,) + value[i + 1:]


def _bare_ints(args):
    """Copies of an argument tuple with one tuple inside it replaced by 3."""
    for i, item in enumerate(args):
        if type(item) is tuple:
            yield args[:i] + (3,) + args[i + 1:]
            for bad in _bare_ints(item):
                yield args[:i] + (bad,) + args[i + 1:]


def _non_strings(value):
    """Copies of nested tuples with one string leaf replaced by a non-string."""
    if type(value) is str:
        yield from [3, None, [value], value.encode()]
    elif type(value) is tuple:
        for i, item in enumerate(value):
            for bad in _non_strings(item):
                yield value[:i] + (bad,) + value[i + 1:]


def _non_records(args):
    """Copies of an argument tuple with one record argument replaced by a non-record."""
    for i, item in enumerate(args):
        if isinstance(item, (BlockedWeight, FlagShape, VarietySpec)):
            for bad in (str(item), None, 3, tuple(item)):
                yield args[:i] + (bad,) + args[i + 1:]


def _non_records_at_bounds(args):
    """_non_records' copies of args with every top-level int set to 0, then to -1."""
    for bound in (0, -1):
        yield from _non_records(tuple(bound if type(a) is int else a for a in args))


def _accepted(fn, variants):
    """The variants that fn does not refuse with ValueError."""
    accepted = []
    for bad_args in variants:
        try:
            fn(*bad_args)
        except ValueError:
            continue
        accepted.append(bad_args)
    return accepted


def test_every_exported_callable_has_a_call():
    assert set(CALLS) == {n for n in np_atlas.__all__ if callable(getattr(np_atlas, n))}


@pytest.mark.parametrize("name", sorted(n for n, args in CALLS.items() if args is not None))
def test_int_leaves_refuse_floats_and_bools(name):
    fn = getattr(np_atlas, name)
    args = CALLS[name]
    fn(*args)
    accepted = _accepted(fn, _variants(args))
    assert not accepted, f"{name} accepted {accepted}"


@pytest.mark.parametrize("name", sorted(n for n, args in CALLS.items() if args is not None))
def test_sequence_arguments_refuse_bare_ints(name):
    fn = getattr(np_atlas, name)
    args = CALLS[name]
    fn(*args)
    accepted = _accepted(fn, _bare_ints(args))
    assert not accepted, f"{name} accepted {accepted}"


@pytest.mark.parametrize("name", sorted(n for n, args in CALLS.items()
                                        if args is not None and any(_non_strings(args))))
def test_string_arguments_refuse_non_strings(name):
    fn = getattr(np_atlas, name)
    args = CALLS[name]
    fn(*args)
    accepted = _accepted(fn, _non_strings(args))
    assert not accepted, f"{name} accepted {accepted}"


@pytest.mark.parametrize("name", sorted(n for n, args in CALLS.items()
                                        if args is not None and any(_non_records(args))))
def test_record_arguments_refuse_non_records(name):
    fn = getattr(np_atlas, name)
    args = CALLS[name]
    fn(*args)
    accepted = _accepted(fn, _non_records(args))
    assert not accepted, f"{name} accepted {accepted}"


@pytest.mark.parametrize("name", sorted(n for n, args in CALLS.items()
                                        if args is not None and any(_non_records(args))
                                        and int in map(type, args)))
def test_record_arguments_refuse_non_records_at_bounds(name):
    fn = getattr(np_atlas, name)
    args = CALLS[name]
    fn(*args)
    accepted = _accepted(fn, _non_records_at_bounds(args))
    assert not accepted, f"{name} accepted {accepted}"


def _partitions_of(n, max_length):
    """partitions_of with its keyword-only max_length taken by position."""
    return partitions_of(n, max_length=max_length)


# (callable, one valid call, the index of the argument bounded below, the
# name its message gives, the least value allowed); a tuple argument gets
# least - 1 as its last entry, which is then its smallest
BOUNDS = [
    (np_atlas.flag_dimension, ((2, 1, 3),), 0, "rank", 0),
    (np_atlas.inversion_bound, (((1,), (1,)), (1, 1, 1), (3, 1), 1), 3, "l", 1),
    (np_atlas.wedge_of_wedge2, (1, 3), 0, "j", 0),
    (np_atlas.wedge_of_wedge2, (1, 3), 1, "n", 0),
    (np_atlas.wedge_of_sym2, (1, 3), 0, "j", 0),
    (np_atlas.wedge_of_sym2, (1, 3), 1, "n", 0),
    (_partitions_of, (3, 2), 0, "n", 0),
    (_partitions_of, (3, 2), 1, "max_length", 0),
    (np_atlas.tensor_decompose, ((1,), (1,), 2), 2, "max_length", 0),
    (np_atlas.schur_character, ((2, 1), 2), 1, "m", 1),
    (np_atlas.filtration_quotients, ((2, 1), (1, 2)), 1, "block rank", 0),
    (normalize, ((3, 1),), 0, "partition entry", 0),
    (np_atlas.schur_complex_term, (SHAPE, (3, 1), 1, 1), 2, "level", 1),
    (np_atlas.schur_complex_term, (SHAPE, (3, 1), 1, 1), 3, "homological degree j", 1),
    (np_atlas.np_threshold, ("C", (2, 1), 1), 2, "p", 1),
    (np_atlas.np_threshold, ("C", (2, 1), 1), 1, "rank", 1),
    (np_atlas.np_certify, (SPEC, (3, 1), 1), 2, "p", 1),
    (np_atlas.g2_np_certify, (G2P, (2, 1), 1), 2, "p", 1),
    (suite_serre_duality, (1, 1), 0, "cases", 1),
]


@pytest.mark.parametrize("fn, args, index, name, least", BOUNDS,
                         ids=[f"{fn.__name__}-{name}" for fn, _, _, name, _ in BOUNDS])
def test_one_below_the_least_value_is_refused_with_one_message(fn, args, index, name, least):
    fn(*args)
    bad = least - 1
    if type(args[index]) is tuple:
        bad = args[index][:-1] + (bad,)
    with pytest.raises(ValueError) as exc:
        fn(*args[:index], bad, *args[index + 1:])
    assert str(exc.value) == f"{name} must be >= {least}, got {least - 1}"


@pytest.mark.parametrize("name", sorted(n for n, args in CALLS.items() if args is not None))
def test_mutable_results_are_the_callers_own(name):
    # a cached dict or list handed out as is would carry a caller's edit into
    # every later call with the same arguments
    fn = getattr(np_atlas, name)
    args = CALLS[name]
    result = fn(*args)
    if not isinstance(result, (dict, list)):
        return
    expected = copy.deepcopy(result)
    result.clear()
    assert fn(*args) == expected


# one record of each kind that has to_json_dict: certificates on C, B, D and
# A, a G2 certificate, and a nonzero cohomology result
JSON_RECORDS = {
    "np_certify-C": lambda: np_atlas.np_certify(parse_variety("sfl(6,5,3;12)"), (3, 2, 1), 1),
    "np_certify-B": lambda: np_atlas.np_certify(parse_variety("ofl(2;7)"), (1,), 1),
    "np_certify-D": lambda: np_atlas.np_certify(parse_variety("ofl(3,1;8)"), (4, 1), 1),
    "np_certify-A": lambda: np_atlas.np_certify(parse_variety("fl(2,1;4)"), (2, 1), 1),
    "g2_np_certify": lambda: np_atlas.g2_np_certify(G2P, (2, 1), 1),
    "bbw_cohomology": lambda: np_atlas.bbw_cohomology(BlockedWeight(((2, 1), (0,)))),
}


def _containers(value, found):
    """found, extended by every dict and list reachable from value, each once."""
    if isinstance(value, (dict, list)):
        if any(value is seen for seen in found):
            return found
        found.append(value)
    if isinstance(value, (dict, list, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            _containers(item, found)
    return found


@pytest.mark.parametrize("name", sorted(JSON_RECORDS))
def test_json_dicts_are_the_callers_own(name):
    # editing a returned dict or list, at any depth, must not reach the record
    record = JSON_RECORDS[name]()
    first = record.to_json_dict()
    expected = copy.deepcopy(first)
    containers = _containers(first, [])
    assert len(containers) >= 2
    for item in containers:
        item.clear()
        if isinstance(item, dict):
            item["edited"] = True
        else:
            item.append("edited")
    assert record.to_json_dict() == expected


def test_a_record_lookalike_is_not_certified_from():
    # it has every attribute np_certify reads, and a bool among its dims
    lookalike = SimpleNamespace(family=Family.C, shape=SimpleNamespace(n=6, dims=(3, True), k=2))
    with pytest.raises(ValueError, match="spec must be a VarietySpec"):
        np_atlas.np_certify(lookalike, (3, 1), 1)
