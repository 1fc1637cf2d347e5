import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import np_atlas
from np_atlas import verify
from np_atlas.bott import BlockedWeight, bbw_cohomology
from np_atlas.cli import (
    EXIT_NOT_CERTIFIED, EXIT_OK, EXIT_USAGE, _TABLE, _read_table, build_parser, main,
)
from test_partitions import _weyl_dimension_pairwise, wide_span_weight


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_sections(capsys):
    code, out, _ = run(capsys, "cohomology", "--shape", "fl(1;2)", "--weight", "[3],[0]")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc == {"status": "nonzero", "degree": 0, "weight": [3, 0], "dimension": 4}


def test_cohomology_vanishing(capsys):
    code, out, _ = run(capsys, "cohomology", "--shape", "fl(1;2)", "--weight", "[0],[1]")
    assert code == EXIT_OK
    assert json.loads(out) == {"status": "vanishes"}


def test_cohomology_higher_degree(capsys):
    code, out, _ = run(capsys, "cohomology", "--shape", "fl(1;2)", "--weight", "[0],[3]")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["degree"], doc["dimension"]) == (1, 2)


def test_cohomology_block_mismatch(capsys):
    code, out, err = run(
        capsys, "cohomology", "--shape", "fl(2;4)", "--weight", "[1],[0]"
    )
    assert code == EXIT_USAGE
    assert not out
    assert "quotient ranks" in err


def test_cohomology_large_dimension(capsys):
    # more than 4300 digits, past the default int->str limit of Python >= 3.10.7
    n, step = 60, 1000
    blocks = (tuple(step * (n - 2 - i) for i in range(n - 1)), (0,))
    weight = ",".join("[" + ",".join(map(str, b)) + "]" for b in blocks)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, "cohomology", "--shape", f"fl(1;{n})", "--weight", weight)
    assert code == EXIT_OK
    digits = re.search(r'"dimension": (\d+)', out).group(1)
    expected = bbw_cohomology(BlockedWeight(blocks)).dimension
    assert len(digits) > 4300
    assert int(digits[:20]) == expected // 10 ** (len(digits) - 20)
    assert int(digits[-20:]) == expected % 10 ** 20
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_cohomology_wide_span_weight(capsys):
    n = 64
    w = wide_span_weight(n)
    weight = ",".join("[" + ",".join(map(str, b)) + "]" for b in (w[:32], w[32:]))
    start = time.perf_counter()
    code, out, _ = run(capsys, "cohomology", "--shape", "fl(32;64)", "--weight", weight)
    assert time.perf_counter() - start < 0.25
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["degree"], doc["weight"]) == (0, list(w))
    assert doc["dimension"] == _weyl_dimension_pairwise(w, n)


def test_cohomology_parse_error(capsys):
    code, _, err = run(capsys, "cohomology", "--shape", "fl(1;2)", "--weight", "3,0")
    assert code == EXIT_USAGE
    assert "np-atlas:" in err
    # blocks are separated by single commas; a missing, doubled, leading,
    # trailing or blank-filled comma is refused, not read as "[1],[0]"
    for weight in ("[1][0]", "[1],,[0]", ",[1],[0]", "[1],[0],", "[1], ,[0]"):
        code, out, err = run(capsys, "cohomology", "--shape", "fl(1;2)", "--weight", weight)
        assert (code, out) == (EXIT_USAGE, ""), weight
        assert "cannot parse weight blocks" in err, weight
    _, expected, _ = run(capsys, "cohomology", "--shape", "fl(1;2)", "--weight", "[1],[0]")
    for weight in (" [1] , [0] ", "[ 1 ],\t[0]"):
        code, out, _ = run(capsys, "cohomology", "--shape", "fl(1;2)", "--weight", weight)
        assert (code, out) == (EXIT_OK, expected), weight


@pytest.mark.parametrize("argv, message", [
    (["cohomology", "--shape", "fl(1;2)", "--weight", "[1],[ ]"], "empty weight block '[ ]'"),
    (["cohomology", "--shape", "fl(1;2)", "--weight", "[1],[x]"], "bad integer in weight block '[x]'"),
    (["np", "--spec", "g2p", "--L", "2,x", "--p", "1"], "expected comma-separated integers, got '2,x'"),
])
def test_block_and_integer_list_parse_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"np-atlas: {message}\n")


def test_np_certified(capsys):
    code, out, _ = run(capsys, "np", "--spec", "sfl(6,5,3;12)", "--L", "3,2,1", "--p", "1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "certified"
    assert doc["threshold"] == {"num": 1, "den": 1}


def test_np_not_certified(capsys):
    code, out, _ = run(capsys, "np", "--spec", "ofl(2;7)", "--L", "1", "--p", "1")
    assert code == EXIT_NOT_CERTIFIED
    assert json.loads(out)["verdict"] == "not_certified"


def test_np_bad_bundle(capsys):
    code, _, err = run(capsys, "np", "--spec", "sfl(2;6)", "--L", "0", "--p", "1")
    assert code == EXIT_USAGE
    assert "ample" in err


@pytest.mark.parametrize("spec, coeffs, k", [
    ("sfl(6,5,3;12)", "3,2", 3),
    ("sfl(6,5,3;12)", "4,3,2,1", 3),
    ("g2x", "2,1", 1),
    ("g2p", "3", 2),
])
def test_np_line_bundle_arity(capsys, spec, coeffs, k):
    code, out, err = run(capsys, "np", "--spec", spec, "--L", coeffs, "--p", "1")
    assert code == EXIT_USAGE
    assert not out
    assert f"expected {k} line-bundle coefficients" in err


def test_np_threshold_full_flag(capsys):
    code, out, _ = run(
        capsys, "np-threshold", "--family", "C", "--ranks", "1,1,1,1,1,1", "--p", "1"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["threshold"] == {"num": 11, "den": 6}
    assert doc["witness_config"] == [1, 1, 1, 1, 1, 1]


def test_np_threshold_family_aliases(capsys):
    for fam in ("B", "D", "BD", "b"):
        code, out, _ = run(
            capsys, "np-threshold", "--family", fam, "--ranks", "2,1", "--p", "2"
        )
        assert code == EXIT_OK
        assert json.loads(out)["threshold"] == {"num": 3, "den": 1}
    code, _, err = run(capsys, "np-threshold", "--family", "E", "--ranks", "1", "--p", "1")
    assert code == EXIT_USAGE


def test_verify_known_suite(capsys):
    code, out, _ = run(capsys, "verify", "plethysm-dims")
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


def test_verify_seeded_suite(capsys):
    code, out, _ = run(capsys, "verify", "serre-duality", "--cases", "50", "--seed", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["cases"] == 50 and doc["seed"] == 3


def test_verify_rejects_cases_below_one(capsys):
    for suite, cases in (("serre-duality", "-5"), ("bound-dominance", "0")):
        code, out, err = run(capsys, "verify", suite, "--cases", cases)
        assert code == EXIT_USAGE
        assert not out
        assert f"cases must be >= 1, got {cases}" in err


def test_verify_rejects_options_the_suite_ignores(capsys):
    for option in ("--seed", "--cases"):
        code, out, err = run(capsys, "verify", "g2-lemma", option, "3")
        assert code == EXIT_USAGE
        assert not out
        assert "takes no --cases or --seed" in err


def test_verify_surfaces_key_error_from_a_suite(monkeypatch, capsys):
    def broken_suite():
        raise KeyError("missing")

    monkeypatch.setitem(verify.SUITES, "plethysm-dims", broken_suite)
    with pytest.raises(KeyError, match="missing"):
        main(["verify", "plethysm-dims"])
    assert not capsys.readouterr().out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == EXIT_USAGE
    assert "unknown verification suite" in err


@pytest.mark.parametrize("argv", [
    ["np", "--spec", 3, "--L", "1", "--p", "1"],
    ["verify", 3],
    [["x"]],
    ["cohomology", "--shape", "fl(1;2)", "--weight", b"[3],[0]"],
])
def test_main_refuses_an_argument_that_is_not_a_string(capsys, argv):
    bad = next(arg for arg in argv if not isinstance(arg, str))
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"np-atlas: argument {bad!r} is not a string\n")


def test_usage_error_exit_code(capsys):
    assert main(["cohomology", "--shape", "fl(1;2)"]) == EXIT_USAGE
    capsys.readouterr()


def _main_through_top_level_parser(argv):
    """main as it reads argv with the top-level parser alone, then runs the command."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"np-atlas: {exc}", file=sys.stderr)
        return EXIT_USAGE


# per subcommand: a valid argv, and one that misses a required option or argument
SUBCOMMAND_ARGVS = {
    "cohomology": (["--shape", "fl(1;2)", "--weight", "[3],[0]"], ["--shape", "fl(1;2)"]),
    "np": (["--spec", "sfl(6,5,3;12)", "--L", "3,2,1", "--p", "1"], ["--spec", "g2x", "--L", "1"]),
    "np-threshold": (["--family", "C", "--ranks", "1,1", "--p", "1"], ["--ranks", "1", "--p", "1"]),
    "verify": (["plethysm-dims"], ["--cases", "3"]),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGVS))
def test_main_hands_argv_to_the_subcommand_parser(capsys, command):
    valid, missing = SUBCOMMAND_ARGVS[command]
    codes = []
    for argv in ([command, *valid], [command, *missing], [command, "-h"]):
        code = _main_through_top_level_parser(argv)
        expected = capsys.readouterr()
        assert run(capsys, *argv) == (code, expected.out, expected.err), argv
        codes.append(code)
    assert codes == [EXIT_OK, EXIT_USAGE, EXIT_OK]
    # a well-formed argv of a table subcommand is read off the table, into the
    # namespace the top-level parser reads off the same argv; the rest is left
    # to argparse
    read = _read_table([command, *valid])
    if command in _TABLE:
        assert vars(read) == vars(build_parser().parse_args([command, *valid]))
    else:
        assert read is None
    assert _read_table([command, *missing]) is None
    assert _read_table([command, "-h"]) is None


# option values that argparse reads in different ways: empty, option-like,
# negative, strings that int() takes or refuses, and, from Python callers,
# values that are not strings
ODD_VALUES = ("", "-1", "-x", " 3", "+3", "1_0", "x", "3", "--", "-h", None, 3)
PLAIN_VALUES = {"--shape": "fl(1;2)", "--weight": "[3],[0]", "--spec": "g2x", "--L": "2",
                "--p": "2", "--family": "C", "--ranks": "1,1"}


@st.composite
def table_argvs(draw):
    """argv for a table subcommand: each option full, abbreviated or as
    --flag=value, in any order, some left out or repeated, with stray tokens."""
    command = draw(st.sampled_from(sorted(_TABLE)))
    flags = [option[0] for option in _TABLE[command][2]]
    chosen = draw(st.permutations(flags))
    # usually every option once; else one left out, or one repeated
    chosen = draw(st.sampled_from((chosen, chosen, chosen[1:], chosen + chosen[:1])))
    argv = [command]
    for flag in chosen:
        value = draw(st.one_of(st.just(PLAIN_VALUES[flag]), st.sampled_from(ODD_VALUES),
                               st.text(max_size=3)))
        form = draw(st.sampled_from(("full", "full", "full", "abbreviated", "equals")))
        if form == "abbreviated" and len(flag) > 3:
            argv += [flag[:draw(st.integers(3, len(flag) - 1))], value]
        elif form == "equals":
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    stray = draw(st.sampled_from(([], [], [], ["-h"], ["--"], ["--extra"], ["x"], ["-1"])))
    at = draw(st.integers(1, len(argv)))
    return argv[:at] + stray + argv[at:]


@settings(max_examples=300)
@given(table_argvs())
@example(["np", "--spec", "g2x", "--L", "1", "--p", 3])
def test_table_reader_reads_what_argparse_reads(argv):
    read = _read_table(argv)
    subparser = build_parser().commands[argv[0]]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            expected = subparser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    except (SystemExit, TypeError):  # argparse takes no int in argv
        assert read is None
    else:
        assert read is None or vars(read) == vars(expected)
        # every option once, in full, with a plain value, is always read
        flags = {option[0] for option in _TABLE[argv[0]][2]}
        if (len(argv) == 1 + 2 * len(flags) and set(argv[1::2]) == flags
                and argv[2::2] == [PLAIN_VALUES[flag] for flag in argv[1::2]]):
            assert read is not None and vars(read) == vars(expected)


@pytest.mark.parametrize("argv", [[], ["-h"], ["no-such-command"], ["--p", "1"]])
def test_main_leaves_other_argv_to_the_top_level_parser(capsys, argv):
    code = _main_through_top_level_parser(argv)
    expected = capsys.readouterr()
    assert run(capsys, *argv) == (code, expected.out, expected.err)
    assert code == (0 if argv == ["-h"] else EXIT_USAGE)


def test_main_reads_sys_argv(monkeypatch, capsys):
    argv = ["cohomology", "--shape", "fl(1;2)", "--weight", "[0],[3]"]
    code, out, _ = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["np-atlas", *argv])
    assert main() == code == EXIT_OK
    assert capsys.readouterr().out == out


def test_unrecognized_argument_error_names_the_subcommand(capsys):
    argv = ["cohomology", "--shape", "fl(1;2)", "--weight", "[3],[0]", "--extra"]
    top_level = _main_through_top_level_parser(argv), capsys.readouterr()
    assert top_level[1].err.startswith("usage: np-atlas [-h] ")
    assert top_level[1].err.splitlines()[-1] == "np-atlas: error: unrecognized arguments: --extra"
    # the same exit code and stdout; stderr gives the subcommand's usage instead
    code, out, err = run(capsys, *argv)
    assert (code, out) == (top_level[0], top_level[1].out) == (EXIT_USAGE, "")
    assert err.startswith("usage: np-atlas cohomology [-h] ")
    assert re.match(r"np-atlas cohomology: error: unrecognized arguments: --extra$",
                    err.splitlines()[-1])


def test_byte_identical_output(capsys):
    args = ["np", "--spec", "sfl(6,5,3;12)", "--L", "3,2,1", "--p", "2"]
    main(list(args))
    first = capsys.readouterr().out
    main(list(args))
    second = capsys.readouterr().out
    assert first == second


def test_parser_reuse_leaks_no_state(capsys):
    assert build_parser() is build_parser()
    calls = [
        ("cohomology", "--shape", "fl(1;2)"),
        ("verify", "serre-duality", "--cases", "20", "--seed", "5"),
        ("verify", "serre-duality"),
        ("np", "--spec", "sfl(6,5,3;12)", "--L", "3,2,1", "--p", "1"),
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv)[:2])
    build_parser.cache_clear()
    reused = [run(capsys, *argv)[:2] for argv in calls]
    assert reused == fresh
    assert [code for code, _ in reused] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]
    args = build_parser().parse_args(["verify", "serre-duality"])
    assert (args.cases, args.seed) == (None, None)


def _fresh_python(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this np_atlas."""
    src = str(Path(np_atlas.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_verify_unloaded():
    # a one-shot call pays every import: verify is loaded lazily, and the
    # records are tuples, so nothing pulls in dataclasses
    code = ("import sys, np_atlas.cli; "
            "print([m for m in ('np_atlas.verify', 'dataclasses') if m in sys.modules])")
    assert _fresh_python(code).strip() == "[]"


def test_well_formed_call_builds_no_parser():
    # nor imports argparse: only help, usage errors and argv the table does not
    # read load it
    code = ("import sys; from np_atlas import cli; "
            "code = cli.main(['cohomology', '--shape', 'fl(1;2)', '--weight', '[3],[0]']); "
            "print(code, cli.build_parser.cache_info().currsize, 'argparse' in sys.modules)")
    out = _fresh_python(code).splitlines()
    assert json.loads(out[0])["dimension"] == 4
    assert out[1:] == ["0 0 False"]
