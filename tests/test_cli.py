"""Command-line surface: exit codes, output formats, determinism, reports."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from qlab import cli, pathweights, vircharacters
from qlab.cli import (
    _SUITE_ARGS, SUITES, Suite, _json_text, _run_chunks, build_parser, run,
)
from qlab.pathweights import (
    ModelParams, brute_config_sum_X, config_sum_X, make_tau_table, x_configs,
)
from qlab.qcore import Comparison, QSeries
from qlab.report import CaseResult, SuiteReport, check, first_failure

from oracles import to_json_obj


class TestReport:
    def test_ok_flag(self):
        good = SuiteReport("demo", "anchor text", {}, (CaseResult("a", True),))
        bad = SuiteReport("demo", "anchor text", {},
                          (CaseResult("a", True), CaseResult("b", False, "boom")))
        assert good.ok and not bad.ok

    def test_cases_sorted_by_id(self):
        rep = SuiteReport("demo", "x", {}, (
            CaseResult("b", True), CaseResult("a", True)))
        obj = json.loads(_json_text(rep))
        assert [c["id"] for c in obj["cases"]] == ["a", "b"]
        assert obj["anchor"] == "x"

    def test_csv_rows(self):
        rep = SuiteReport("demo", "x", {}, (
            CaseResult("b", True, "exact"), CaseResult("a", False, 'say "why"')))
        assert list(rep.csv_rows()) == [
            ("a", "fail", "\"say 'why'\""), ("b", "pass", '"exact"')]

    def test_csv_quotes_details_under_verify_and_all(self, monkeypatch, capsys):
        # A chunk raising ValueError("p' ...") gives a detail with double
        # quotes, which CSV prints as single quotes inside its own.
        def boom():
            raise ValueError("p' off the strip")

        demo = Suite("demo anchor", {"mmax": 1}, {}, lambda v: ({}, [
            ("demo", lambda: [CaseResult("ok", True, "exact")]), ("bad", boom)]))
        monkeypatch.setattr(cli, "SUITES", {"demo": demo})
        rows = ["bad,fail,\"error: ValueError('p' off the strip')\"",
                'ok,pass,"exact"']
        assert run(["verify", "demo", "--format", "csv"]) == 1
        assert capsys.readouterr().out.splitlines() == ["id,status,detail", *rows]
        assert run(["all", "--format", "csv"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "suite,id,status,detail", *(f"demo,{row}" for row in rows)]
        assert run(["verify", "demo"]) == 1
        cases = json.loads(capsys.readouterr().out)["cases"]
        assert cases[0]["detail"] == """error: ValueError("p' off the strip")"""

    def test_run_chunks_preserves_order_and_catches(self):
        def boom():
            raise RuntimeError("nope")

        chunks = [
            ("one", lambda: [CaseResult("one", True, "fine")]),
            ("two", boom),
            ("three", lambda: [CaseResult("three a", True),
                               CaseResult("three b", True)]),
        ]
        cases = _run_chunks(chunks, 3)
        assert [c.case_id for c in cases] == ["one", "two", "three a", "three b"]
        assert [c.ok for c in cases] == [True, False, True, True]
        assert cases[1].detail == "error: RuntimeError('nope')"


class TestCheck:
    def test_equal_exact_pair_reads_exact(self):
        a = QSeries({0: 1, 2: -3})
        assert check("c", a, QSeries({2: -3, 0: 1})) == CaseResult("c", True, "exact")

    def test_truncated_pair_agreeing_below_joint_cutoff_passes(self):
        lhs = QSeries({0: 1, 1: 2, 5: 7}, Fraction(6))
        rhs = QSeries({0: 1, 1: 2}, Fraction(4))
        res = check("c", lhs, rhs)
        assert res.ok and res.detail == "coefficients agree below q^4"

    def test_differing_pair_names_exponent_and_both_coefficients(self):
        res = check("c", QSeries({0: 1, 3: 2, 7: 1}), QSeries({0: 1, 3: 5}))
        assert not res.ok
        assert res.detail == "first mismatch at q^3: 2 != 5"

    def test_first_failure_prefixes_where_and_stops(self):
        def pairs():
            yield "m=0", QSeries({0: 1}), QSeries({0: 1})
            yield "m=1", QSeries({1: 1}), QSeries({1: 2})
            raise AssertionError("consumed past the first failure")

        res = first_failure("c", pairs())
        assert res == CaseResult("c", False, "m=1: first mismatch at q^1: 1 != 2")
        assert first_failure("c", [], "all good") == CaseResult("c", True, "all good")


class TestSuiteTable:
    def test_all_scale_sets_only_arguments_the_suite_reads(self):
        for name, suite in SUITES.items():
            assert set(suite.all_scale) <= set(suite.defaults), name

    def test_every_suite_argument_is_read_by_some_suite(self):
        read = set().union(*(suite.defaults for suite in SUITES.values()))
        assert set(_SUITE_ARGS) == read


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["char", "--p", "3"])
        assert exc.value.code == 2

    def test_unknown_suite_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "nosuchsuite"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["paths", "--p", "5", "--pp", "8", "--a", "1", "--b", "1",
         "--m", "-1", "--count"],
        ["paths", "--p", "3", "--pp", "4", "--a", "9", "--b", "1",
         "--m", "2", "--count"],
        # negative sizes and worker counts
        ["char", "--p", "3", "--pp", "4", "--r", "1", "--s", "1", "--qmax", "-5"],
        ["grading", "--k", "1", "--r", "1", "--s", "1", "--qmax", "-3"],
        ["stable", "--mmax", "-2"],
        ["stable", "--lmax", "-1"],
        ["verify", "abf", "--m", "-1"],
        ["verify", "pmn", "--jobs", "0"],
        ["verify", "pmn", "--jobs", "-3"],
        # invalid model parameters inside a suite
        ["verify", "xandf", "--p", "3", "--pp", "7", "--mmax", "1"],
        ["verify", "grading", "--k", "0"],
        ["verify", "abf", "--k", "0"],
        ["verify", "i1", "--k", "0"],
        ["verify", "rocha2", "--p", "3", "--pp", "4", "--r", "5", "--a", "1"],
        # half-given model or instance
        ["verify", "gen", "--p", "3", "--mmax", "1"],
        ["verify", "rocha2", "--p", "3", "--pp", "4", "--r", "1"],
        ["all", "--pp", "4"],
        # a suite that checks nothing
        ["verify", "tau", "--pp", "2"],
        ["verify", "tau", "--pp", "3"],
        ["verify", "relS", "--mmax", "0"],
        ["verify", "exactseq", "--mmax", "0"],
        # an argument the suite does not read
        ["verify", "relS", "--p", "3", "--pp", "4", "--mmax", "1"],
        ["verify", "pmn", "--k", "5", "--mmax", "1"],
        ["verify", "pochsum", "--mmax", "3"],
    ])
    def test_bad_value_is_2_with_one_line(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("qlab: error: ")

    def test_partial_rocha2_instance_names_b_as_optional(self, capsys):
        # --b defaults to --a, so the message does not ask for it.
        assert run(["verify", "rocha2", "--p", "3", "--pp", "4", "--r", "1"]) == 2
        assert capsys.readouterr().err == ("qlab: error: give all of --p --pp --r --a, "
                                           "optionally --b, or none of them\n")

    def test_s_is_not_a_suite_argument(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "gen", "--s", "7", "--mmax", "1"])
        assert exc.value.code == 2

    def test_verify_pass_is_0(self, capsys):
        assert run(["verify", "pmn", "--mmax", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suite"] == "pmn" and report["anchor"]


class TestCommands:
    def test_char_matches_known_head(self, capsys):
        assert run(["char", "--p", "3", "--pp", "4", "--r", "1", "--s", "1",
                    "--qmax", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        coeffs = {t["num"]: int(t["coeff"]) for t in payload["series"]["terms"]
                  if t["den"] == 1}
        assert [coeffs.get(n, 0) for n in range(7)] == [1, 0, 1, 1, 2, 2, 3]

    def test_paths_count(self, capsys):
        assert run(["paths", "--p", "3", "--pp", "4", "--a", "1", "--b", "1",
                    "--m", "2", "--count"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 1

    def test_paths_list(self, capsys):
        assert run(["paths", "--p", "3", "--pp", "4", "--a", "1", "--b", "1",
                    "--m", "2", "--list"]) == 0
        assert json.loads(capsys.readouterr().out)["paths"] == [[1, 3, 1]]

    def test_paths_gf_csv(self, capsys):
        assert run(["paths", "--p", "3", "--pp", "4", "--a", "1", "--b", "1",
                    "--m", "2", "--gf", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "num,den,coeff"
        assert len(lines) == 2  # single path, single energy monomial

    def test_deep_paths_need_no_recursion(self, capsys):
        # the (3,4) strip has one path of every even length; at m = 1500 a
        # recursive enumeration exceeds the interpreter's recursion limit
        argv = ["paths", "--p", "3", "--pp", "4", "--a", "1", "--b", "1",
                "--m", "1500"]
        assert run(argv + ["--list"]) == 0
        assert len(json.loads(capsys.readouterr().out)["paths"]) == 1
        assert run(argv + ["--gf"]) == 0

    def test_grading_pieces(self, capsys):
        assert run(["grading", "--k", "1", "--r", "1", "--s", "1",
                    "--mmax", "2", "--qmax", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["m"] for p in payload["pieces"]] == [0, 1, 2]

    def test_stable_round_trips(self, capsys):
        assert run(["stable", "--mmax", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "stable" and payload["m_max"] == 2


    def test_stable_csv(self, capsys):
        assert run(["stable", "--mmax", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "m,l,family,num,den,coeff"
        assert run(["stable", "--mmax", "2"]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        rows = [(c["m"], c["l"], family, t["num"], t["den"], t["coeff"])
                for c in cells for family in ("S", "S_tilde")
                for t in c[family]["terms"]]
        # one row per term of every S and S~ cell, in the JSON's order
        assert len(lines) == 1 + len(rows) > 1
        assert lines[1:] == [",".join(map(str, row)) for row in rows]


class TestDeterminism:
    def _capture(self, argv, capsys):
        code = run(argv)
        return code, capsys.readouterr().out

    def test_jobs_do_not_change_bytes(self, capsys):
        argv = ["verify", "gen", "--p", "3", "--pp", "4", "--mmax", "3"]
        code1, out1 = self._capture(argv + ["--jobs", "1"], capsys)
        code4, out4 = self._capture(argv + ["--jobs", "4"], capsys)
        assert code1 == code4 == 0
        assert out1 == out4

    def test_repeat_runs_identical(self, capsys):
        argv = ["verify", "relS", "--mmax", "4", "--format", "csv"]
        _, out1 = self._capture(argv, capsys)
        _, out2 = self._capture(argv, capsys)
        assert out1 == out2


# Every suite argument ranges over a few values around its valid ones.
_ARG_RANGES = {"mmax": (-1, 4), "qmax": (-1, 8)}


@st.composite
def suite_argvs(draw) -> list[str]:
    """`verify <suite>` with a random value for each argument the suite
    reads; a model argument may also be left out.  Sizes are always given,
    since their defaults are the slow full-scale runs."""
    name = draw(st.sampled_from(sorted(SUITES)))
    argv = ["verify", name]
    for key, default in sorted(SUITES[name].defaults.items()):
        values = st.integers(*_ARG_RANGES.get(key, (-1, 9)))
        value = draw(values if default is not None else st.none() | values)
        if value is not None:
            argv += [f"--{key}", str(value)]
    return argv


@given(argv=suite_argvs())
@settings(max_examples=100, deadline=None)
def test_random_suite_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("qlab: error: ")
    else:
        assert code in (0, 1)
        report = json.loads(out.getvalue())
        assert not [c for c in report["cases"] if c["detail"].startswith("error:")]


# SHA-256 of `qlab all` stdout, the byte-identity reference for every
# refactor: any change to a report byte fails here.
@pytest.mark.parametrize("fmt,digest", [
    ("json", "faa430a75ae68ced8c1d0a4b635d3f1feef3dfcd58a3cdc52889e95c01f3570d"),
    ("csv", "fddac10425fde4db91e9e4ded897562423201c4263284a077294d1269c7bafdb"),
], ids=["json", "csv"])
def test_all_stdout_is_pinned(fmt, digest, capsys):
    assert run(["all", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# SHA-256 of the stdout of the series commands at desk sizes, recorded before
# their term lists became row tables: the JSON term objects and the CSV term
# rows of `char`, `paths --gf` (fractional exponents; an empty series),
# `grading` (fractional exponents) and `stable` (negative exponents), and the
# path lists of `paths --list`.
SERIES_PINS = [
    ("char --p 5 --pp 8 --r 2 --s 3 --qmax 40", "json",
     "fdf6a7a32fbf7c866d428f6a2d1127986b0a1ef82cf7bfaa05e4d5297c4a24e5"),
    ("char --p 5 --pp 8 --r 2 --s 3 --qmax 40", "csv",
     "7fd6a754a0c183edb5c86f03ba5232746b8e94208174298adfde46bd843a8233"),
    ("paths --p 5 --pp 8 --a 2 --b 4 --m 8 --gf", "json",
     "631f402c752147f1f93a300c4a383f2c6439b7a7587eec34eb4e6bdcc5b7845e"),
    ("paths --p 5 --pp 8 --a 2 --b 4 --m 8 --gf", "csv",
     "68de8a5bd5bc90474e6ac33d59f481f52df1043111b85a805e8e893d0b65b799"),
    ("paths --p 5 --pp 7 --a 1 --b 2 --m 5 --gf", "json",
     "647f6ebb9df926dfb7c76ce8d45b98af31ed173c63f9652e0c7ee41d9fc449a0"),
    ("paths --p 5 --pp 7 --a 1 --b 2 --m 5 --gf", "csv",
     "84a519db2a177bfee4f5f07ea2211be5dd7673728f2aa9b4c58b29c5c3244cfa"),
    ("paths --p 5 --pp 8 --a 1 --b 1 --m 6 --list", "json",
     "d565e591c76d28c512df8f466d8fea012a4cab41205a4a9ff1bfd8eda5754a58"),
    ("paths --p 5 --pp 8 --a 1 --b 1 --m 6 --list", "csv",
     "15ad16367110d9eab48731256843b5c39a87e246e0583bbb3a5e20c62e43c243"),
    ("grading --k 2 --r 2 --s 1 --mmax 4 --qmax 20", "json",
     "8892c96e588ad4ca056a07fd82e7cad3e3665884ba3b1fd1c025c3adb959afd4"),
    ("grading --k 2 --r 2 --s 1 --mmax 4 --qmax 20", "csv",
     "62f0a6795c3a99ddcc6b435c1847416a0406a829bd59ea9e8637dfc661af562e"),
    ("stable --mmax 4", "json",
     "61c7b95980d8f43985261e3b84c3bea930ad79b5b19d5b40dffec57c844c4d5f"),
    ("stable --mmax 4", "csv",
     "9da075767eaba5ccc7b6fb6ed79c09b4ffcdba68c663b807fd0eb071c4153200"),
]


@pytest.mark.parametrize("op,fmt,digest", SERIES_PINS,
                         ids=[f"{op} {fmt}" for op, fmt, _ in SERIES_PINS])
def test_series_command_stdout_is_pinned(op, fmt, digest, capsys):
    assert run(op.split() + ["--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_all_applies_k_to_every_suite_that_reads_it(capsys):
    assert run(["all", "--k", "2"]) == 0
    params = {rep["suite"]: rep["params"]
              for rep in json.loads(capsys.readouterr().out)["suites"]}
    assert params["grading"]["k"] == params["i1"]["k"] == [2]
    assert params["abf"]["k"] == 2


# SHA-256 of the stdout of every benchmark op, recorded by
# perfbench/record_digests.py; read here, never written.
with open(Path(__file__).resolve().parents[1] / "perfbench" / "digests.json") as fh:
    BENCH_DIGESTS = json.load(fh)


@pytest.mark.parametrize("op", sorted(BENCH_DIGESTS))
def test_benchmark_op_stdout_is_pinned(op, capsys):
    assert run(op.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_DIGESTS[op]


def test_console_script_installed():
    proc = _fresh_python("-m", "qlab.cli", "paths", "--p", "3", "--pp", "4",
                         "--a", "1", "--b", "1", "--m", "2", "--count")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 1


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """``python args`` in a new interpreter, importing this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


def _fresh_qlab(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m qlab argv`` in a new interpreter, importing this checkout."""
    return _fresh_python("-m", "qlab", *argv)


def test_cli_start_up_loads_no_introspection_modules():
    # `dataclasses` would pull in inspect, ast, dis and tokenize, about half
    # the cost of `import qlab.cli`; the JSON writer takes its string encoder
    # from `_json`, as the `json` package would load its decoder and scanner
    # too.  A new interpreter, as pytest loads inspect and json itself.
    proc = _fresh_python("-c", (
        "import sys, qlab.cli; qlab.cli.build_parser(); print(sorted("
        "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'json',"
        " 'json.decoder', 'json.scanner'} & set(sys.modules)))"))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "[]\n"


def test_module_entry_point_prints_what_run_prints(capsys):
    argv = ["verify", "tau", "--pp", "5"]
    proc = _fresh_qlab(argv)
    assert proc.returncode == 0
    assert run(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def _suite_choices(parser: argparse.ArgumentParser) -> list[str]:
    """The choices of the ``suite`` argument of the ``verify`` subcommand."""
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    (suite,) = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
    return list(suite.choices)


def test_parser_lists_all_suites(monkeypatch):
    # every registered suite, and only those, is a choice of `verify`
    parser = build_parser()
    assert _suite_choices(parser) == sorted(SUITES)
    # the parser is memoized on the suite table, so a new table gets its own
    demo = Suite("demo anchor", {}, {}, lambda v: ({}, []))
    monkeypatch.setattr(cli, "SUITES", {"zeta": demo, "alpha": demo})
    assert _suite_choices(build_parser()) == ["alpha", "zeta"]
    monkeypatch.undo()
    assert build_parser() is parser


def test_one_parser_serves_every_run_in_a_process(capsys):
    # the memoized parser carries no state from one run to the next: each
    # command prints what a fresh process prints, also after usage errors
    assert build_parser() is build_parser()
    char = ["char", "--p", "3", "--pp", "4", "--r", "1", "--s", "1", "--qmax", "8"]
    gen = ["verify", "gen", "--p", "5", "--pp", "8", "--mmax", "3"]
    errors = (["verify", "nosuch"], char[:-1] + ["-1"])
    for argv in (gen, ["verify", "gen", "--mmax", "3"], char + ["--format", "csv"],
                 char, *errors, gen):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects the suite name
            code = exc.code
        out = capsys.readouterr().out
        if argv in errors:
            assert code == 2 and out == ""
            continue
        proc = _fresh_qlab(argv)
        assert code == proc.returncode == 0
        assert out.encode() == proc.stdout


# Strings drawn from one character of each escaping class: quotes,
# backslash, slash, the named and unnamed control characters, DEL, and
# non-ASCII (accented, CJK, line separator, astral, lone surrogate).
_json_strings = st.text(st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f a\u00e9\u4e2d\u2028\U0001f600\ud800'), max_size=8)
_json_scalars = (st.none() | st.booleans() | st.integers()
                 | st.integers(min_value=2**64, max_value=2**200)
                 | st.integers(min_value=-2**200, max_value=-1) | _json_strings)
_json_payloads = st.recursive(_json_scalars, lambda kids: (
    st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_json_strings, kids, max_size=4)), max_leaves=25)


@given(obj=_json_payloads)
@settings(max_examples=100)
def test_json_writer_equals_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


# Series with signed coefficients past 64 bits, rational exponents and
# cutoffs, including empty exact and truncated ones.
_wide_coeffs = st.integers(-2**200, 2**200)
_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
_series = (st.builds(QSeries, st.dictionaries(st.integers(-30, 30) | _fractions,
                                              _wide_coeffs, max_size=8),
                     st.none() | st.integers(-30, 30) | _fractions)
           | st.builds(QSeries.zero, st.none() | st.integers(-5, 5) | _fractions))


@given(s=_series)
@settings(max_examples=100)
def test_json_writer_writes_a_series_as_its_object(s):
    for payload in (s, {"kind": "x", "pieces": [{"m": 0, "series": s}, s]}):
        assert _json_text(payload) == json.dumps(to_json_obj(payload), indent=2,
                                                 sort_keys=True)


_reports = st.builds(
    SuiteReport, _json_strings, _json_strings,
    st.dictionaries(_json_strings, _json_payloads, max_size=3),
    st.lists(st.builds(CaseResult, _json_strings, st.booleans(), _json_strings),
             max_size=5).map(tuple))


@given(rep=_reports)
@settings(max_examples=100)
def test_json_writer_writes_a_report_as_its_object(rep):
    for payload in (rep, {"kind": "all-suites", "ok": rep.ok, "suites": [rep, rep]}):
        assert _json_text(payload) == json.dumps(to_json_obj(payload), indent=2,
                                                 sort_keys=True)


@pytest.mark.parametrize("obj", [
    1.5, Fraction(1, 2), {1: "a"}, {"a": [True, 0.0]}, ({"b": {2: None}},),
    CaseResult("a", True), ModelParams(3, 4),
], ids=["float", "fraction", "int-key", "nested-float", "nested-int-key",
        "case-result", "model-params"])
def test_json_writer_rejects_other_types(obj):
    # the records are tuple subclasses, refused rather than written as arrays
    with pytest.raises(TypeError):
        _json_text(obj)


@pytest.mark.parametrize("record", [
    Comparison(True, None), CaseResult("a", True), SuiteReport("s", "x", {}, ()),
    ModelParams(3, 4), make_tau_table(ModelParams(3, 4)),
    Suite("demo anchor", {}, {}, lambda v: ({}, [])),
], ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def _raises(*args, **kwargs):
    raise AssertionError("called")


def test_tau_suite_weighs_no_triple(monkeypatch, capsys):
    # The site check validates taus and labels only; patching the weighing
    # to raise leaves every byte of its report unchanged.
    argv = ["verify", "tau", "--pp", "40"]
    assert run(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(pathweights, "_weights", _raises)
    assert run(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("mode", ["--gf", "--list"])
def test_paths_over_the_walk_limit_are_refused_unwalked(mode, monkeypatch, capsys):
    # m = 20 on (5,8) has 3,312,555 paths: refused on their count, before a
    # single step is walked, as a one-line usage error; --count still answers.
    argv = ["paths", "--p", "5", "--pp", "8", "--a", "1", "--b", "1", "--m", "20"]
    monkeypatch.setattr(pathweights, "_walk", _raises)
    assert run(argv + [mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"qlab: error: 3312555 paths is over the walk limit "
                            f"{cli.PATH_WALK_LIMIT}; use --count\n")
    assert run(argv + ["--count"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 3312555


def test_path_sums_build_no_path_list(monkeypatch, capsys):
    # verify gen, the X oracle, the rigged oracle and paths --gf sum through
    # the walker alone; enumerate_paths is patched to raise under every name
    # bound to it.
    argv = ["paths", "--p", "5", "--pp", "8", "--a", "1", "--b", "1", "--m", "8", "--gf"]
    assert run(argv) == 0
    want = capsys.readouterr().out
    for module in (pathweights, cli):
        monkeypatch.setattr(module, "enumerate_paths", _raises)
    assert run(argv) == 0
    assert capsys.readouterr().out == want
    params = ModelParams(5, 8)
    table = make_tau_table(params)
    assert all(case.ok for r in range(1, 5) for a in range(1, 8)
               for case in vircharacters.verify_GEN(params, r, a, 5))
    for a, b, c in x_configs(params):
        assert brute_config_sum_X(a, b, c, 4, table) == config_sum_X(a, b, c, 4, table)
    params = ModelParams(4, 5)
    assert all(vircharacters.verify_rigged(params, r, a, 11).ok
               for r in range(1, 4) for a in range(1, 5))
