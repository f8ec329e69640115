"""Command-line front end.

Subcommands: ``char`` (normalized character series), ``paths`` (path listing,
count, or energy generating function), ``grading`` (graded filtration
pieces), ``stable`` (table of S polynomials), ``verify`` (one named identity
suite), ``all`` (every suite at desk scale).  Exit status: 0 all checks pass,
1 at least one failure, 2 usage error, out-of-range value or out of memory.
Output is deterministic: reports sort cases by id and JSON keys are sorted.
Suites run serially; ``verify`` and ``all`` accept ``--jobs N`` (N >= 1), which
changes nothing.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

try:  # the C encoder, without loading the json package and its decoder
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .supernomial import S_table, verify_S_recurrences
from .pathweights import (
    ModelParams, b_of, count_paths, enumerate_paths, make_tau_table, path_gf,
    verify_tau, verify_Xandf,
)
from .vircharacters import (
    I_m, rocha_caridi, verify_GEN, verify_IandS, verify_poch_inv_expansion,
    verify_rigged, verify_rocha2,
)
from .fusionchar import (
    graded_13_char, unitary_params, verify_abf, verify_exact_sequence_chars,
    verify_grading, verify_i1_sector, verify_pi2pi3, verify_pmn,
)
from .qcore import QSeries
from .report import CaseResult, SuiteReport

FIVE_MODELS = ((3, 4), (4, 5), (5, 7), (4, 7), (5, 8))

# The most paths ``paths --list`` and ``--gf`` walk; ``--count`` walks none.
PATH_WALK_LIMIT = 10 ** 6

# The largest --qmax any command takes.  A character to q^20000 already
# takes about 11 s; values far above the limit exhaust memory.
QMAX_LIMIT = 10 ** 5

# (p, p', r, a, b); the b != b_of rows exercise the free endpoint choice.
ROCHA2_INSTANCES = (
    (3, 4, 1, 1, 1), (3, 4, 1, 1, 3), (3, 4, 1, 2, 2),
    (3, 4, 2, 1, 3), (3, 4, 2, 1, 1),
    (4, 5, 1, 1, 1), (4, 5, 2, 3, 3), (4, 5, 2, 3, 1), (4, 5, 3, 2, 4),
    (5, 7, 1, 1, 1), (5, 7, 2, 4, 2),
    (5, 8, 3, 5, 5), (5, 8, 2, 2, 4), (5, 8, 2, 2, 2),
)

Chunk = tuple[str, Callable[[], list[CaseResult]]]


# -- suite table -------------------------------------------------------------


class Suite(NamedTuple):
    """A verification suite: the identity it checks in plain words, the
    arguments it reads with the value of each the user leaves out (``None``
    for a model argument), the arguments ``all`` sets over the user's, and a
    builder from resolved arguments to (report params, chunks).  Builders
    construct model parameters themselves, so a bad value is a usage error
    before any chunk runs."""

    anchor: str
    defaults: dict
    all_scale: dict
    build: Callable[[argparse.Namespace], tuple[dict, list[Chunk]]]


def _chosen(default: Sequence[tuple], optional: tuple = (), **given: Optional[int]) -> list[tuple]:
    """The one instance the user named, or all of ``default`` when no part of
    it is given; naming only part of it is a usage error (whose message marks
    the ``optional`` names, which the caller fills in when left out)."""
    if all(x is None for x in given.values()):
        return list(default)
    if None in given.values():
        raise ValueError("give all of " + " ".join(f"--{k}" for k in given if k not in optional)
                         + "".join(f", optionally --{k}," for k in optional) + " or none of them")
    return [tuple(given.values())]


def _per_label(tag: str, models: list[tuple], check) -> list[Chunk]:
    """One chunk per model and labels (r, a) running ``check(params, r, a)``."""
    chunks: list[Chunk] = []
    for p, pp in models:
        params = ModelParams(p, pp)
        chunks += [(f"{tag} {p},{pp} r={r} a={a}",
                    lambda params=params, r=r, a=a: check(params, r, a))
                   for r in range(1, p) for a in range(1, pp)]
    return chunks


def _xandf(v):
    models = _chosen(FIVE_MODELS, p=v.p, pp=v.pp)
    return {"models": models, "m_max": v.mmax}, [
        (f"xandf {p},{pp}", lambda params=ModelParams(p, pp): verify_Xandf(
            make_tau_table(params), v.mmax))
        for p, pp in models]


def _rocha2(v):
    instances = _chosen(ROCHA2_INSTANCES, ("b",), p=v.p, pp=v.pp, r=v.r, a=v.a,
                        b=v.a if v.b is None else v.b)
    chunks: list[Chunk] = []
    for inst in instances:
        params, (r, a, b) = ModelParams(*inst[:2]), inst[2:]
        I_m(params, r, a, b, 0)  # rejects labels off the strip before any chunk runs
        chunks.append((f"rocha2 {inst}", lambda params=params, r=r, a=a, b=b: [
            verify_rocha2(params, r, a, b, v.qmax + 1)]))
    return {"instances": instances, "qmax": v.qmax}, chunks


def _gen(v):
    models = _chosen(FIVE_MODELS, p=v.p, pp=v.pp)
    return {"models": models, "m_max": v.mmax}, _per_label(
        "gen", models, lambda params, r, a: verify_GEN(params, r, a, v.mmax))


def _iands(v):
    models = _chosen(FIVE_MODELS, p=v.p, pp=v.pp)
    return {"models": models, "m_max": v.mmax}, _per_label(
        "iands", models, lambda params, r, a: verify_IandS(
            params, r, a, b_of(r, a, params), v.mmax))


def _rigged(v):
    models = _chosen(((3, 4), (4, 5)), p=v.p, pp=v.pp)
    return {"models": models, "qmax": v.qmax}, _per_label(
        "rigged", models,
        lambda params, r, a: [verify_rigged(params, r, a, v.qmax + 1)])


def _levels(v) -> list[int]:
    """The levels k of the unitary models a suite runs: --k, or 1, 2 and 3."""
    ks = [1, 2, 3] if v.k is None else [v.k]
    for k in ks:
        unitary_params(k)  # rejects k < 1 before any chunk runs
    return ks


def _abf(v):
    (k,) = _levels(v)
    return {"k": k, "N": v.m, "deg": v.qmax}, [
        ("abf", lambda: verify_abf(k, v.m, v.qmax))]


def _grading(v):
    ks = _levels(v)
    return {"k": ks, "m_max": v.mmax, "qmax": v.qmax}, [
        (f"grading k={k}", lambda k=k: verify_grading(k, v.mmax, v.qmax + 1))
        for k in ks]


def _i1(v):
    # i1 is exact: --qmax bounds nothing, but stays in the pinned params.
    ks = _levels(v)
    return {"k": ks, "qmax": v.qmax}, [
        (f"i1 k={k}", lambda k=k: verify_i1_sector(k)) for k in ks]


SUITES: dict[str, Suite] = {
    "relS": Suite(
        "shift recurrences and symmetry of the S / S~ polynomial family",
        {"mmax": 8}, {"mmax": 6}, lambda v: (
            {"m_max": v.mmax},
            [("relS", lambda: verify_S_recurrences(v.mmax))])),
    "xandf": Suite(
        "path configuration sums equal alternating supernomial f-sums",
        {"p": None, "pp": None, "mmax": 5}, {"mmax": 4}, _xandf),
    "tau": Suite(
        "site tables satisfy every structural constraint of the labelling",
        {"pp": 40}, {}, lambda v: (
            {"pp_max": v.pp}, [("tau", lambda: verify_tau(v.pp))])),
    "rocha2": Suite(
        "sum_m I_m/(q)_m reproduces the alternating-sum character",
        {"p": None, "pp": None, "r": None, "a": None, "b": None, "qmax": 40},
        {"qmax": 30}, _rocha2),
    "gen": Suite(
        "weighted path sums equal the configuration polynomials I_m",
        {"p": None, "pp": None, "mmax": 6}, {"mmax": 5}, _gen),
    "iands": Suite(
        "I_m decomposes over the next-to-last path site",
        {"p": None, "pp": None, "mmax": 6}, {"mmax": 4}, _iands),
    "rigged": Suite(
        "brute-force rigged-path enumeration matches the character",
        {"p": None, "pp": None, "qmax": 20}, {"qmax": 14}, _rigged),
    "pochsum": Suite(
        "1/(q)_inf = sum_m q^{m^2-l^2} S_{m,l}/(q)_m for every l",
        {"qmax": 40}, {"qmax": 30}, lambda v: (
            {"l_max": 5, "qmax": v.qmax},
            [("pochsum", lambda: verify_poch_inv_expansion(5, v.qmax + 1))])),
    "pi2pi3": Suite(
        "level-one character as q^{m^2}/(q)_m-weighted flipped string sum",
        {"qmax": 30}, {"qmax": 20}, lambda v: (
            {"qmax": v.qmax}, [("pi2pi3", lambda: verify_pi2pi3(v.qmax + 1))])),
    "pmn": Suite(
        "finite binomial refinement of the string-sum identity",
        {"mmax": 6}, {"mmax": 4}, lambda v: (
            {"N_max": v.mmax}, [("pmn", lambda: verify_pmn(v.mmax))])),
    "exactseq": Suite(
        "fusion short-exact-sequence identity for string characters",
        {"mmax": 5}, {"mmax": 4}, lambda v: (
            {"k1_max": v.mmax, "k2_max": v.mmax},
            [("exactseq", lambda: verify_exact_sequence_chars(v.mmax, v.mmax))])),
    "abf": Suite(
        "finitized lattice sums stabilize to minimal-model characters",
        {"k": 1, "qmax": 15, "m": 20}, {"qmax": 10, "m": 12}, _abf),
    "grading": Suite(
        "graded filtration pieces: nonnegative, sum to the character, "
        "and match the alternating fused-string route",
        {"k": None, "mmax": 6, "qmax": 40}, {"mmax": 4, "qmax": 30},
        _grading),
    "i1": Suite(
        "odd sectors equal their reflected partners piece by piece",
        {"k": None, "qmax": 40}, {"qmax": 30}, _i1),
}

_SUITE_ARGS = ("p", "pp", "r", "a", "b", "m", "k", "mmax", "qmax")


def _build(name: str, args, scaled: bool = False) -> tuple[dict, list[Chunk]]:
    """Resolve the arguments the suite reads (the user's, then the ``all``
    scale when ``scaled``, then the defaults for what is still unset) and
    build it.  Outside ``all``, giving an argument the suite does not read
    is a usage error."""
    suite = SUITES[name]
    given = {k: getattr(args, k) for k in _SUITE_ARGS}
    unread = [k for k, x in given.items() if x is not None and k not in suite.defaults]
    if unread and not scaled:
        raise ValueError(f"suite {name} does not read --{unread[0]}")
    unset = {**suite.defaults, **suite.all_scale} if scaled else suite.defaults
    resolved = {k: x if given[k] is None else given[k] for k, x in unset.items()}
    return suite.build(argparse.Namespace(**resolved))


def _run_suite(name: str, params: dict, chunks: list[Chunk]) -> SuiteReport:
    """Run a built suite's chunks serially, in order.

    A chunk that raises becomes one failed case named after the chunk, but
    ``MemoryError`` propagates: running out of memory is not a failed
    identity.  A suite that yields no case checks nothing, which is a usage
    error rather than a pass.
    """
    cases: list[CaseResult] = []
    for chunk, thunk in chunks:
        try:
            cases.extend(thunk())
        except MemoryError:
            raise
        except Exception as exc:
            cases.append(CaseResult(chunk, False, f"error: {exc!r}"))
    if not cases:
        raise ValueError(f"suite {name} checks nothing with these arguments")
    return SuiteReport(name, SUITES[name].anchor, params, tuple(cases))


# How _json_text writes each scalar type; exact types, so bool is not int.
_SCALARS: dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


# The row tables: the keys of their objects, sorted, each with the ``%``
# format of its value in a row.  A term's coefficient is a JSON string; a
# case's detail and id come encoded, quotes included.
_TERM_FIELDS = (("coeff", '"%d"'), ("den", "%d"), ("num", "%d"))
_CASE_FIELDS = (("detail", "%s"), ("id", "%s"), ("status", '"%s"'))


class _Rows:
    """A JSON list of objects with the keys of ``fields``, given as one row
    of values per object."""

    __slots__ = ("fields", "rows")

    def __init__(self, fields: tuple[tuple[str, str], ...], rows: list[tuple]) -> None:
        self.fields, self.rows = fields, rows

    def text(self, nl: str) -> str:
        """The list as ``_json_write`` writes it after ``nl``: one template
        for every object, filled in row by row."""
        if not self.rows:
            return "[]"
        inner = nl + "  "
        fmt = (inner + "{" + ",".join(inner + "  " + encode_basestring_ascii(k) + ": " + f
                                      for k, f in self.fields) + inner + "}")
        return "[" + ",".join(map(fmt.__mod__, self.rows)) + nl + "]"


def _series_obj(s: QSeries) -> dict:
    cut = s.cutoff  # an int or a Fraction, both in lowest terms
    return {"cutoff": None if cut is None else {"den": cut.denominator, "num": cut.numerator},
            "terms": _Rows(_TERM_FIELDS, s.json_rows())}


def _report_obj(rep: SuiteReport) -> dict:
    enc = encode_basestring_ascii
    return {"anchor": rep.anchor, "ok": rep.ok, "params": rep.params, "suite": rep.suite,
            "cases": _Rows(_CASE_FIELDS, [(enc(c.detail), enc(c.case_id), c.status)
                                          for c in rep.sorted_cases()])}


# The records _json_text writes, each as its JSON object with a row table.
_RECORDS: dict[type, Callable[[object], dict]] = {
    QSeries: _series_obj, SuiteReport: _report_obj,
}


def _json_text(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)`` for a
    payload built of dicts with str keys, lists, tuples, str, int, bool and
    None, where a ``QSeries`` stands for ``{"cutoff", "terms"}`` (one
    ``{"coeff", "den", "num"}`` per term, the coefficient as a decimal
    string) and a ``SuiteReport`` for its object with one ``{"detail", "id",
    "status"}`` per case; any other type raises ``TypeError``."""
    out: list[str] = []
    _json_write(obj, "\n", out)
    return "".join(out)


def _json_write(obj, nl: str, out: list[str]) -> None:
    """Append ``obj`` to ``out``; ``nl`` is a newline and the indent of the
    line ``obj`` starts on.  A scalar item goes out with its key as one
    piece."""
    t = type(obj)
    record = _RECORDS.get(t)
    if record is not None:
        obj, t = record(obj), dict
    if t is dict:
        keys = sorted(obj)
        opener, closer = "{", "}"
    elif t is list or t is tuple:
        keys = None
        opener, closer = "[", "]"
    elif t is _Rows:
        out.append(obj.text(nl))
        return
    else:
        enc = _SCALARS.get(t)
        if enc is None:
            raise TypeError(f"{t.__name__} is not a JSON payload type")
        out.append(enc(obj))
        return
    if not obj:
        out.append(opener + closer)
        return
    inner = nl + "  "
    sep = opener + inner
    for item in (obj if keys is None else keys):
        if keys is not None:
            if type(item) is not str:
                raise TypeError(f"{type(item).__name__} key in a JSON payload")
            sep += encode_basestring_ascii(item) + ": "
            item = obj[item]
        enc = _SCALARS.get(type(item))
        if enc is None:
            out.append(sep)
            _json_write(item, inner, out)
        else:
            out.append(sep + enc(item))
        sep = "," + inner
    out.append(nl + closer)


def _emit(args, payload, header: str, rows: Iterable[Sequence]) -> None:
    """``payload`` as JSON (the bytes of ``json.dumps(indent=2,
    sort_keys=True)``, see ``_json_text``), or under --format csv the header
    and one comma-joined line per row.  Records become JSON here, so their
    conversion is part of the output step; the rows are read only for CSV."""
    if args.format == "csv":
        lines = [header, *(",".join(map(str, row)) for row in rows)]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_json_text(payload) + "\n")


def _terms(series: QSeries, *prefix) -> Iterator[tuple]:
    """CSV rows (*prefix, num, den, coeff) of a series, from its JSON rows."""
    return ((*prefix, num, den, coeff) for coeff, den, num in series.json_rows())


def _cmd_char(args) -> int:
    params = ModelParams(args.p, args.pp)
    series = rocha_caridi(params, args.r, args.s, args.qmax + 1)
    payload = {
        "kind": "character",
        "p": args.p, "pp": args.pp, "r": args.r, "s": args.s,
        "qmax": args.qmax,
        "series": series,
    }
    _emit(args, payload, "num,den,coeff", _terms(series))
    return 0


def _cmd_paths(args) -> int:
    params = ModelParams(args.p, args.pp)
    head = {"p": args.p, "pp": args.pp, "a": args.a, "b": args.b, "m": args.m}
    n = count_paths(args.a, args.b, args.m, params)
    if args.count:
        _emit(args, {"kind": "path-count", "count": n}, "count", [(n,)])
    elif n > PATH_WALK_LIMIT:
        raise ValueError(f"{n} paths is over the walk limit {PATH_WALK_LIMIT}; use --count")
    elif args.gf:
        gf = path_gf(args.a, args.b, args.m, make_tau_table(params))
        _emit(args, {"kind": "path-gf", **head, "series": gf},
              "num,den,coeff", _terms(gf))
    else:
        paths = enumerate_paths(args.a, args.b, args.m, params)
        _emit(args, {"kind": "path-list", **head, "paths": paths},
              "path", ((" ".join(map(str, p)),) for p in paths))
    return 0


def _cmd_grading(args) -> int:
    pieces = [{"m": m, "series": graded_13_char(args.k, args.r, args.s, m, args.qmax + 1)}
              for m in range(args.mmax + 1)]
    payload = {"kind": "grading", "k": args.k, "r": args.r, "s": args.s,
               "mmax": args.mmax, "qmax": args.qmax, "pieces": pieces}
    _emit(args, payload, "m,num,den,coeff",
          (row for piece in pieces for row in _terms(piece["series"], piece["m"])))
    return 0


def _cmd_stable(args) -> int:
    table = S_table(args.mmax, args.lmax)
    _emit(args, {"kind": "stable", **table}, "m,l,family,num,den,coeff",
          (row for cell in table["cells"] for family in ("S", "S_tilde")
           for row in _terms(cell[family], cell["m"], cell["l"], family)))
    return 0


def _cmd_verify(args) -> int:
    rep = _run_suite(args.suite, *_build(args.suite, args))
    _emit(args, rep, "id,status,detail", rep.csv_rows())
    return 0 if rep.ok else 1


def _cmd_all(args) -> int:
    built = [(name, *_build(name, args, scaled=True)) for name in sorted(SUITES)]
    reports = [_run_suite(name, params, chunks) for name, params, chunks in built]
    ok = all(rep.ok for rep in reports)
    payload = {"kind": "all-suites", "ok": ok, "suites": reports}
    _emit(args, payload, "suite,id,status,detail",
          ((rep.suite, *row) for rep in reports for row in rep.csv_rows()))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process for each suite table and
    shared by every call; ``parse_args`` leaves it unchanged."""
    return _parser(tuple(sorted(SUITES)))


@functools.cache
def _parser(suites: tuple[str, ...]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="Exact q-series identities for filtration characters.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    def add_suite_args(sp):
        for name in _SUITE_ARGS:
            sp.add_argument(f"--{name}", type=int, default=None)
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored (N >= 1); suites run serially")
        add_common(sp)

    sp = sub.add_parser("char", help="normalized character series")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--pp", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--qmax", type=int, default=40)
    add_common(sp)
    sp.set_defaults(func=_cmd_char)

    sp = sub.add_parser("paths", help="admissible paths between two sites")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--pp", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", default=False)
    mode.add_argument("--count", action="store_true", default=False)
    mode.add_argument("--gf", action="store_true", default=False,
                      help="energy generating function of the path set")
    add_common(sp)
    sp.set_defaults(func=_cmd_paths)

    sp = sub.add_parser("grading", help="graded filtration pieces")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--mmax", type=int, default=6)
    sp.add_argument("--qmax", type=int, default=40)
    add_common(sp)
    sp.set_defaults(func=_cmd_grading)

    sp = sub.add_parser("stable", help="table of S and S~ polynomials")
    sp.add_argument("--mmax", type=int, default=6)
    sp.add_argument("--lmax", type=int, default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_stable)

    sp = sub.add_parser("verify", help="run one verification suite")
    sp.add_argument("suite", choices=suites)
    add_suite_args(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("all", help="every suite at desk scale")
    add_suite_args(sp)
    sp.set_defaults(func=_cmd_all)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("qmax", "mmax", "lmax", "m"):
            if (getattr(args, name, None) or 0) < 0:
                raise ValueError(f"--{name} must be >= 0")
        if (getattr(args, "qmax", None) or 0) > QMAX_LIMIT:
            raise ValueError(f"--qmax {args.qmax} is over the limit {QMAX_LIMIT}")
        if getattr(args, "jobs", 1) < 1:
            raise ValueError("--jobs must be >= 1")
        return args.func(args)
    except ValueError as exc:
        # Bad input is a usage error; exit 1 stays reserved for a failed
        # identity.  Suite builders check their model parameters before any
        # chunk runs; a chunk's own exception becomes a failed case, except
        # running out of memory, which is no failed identity either.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"{parser.prog}: error: out of memory; use smaller arguments", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
