"""Command-line front end.

Subcommands: ``char`` (normalized character series), ``paths`` (path listing,
count, or energy generating function), ``grading`` (graded filtration
pieces), ``stable`` (table of S polynomials), ``verify`` (one named identity
suite), ``all`` (every suite at desk scale).  Exit status: 0 all checks pass,
1 at least one failure, 2 usage error or out-of-range value.  Output is
deterministic: reports sort cases by id, JSON keys are sorted, and worker
count never changes bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

from . import report as report_mod
from .qcore import QSeries
from .supernomial import S_table, verify_S_recurrences
from .pathweights import (
    ModelParams, enumerate_paths, count_paths, energy, make_tau_table,
    verify_Xandf,
)
from .vircharacters import (
    rocha_caridi, verify_GEN, verify_IandS, verify_poch_inv_expansion,
    verify_rigged, verify_rocha2,
)
from .fusionchar import (
    graded_13_char, verify_abf, verify_exact_sequence_chars, verify_grading,
    verify_i1_sector, verify_pi2pi3, verify_pmn,
)
from .report import CaseResult, SuiteReport, make_report

FIVE_MODELS = ((3, 4), (4, 5), (5, 7), (4, 7), (5, 8))

# (p, p', r, a, b); the b != b_of rows exercise the free endpoint choice.
ROCHA2_INSTANCES = (
    (3, 4, 1, 1, 1), (3, 4, 1, 1, 3), (3, 4, 1, 2, 2),
    (3, 4, 2, 1, 3), (3, 4, 2, 1, 1),
    (4, 5, 1, 1, 1), (4, 5, 2, 3, 3), (4, 5, 2, 3, 1), (4, 5, 3, 2, 4),
    (5, 7, 1, 1, 1), (5, 7, 2, 4, 2),
    (5, 8, 3, 5, 5), (5, 8, 2, 2, 4), (5, 8, 2, 2, 2),
)

Chunk = tuple[str, Callable[[], list[CaseResult]]]


def _run_chunks(chunks: Sequence[Chunk], jobs: Optional[int]) -> list[CaseResult]:
    n = report_mod.default_jobs() if jobs is None else max(1, jobs)

    def run_one(chunk: Chunk) -> list[CaseResult]:
        name, thunk = chunk
        try:
            return thunk()
        except Exception as exc:
            return [CaseResult(name, False, f"error: {exc!r}")]

    if n == 1 or len(chunks) <= 1:
        nested = [run_one(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=n) as pool:
            nested = list(pool.map(run_one, chunks))
    return [case for sub in nested for case in sub]


# -- suite registry ----------------------------------------------------------


def _suite_rels(args) -> tuple[str, dict, list[Chunk]]:
    m_max = args.mmax if args.mmax is not None else 8

    def run() -> list[CaseResult]:
        return [
            CaseResult(f"relS {c.identity} m={c.m} l={c.l}", c.ok, c.detail)
            for c in verify_S_recurrences(m_max)
        ]

    anchor = "shift recurrences and symmetry of the S / S~ polynomial family"
    return anchor, {"m_max": m_max}, [("relS", run)]


def _suite_xandf(args) -> tuple[str, dict, list[Chunk]]:
    models = [(args.p, args.pp)] if args.p and args.pp else list(FIVE_MODELS)
    m_max = args.mmax if args.mmax is not None else 5
    chunks: list[Chunk] = []
    for p, pp in models:
        def run(p=p, pp=pp) -> list[CaseResult]:
            table = make_tau_table(ModelParams(p, pp))
            return [
                CaseResult(f"xandf p={p} p'={pp} a={c.a} b={c.b} c={c.c} m={c.m}",
                           c.ok, c.detail)
                for c in verify_Xandf(table, m_max)
            ]
        chunks.append((f"xandf {p},{pp}", run))
    anchor = "path configuration sums equal alternating supernomial f-sums"
    return anchor, {"models": models, "m_max": m_max}, chunks


def _suite_tau(args) -> tuple[str, dict, list[Chunk]]:
    pp_max = args.pp if args.pp else 40

    def run() -> list[CaseResult]:
        import math
        out = []
        for pp in range(4, pp_max + 1):
            for p in range(3, pp):
                if not (p < pp < 2 * p) or math.gcd(p, pp) != 1:
                    continue
                try:
                    make_tau_table(ModelParams(p, pp))
                    out.append(CaseResult(f"tau p={p} p'={pp}", True, "valid"))
                except ValueError as exc:
                    out.append(CaseResult(f"tau p={p} p'={pp}", False, str(exc)))
        return out

    anchor = "site tables satisfy every structural constraint of the labelling"
    return anchor, {"pp_max": pp_max}, [("tau", run)]


def _suite_rocha2(args) -> tuple[str, dict, list[Chunk]]:
    qmax = args.qmax if args.qmax is not None else 40
    if args.p and args.pp and args.r and args.a:
        b = args.b if args.b else args.a
        instances = [(args.p, args.pp, args.r, args.a, b)]
    else:
        instances = list(ROCHA2_INSTANCES)
    chunks: list[Chunk] = [
        (f"rocha2 {inst}", lambda inst=inst: [
            verify_rocha2(ModelParams(inst[0], inst[1]), inst[2], inst[3],
                          inst[4], qmax + 1)])
        for inst in instances
    ]
    anchor = "sum_m I_m/(q)_m reproduces the alternating-sum character"
    return anchor, {"instances": instances, "qmax": qmax}, chunks


def _suite_gen(args) -> tuple[str, dict, list[Chunk]]:
    models = [(args.p, args.pp)] if args.p and args.pp else list(FIVE_MODELS)
    m_max = args.mmax if args.mmax is not None else 6
    chunks: list[Chunk] = []
    for p, pp in models:
        for r in range(1, p):
            for a in range(1, pp):
                chunks.append((
                    f"gen {p},{pp} r={r} a={a}",
                    lambda p=p, pp=pp, r=r, a=a: verify_GEN(
                        ModelParams(p, pp), r, a, m_max),
                ))
    anchor = "weighted path sums equal the configuration polynomials I_m"
    return anchor, {"models": models, "m_max": m_max}, chunks


def _suite_iands(args) -> tuple[str, dict, list[Chunk]]:
    from .pathweights import b_of
    models = [(args.p, args.pp)] if args.p and args.pp else list(FIVE_MODELS)
    m_max = args.mmax if args.mmax is not None else 6
    chunks: list[Chunk] = []
    for p, pp in models:
        for r in range(1, p):
            for a in range(1, pp):
                chunks.append((
                    f"iands {p},{pp} r={r} a={a}",
                    lambda p=p, pp=pp, r=r, a=a: verify_IandS(
                        ModelParams(p, pp), r, a,
                        b_of(r, a, ModelParams(p, pp)), m_max),
                ))
    anchor = "I_m decomposes over the next-to-last path site"
    return anchor, {"models": models, "m_max": m_max}, chunks


def _suite_rigged(args) -> tuple[str, dict, list[Chunk]]:
    qmax = args.qmax if args.qmax is not None else 20
    models = [(args.p, args.pp)] if args.p and args.pp else [(3, 4), (4, 5)]
    chunks: list[Chunk] = []
    for p, pp in models:
        for r in range(1, p):
            for a in range(1, pp):
                chunks.append((
                    f"rigged {p},{pp} r={r} a={a}",
                    lambda p=p, pp=pp, r=r, a=a: [
                        verify_rigged(ModelParams(p, pp), r, a, qmax + 1)],
                ))
    anchor = "brute-force rigged-path enumeration matches the character"
    return anchor, {"models": models, "qmax": qmax}, chunks


def _suite_pochsum(args) -> tuple[str, dict, list[Chunk]]:
    qmax = args.qmax if args.qmax is not None else 40
    l_max = 5
    anchor = "1/(q)_inf = sum_m q^{m^2-l^2} S_{m,l}/(q)_m for every l"
    return anchor, {"l_max": l_max, "qmax": qmax}, [
        ("pochsum", lambda: verify_poch_inv_expansion(l_max, qmax + 1))]


def _suite_pi2pi3(args) -> tuple[str, dict, list[Chunk]]:
    qmax = args.qmax if args.qmax is not None else 30
    anchor = "level-one character as q^{m^2}/(q)_m-weighted flipped string sum"
    return anchor, {"qmax": qmax}, [
        ("pi2pi3", lambda: verify_pi2pi3(qmax + 1))]


def _suite_pmn(args) -> tuple[str, dict, list[Chunk]]:
    n_max = args.mmax if args.mmax is not None else 6
    anchor = "finite binomial refinement of the string-sum identity"
    return anchor, {"N_max": n_max}, [
        ("pmn", lambda: verify_pmn(n_max))]


def _suite_exactseq(args) -> tuple[str, dict, list[Chunk]]:
    k_max = args.mmax if args.mmax is not None else 5
    anchor = "fusion short-exact-sequence identity for string characters"
    return anchor, {"k1_max": k_max, "k2_max": k_max}, [
        ("exactseq", lambda: verify_exact_sequence_chars(k_max, k_max))]


def _suite_abf(args) -> tuple[str, dict, list[Chunk]]:
    k = args.k if args.k is not None else 1
    qmax = args.qmax if args.qmax is not None else 15
    n = args.m if args.m is not None else 20
    anchor = "finitized lattice sums stabilize to minimal-model characters"
    return anchor, {"k": k, "N": n, "deg": qmax}, [
        ("abf", lambda: verify_abf(k, n, qmax))]


def _suite_grading(args) -> tuple[str, dict, list[Chunk]]:
    ks = [args.k] if args.k is not None else [1, 2, 3]
    m_max = args.mmax if args.mmax is not None else 6
    qmax = args.qmax if args.qmax is not None else 40
    chunks: list[Chunk] = [
        (f"grading k={k}", lambda k=k: verify_grading(k, m_max, qmax + 1))
        for k in ks
    ]
    anchor = ("graded filtration pieces: nonnegative, sum to the character, "
              "and match the alternating fused-string route")
    return anchor, {"k": ks, "m_max": m_max, "qmax": qmax}, chunks


def _suite_i1(args) -> tuple[str, dict, list[Chunk]]:
    ks = [args.k] if args.k is not None else [1, 2, 3]
    qmax = args.qmax if args.qmax is not None else 40
    chunks: list[Chunk] = [
        (f"i1 k={k}", lambda k=k: verify_i1_sector(k, qmax + 1)) for k in ks
    ]
    anchor = "odd sectors equal their reflected partners piece by piece"
    return anchor, {"k": ks, "qmax": qmax}, chunks


SUITES = {
    "relS": _suite_rels,
    "xandf": _suite_xandf,
    "tau": _suite_tau,
    "rocha2": _suite_rocha2,
    "gen": _suite_gen,
    "iands": _suite_iands,
    "rigged": _suite_rigged,
    "pochsum": _suite_pochsum,
    "pi2pi3": _suite_pi2pi3,
    "pmn": _suite_pmn,
    "exactseq": _suite_exactseq,
    "abf": _suite_abf,
    "grading": _suite_grading,
    "i1": _suite_i1,
}

# Reduced-scale arguments for `all` (kept well under desk-scale budgets).
_ALL_SCALE: dict[str, dict] = {
    "relS": {"mmax": 6},
    "xandf": {"mmax": 4},
    "tau": {},
    "rocha2": {"qmax": 30},
    "gen": {"mmax": 5},
    "iands": {"mmax": 4},
    "rigged": {"qmax": 14},
    "pochsum": {"qmax": 30},
    "pi2pi3": {"qmax": 20},
    "pmn": {"mmax": 4},
    "exactseq": {"mmax": 4},
    "abf": {"qmax": 10, "m": 12},
    "grading": {"mmax": 4, "qmax": 30, "k": None},
    "i1": {"qmax": 30},
}


def _emit(args, payload: dict, csv_text: Optional[str] = None) -> None:
    if args.format == "csv" and csv_text is not None:
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _series_csv(series: QSeries) -> str:
    lines = ["num,den,coeff"]
    for e, c in series.items():
        lines.append(f"{e.numerator},{e.denominator},{c}")
    return "\n".join(lines) + "\n"


def _cmd_char(args) -> int:
    params = ModelParams(args.p, args.pp)
    series = rocha_caridi(params, args.r, args.s, args.qmax + 1)
    payload = {
        "kind": "character",
        "p": args.p, "pp": args.pp, "r": args.r, "s": args.s,
        "qmax": args.qmax,
        "series": series.to_json_obj(),
    }
    _emit(args, payload, _series_csv(series))
    return 0


def _cmd_paths(args) -> int:
    params = ModelParams(args.p, args.pp)
    if args.count:
        n = count_paths(args.a, args.b, args.m, params)
        _emit(args, {"kind": "path-count", "count": n}, f"count\n{n}\n")
        return 0
    if args.gf:
        table = make_tau_table(params)
        gf = QSeries.zero(None)
        for path in enumerate_paths(args.a, args.b, args.m, params):
            gf = gf + QSeries.monomial(energy(path, table))
        payload = {"kind": "path-gf", "p": args.p, "pp": args.pp,
                   "a": args.a, "b": args.b, "m": args.m,
                   "series": gf.to_json_obj()}
        _emit(args, payload, _series_csv(gf))
        return 0
    paths = enumerate_paths(args.a, args.b, args.m, params)
    payload = {"kind": "path-list", "p": args.p, "pp": args.pp,
               "a": args.a, "b": args.b, "m": args.m,
               "paths": [list(path) for path in paths]}
    csv_text = "path\n" + "".join(" ".join(map(str, p)) + "\n" for p in paths)
    _emit(args, payload, csv_text)
    return 0


def _cmd_grading(args) -> int:
    pieces = []
    for m in range(args.mmax + 1):
        g = graded_13_char(args.k, args.r, args.s, m, args.qmax + 1)
        pieces.append({"m": m, "series": g.to_json_obj()})
    payload = {"kind": "grading", "k": args.k, "r": args.r, "s": args.s,
               "mmax": args.mmax, "qmax": args.qmax, "pieces": pieces}
    csv_lines = ["m,num,den,coeff"]
    for piece in pieces:
        for t in piece["series"]["terms"]:
            csv_lines.append(f"{piece['m']},{t['num']},{t['den']},{t['coeff']}")
    _emit(args, payload, "\n".join(csv_lines) + "\n")
    return 0


def _cmd_stable(args) -> int:
    table = S_table(args.mmax, args.lmax)
    _emit(args, {"kind": "stable", **table})
    return 0


def _report_exit(args, rep: SuiteReport) -> int:
    if args.format == "csv":
        sys.stdout.write(rep.to_csv())
    else:
        sys.stdout.write(rep.to_json() + "\n")
    return 0 if rep.ok else 1


def _cmd_verify(args) -> int:
    builder = SUITES[args.suite]
    anchor, params, chunks = builder(args)
    cases = _run_chunks(chunks, args.jobs)
    rep = make_report(args.suite, anchor, params, cases)
    return _report_exit(args, rep)


class _Scale:
    """Argument wrapper presenting per-suite reduced defaults for `all`."""

    def __init__(self, base, overrides: dict):
        self._base = base
        self._overrides = overrides

    def __getattr__(self, name: str):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._base, name)


def _cmd_all(args) -> int:
    failures = 0
    reports = []
    for name in sorted(SUITES):
        builder = SUITES[name]
        scale = dict(_ALL_SCALE.get(name, {}))
        view = _Scale(args, scale)
        anchor, params, chunks = builder(view)
        cases = _run_chunks(chunks, args.jobs)
        rep = make_report(name, anchor, params, cases)
        reports.append(rep.to_json_obj())
        if not rep.ok:
            failures += 1
    payload = {"kind": "all-suites", "ok": failures == 0, "suites": reports}
    if args.format == "csv":
        lines = ["suite,id,status,detail"]
        for rep_obj in reports:
            for c in rep_obj["cases"]:
                detail = c["detail"].replace('"', "'")
                lines.append(f'{rep_obj["suite"]},{c["id"]},{c["status"]},"{detail}"')
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="Exact q-series identities for filtration characters.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--jobs", type=int, default=None,
                        help="worker threads (or set QLAB_JOBS)")

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
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--pp", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--mmax", type=int, default=None)
    sp.add_argument("--qmax", type=int, default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("all", help="every suite at desk scale")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--pp", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--mmax", type=int, default=None)
    sp.add_argument("--qmax", type=int, default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_all)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Bad input is a usage error; exit 1 stays reserved for a failed
        # identity (verify chunks turn their own exceptions into failed cases).
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
