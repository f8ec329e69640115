"""Slow reference routes that the tests hold the library against.

Everything here is written against the public ``QSeries`` API, or against
plain ``dict[Fraction, int]`` maps, and shares no code with ``qlab.qcore``'s
integer-keyed internals:

- ``exact_div`` and ``poch``: the sparse long-division route to Gaussian
  binomials and trinomials that the dense kernel replaced;
- ``supernomial2_sum``: the two-row supernomial as one sum of products of
  Gaussian binomials, themselves built by the q-Pascal rule;
- ``supernomial2_row``: the two-row descent on dense coefficient rows, one
  ``_dense_sum`` slice add per node, the route that the library's packed-int
  descent ``_supernomial2_int`` replaced (the one route here written on
  ``qcore``'s row internals: its Gaussian leaves and ``_dense_sum``);
- ``s_family_sum``: S and S~ by their double sums of Gaussian-binomial
  products, the formula that the library's row kernel replaced;
- ``RefSeries``: a ``Fraction``-keyed sparse series with the straightforward
  sum, product, shift, truncation, flip and comparison rules;
- ``product``: the product of two possibly truncated series, the exact
  product of their terms cut where ``RefSeries`` cuts a product, which the
  library's exact-only ``QSeries`` product leaves to the tests;
- ``poch_inv_parts``: 1/(q)_m built one part size at a time, uncached,
  the reference for the library's back-to-front ``poch_sum`` fold;
- ``sum_over_m_every_term``: the m-sum that builds every term to decide
  whether it is silent, with no floor bound, each term times its own
  ``poch_inv_parts`` factor by ``product``;
- ``f_sum_by_slope``: the alternating f-sum with each exponent summed in
  ``Fraction`` from the slope t = p'/p;
- ``series_config_sum_X``, ``series_f_sum`` and the three
  ``series_verify_*`` suites (xandf, iands, relS, the last with its own
  table of the identities, ``s_identities``): the configuration-sum
  recurrence, the f-sum and the strip suites on series, each side added by
  ``QSeries.sum_shifted`` and decided by ``check``, the route that the
  library's packed ints replaced (the f-sum's terms come from the library's
  ``_f_term``, whose exponents ``f_sum_by_slope`` checks);
- ``slope_weight`` and ``slope_energy``: the weight rules written with the
  slope t = p'/p and fractional parts in ``Fraction``, the reference for the
  library's integer weight table, and a path's energy summed from them;
- ``walks`` and ``path_side_reference``: every step sequence from a site
  filtered to the strip, the paths the library's walker must visit, and the
  end-shifted path sum over them in ``Fraction``, weighed by ``slope_weight``;
- ``tight_chain``: the least rigging exponent of one path, every rigging
  rule met with equality and summed position by position, the per-path loop
  that the rigged oracle's walker key replaced;
- ``rigged_by_rigging``: the rigged-path character with every rigging listed
  and counted one by one, n_1 included, the descent that the library's
  count of n_1 by its run replaced;
- ``monomial``, ``support`` and ``coeff_sum``: small views of a series that
  only the tests need;
- ``row_product``: the schoolbook product of two dense coefficient rows,
  every pair of entries multiplied and added, the reference for the
  library's packed-int product ``_dense_mul``;
- ``wide_window``: a superset of ``qcore.lattice_range``'s window, which the
  window tests put in its place;
- ``weight_string`` and ``convolve``: z-graded characters as dicts weight ->
  q-series, multiplied weight by weight with one sum per weight, the route
  the Euler sum's (weight, series) pair input replaced;
- ``to_json_obj``: the JSON object of a payload, one dict per series term
  and per report case, which the CLI's row-table writer must reproduce.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product as cartesian
from operator import add
from typing import Callable, Iterable, Optional

from qlab.pathweights import (ModelParams, _f_term, _successors, _walk, _x_valid, b_of, delta,
                              make_tau_table, x_configs)
from qlab.qcore import QSeries, _dense_sum, _gauss_coeffs
from qlab.report import SuiteReport, check
from qlab.supernomial import S, S_tilde
from qlab.vircharacters import I_m, _end_shifts


def monomial(exp, coeff: int = 1, cutoff=None) -> QSeries:
    """The series coeff * q^exp."""
    return QSeries({exp: coeff}, cutoff)


def wide_window(lo: int, hi: int, step: int) -> range:
    """Every x with |x| <= (|lo| + |hi|) // step + 3, a superset of the x
    with lo <= step * x <= hi: a sum over it must equal the sum over the
    exact window when no term outside that window counts."""
    w = (abs(lo) + abs(hi)) // step + 3
    return range(-w, w + 1)


def row_product(a, b) -> tuple[int, ...]:
    """The convolution of two coefficient rows, pair by pair: len(a) +
    len(b) - 1 entries, zeros kept, and () when either row is empty."""
    if not a or not b:
        return ()
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return tuple(c)


def support(s: QSeries) -> list:
    """The exponents of the nonzero coefficients, ascending."""
    return [e for e, _ in s.items()]


def coeff_sum(s: QSeries) -> int:
    """Value at q=1 of an exact series."""
    if not s.is_exact:
        raise ValueError("coeff_sum requires an exact series")
    return sum(s.coeffs())


def _exp_obj(e) -> dict:
    e = Fraction(e)
    return {"num": e.numerator, "den": e.denominator}


def to_json_obj(obj):
    """The plain JSON object of a CLI payload: a series is ``{"terms",
    "cutoff"}`` with one ``{"num", "den", "coeff"}`` per term in exponent
    order (exponents in lowest terms, the coefficient a decimal string), a
    suite report is its object with one ``{"id", "status", "detail"}`` per
    case in id order, and dicts, lists and tuples are converted item by
    item."""
    if isinstance(obj, QSeries):
        cut = obj.cutoff
        return {"terms": [{**_exp_obj(e), "coeff": str(c)} for e, c in obj.items()],
                "cutoff": None if cut is None else _exp_obj(cut)}
    if isinstance(obj, SuiteReport):
        return {"suite": obj.suite, "anchor": obj.anchor,
                "params": to_json_obj(obj.params), "ok": obj.ok,
                "cases": [{"id": c.case_id, "status": "pass" if c.ok else "fail",
                           "detail": c.detail}
                          for c in sorted(obj.cases, key=lambda c: c.case_id)]}
    if type(obj) is dict:
        return {k: to_json_obj(v) for k, v in obj.items()}
    if type(obj) in (list, tuple):
        return type(obj)(map(to_json_obj, obj))
    return obj


def weight_string(j: int) -> dict[int, QSeries]:
    """z-character of a single (j+1)-dimensional factor at q-degree zero."""
    if j < 0:
        raise ValueError("j must be >= 0")
    return {w: QSeries.one(None) for w in range(-j, j + 1, 2)}


def convolve(x: dict[int, QSeries], y: dict[int, QSeries]) -> dict[int, QSeries]:
    """Product of characters: weights add, q-series multiply."""
    terms: dict[int, list[QSeries]] = {}
    for w1, s1 in x.items():
        for w2, s2 in y.items():
            terms.setdefault(w1 + w2, []).append(s1 * s2)
    return {w: QSeries.sum(t) for w, t in terms.items()}


def poch_inv_parts(m: int, cutoff) -> QSeries:
    """1/(q)_m truncated below cutoff: the coefficient of q^n is the number
    of partitions of n into parts <= m, added one part size at a time."""
    n_max = math.ceil(Fraction(cutoff)) - 1  # the largest integer below cutoff
    if n_max < 0:
        return QSeries.zero(cutoff)
    coeffs = [1] + [0] * n_max
    for part in range(1, min(m, n_max) + 1):
        # coeffs[n] += coeffs[n - part] for ascending n, one block of
        # ``part`` entries at a time: each block reads the one below it,
        # which is already updated.
        for lo in range(part, n_max + 1, part):
            coeffs[lo:lo + part] = map(add, coeffs[lo:lo + part], coeffs[lo - part:lo])
    return QSeries(dict(enumerate(coeffs)), cutoff)


def sum_over_m_every_term(poly_of: Callable[[int], QSeries], cut, start: int = 0,
                          cap: Optional[int] = None) -> tuple[QSeries, int, bool]:
    """sum_{m >= start} poly_of(m) / (q)_m below ``cut``, building every term.

    A term is silent when its polynomial is zero or starts at or above
    ``cut``.  Zero polynomials before the first non-silent term are skipped;
    the sum stops after three consecutive silent terms, or once m > cap
    (default int(cut) + 2).  Returns (total, m, capped).
    """
    cap = int(cut) + 2 if cap is None else cap
    terms = [QSeries.zero(cut)]
    quiet = 0
    seen = False
    m = start
    while m <= cap:
        poly = poly_of(m)
        if poly.is_zero() or poly.floor >= cut:
            if seen or not poly.is_zero():
                quiet += 1
                if quiet == 3:
                    return QSeries.sum(terms), m, False
        else:
            seen = True
            quiet = 0
            terms.append(product(poly, poch_inv_parts(m, cut - poly.floor)))
        m += 1
    return QSeries.sum(terms), m, True


def _frac(x: Fraction) -> Fraction:
    return x - math.floor(x)


def f_sum_by_slope(a: int, b: int, c: int, m: int, table) -> QSeries:
    """sum_{eps=+-1} eps sum_n f_{eps(a + 2p'n), b, c, m} for a on the strip,
    each exponent summed in ``Fraction`` from the slope t = p'/p.  With
    l = (b - a')/2 for the orbit point a', the exponent is m^2 - l^2 plus

      c = b + 2:  l(l+1)/t + (m-l) frac((b+1)/t)
      c = b:      l(l-1)/t + l (1 - frac((b-1)/t))
      c = b - 2:  l(l-1)/t + (m+l) (1 - frac((b-1)/t)),

    on the factor S_{m,l} or S~_{m,l} that the site labels pick (times q^m
    or q^l on some).  Every n with |n| <= m + 1 is summed: S_{m,l} and
    S~_{m,l} vanish for |l| > m, and that covers every n with |l| <= m."""
    p, pp = table.params
    t = Fraction(pp, p)
    if (a - b) % 2 or c - b not in (-2, 0, 2) or not 1 <= c <= pp - 1:
        return QSeries.zero(None)

    up = _frac((b + 1) / t)
    gap = 1 - _frac((b - 1) / t)
    terms = []
    for eps in (1, -1):
        for n in range(-m - 1, m + 2):
            l = (b - eps * (a + 2 * pp * n)) // 2
            exp = Fraction(m * m - l * l)
            if c == b + 2:
                exp += l * (l + 1) / t + (m - l) * up
                fac = S_tilde(m, l) if table.label(c) == "1A" else S(m, l)
            elif c == b:
                exp += l * (l - 1) / t + l * gap
                fac = (S(m, l).shift(m) if table.label(b) in ("1A", "1B")
                       else S_tilde(m, l).shift(l))
            else:
                exp += l * (l - 1) / t + (m + l) * gap
                fac = (S(m, l) if table.label(c) in ("1A", "2")
                       else S_tilde(m, l).shift(l))
            terms.append(eps * fac.shift(exp))
    return QSeries.sum(terms)


@functools.lru_cache(maxsize=None)
def _series_x(params: ModelParams, a: int, b: int, c: int, m: int) -> QSeries:
    if m == 0:
        return QSeries.one(None) if a == b else QSeries.zero(None)
    weights = make_tau_table(params).weights
    return QSeries.sum_shifted(
        ((1, _series_x(params, a, d, b, m - 1), m * weights[d, b, c])
         for d in _successors(params.pp)[b]), params.pp)


def series_config_sum_X(a: int, b: int, c: int, m: int, table) -> QSeries:
    """X_{a,b,c,m} by the endpoint recurrence on series, the last step
    d -> b -> c shifting X_{a,d,b,m-1} by m w(d, b, c) through
    ``QSeries.sum_shifted``; zero off the domain.  The route that the
    library's packed kernel ``_x_int`` replaced, cached per model as it was."""
    if not _x_valid(table.params, a, b, c):
        return QSeries.zero(None)
    return _series_x(table.params, a, b, c, m)


def series_f_sum(a: int, b: int, c: int, m: int, table) -> QSeries:
    """The alternating f-sum on series: each term of the library's
    ``_f_term``, its ``S``/``S_tilde`` series shifted by its exponent, with
    its orbit sign, added by ``sum_shifted`` over p'; the window is
    ``f_sum_by_slope``'s |n| <= m + 1."""
    pp = table.params.pp
    fam = (S, S_tilde)
    return QSeries.sum_shifted(
        ((eps, fam[e](m, l), exp) for eps in (1, -1) for n in range(-m - 1, m + 2)
         if (term := _f_term(eps * (a + 2 * pp * n), b, c, m, table)) is not None
         for l, e, exp in (term,)), pp)


def series_verify_Xandf(table, m_max: int) -> list:
    """``verify_Xandf`` on series: ``series_config_sum_X`` against
    ``series_f_sum``, one ``check`` per case."""
    p, pp = table.params
    return [check(f"xandf p={p} p'={pp} a={a} b={b} c={c} m={m}",
                  series_config_sum_X(a, b, c, m, table), series_f_sum(a, b, c, m, table))
            for a, b, c in x_configs(table.params) for m in range(m_max + 1)]


def series_verify_IandS(params: ModelParams, r: int, a: int, b: int, m_max: int) -> list:
    """``verify_IandS`` on series: the cached ``I_m`` against the series
    X_{a,d,b,m-1} shifted by the end shifts and added by ``sum_shifted``
    over 4pp'."""
    table = make_tau_table(params)
    return [check(f"iands p={params.p} p'={params.pp} r={r} a={a} b={b} m={m}",
                  I_m(params, r, a, b, m),
                  QSeries.sum_shifted(
                      ((1, series_config_sum_X(a, d, b, m - 1, table), e)
                       for d, e in _end_shifts(params, r, a, b, m).items()),
                      4 * params.p * params.pp))
            for m in range(1, m_max + 1)]


def s_identities():
    # name -> (lhs, rhs (series, int shift) terms) as callables of (m, l);
    # S and S~ are read by name at call time.
    s, st = S, S_tilde
    return {
        "sym": lambda m, l: (s(m, -l), ((s(m, l), 0),)),
        "sym~": lambda m, l: (st(m, -l), ((st(m, l), l),)),
        "rec1": lambda m, l: (s(m + 1, l), (
            (s(m, l + 1), -m - l - 1), (s(m, l), 0), (st(m, l - 1), -m + l - 1))),
        "rec2": lambda m, l: (s(m + 1, l), (
            (s(m, l + 1), -m - l - 1), (st(m, l), -m), (s(m, l - 1), 0))),
        "rec3": lambda m, l: (s(m + 1, l), (
            (st(m, l + 1), -m), (s(m, l), 0), (s(m, l - 1), -m + l - 1))),
        "rec4": lambda m, l: (st(m + 1, l), (
            (s(m, l + 1), -l), (s(m, l), 0), (st(m, l - 1), -m + l - 1))),
        "rec5": lambda m, l: (st(m + 1, l), (
            (s(m, l + 1), -l), (st(m, l), -m), (s(m, l - 1), 0))),
        "rec6": lambda m, l: (st(m + 1, l), (
            (st(m, l + 1), -m - l), (s(m, l), -l), (s(m, l - 1), 0))),
    }


def series_verify_S_recurrences(m_max: int) -> list:
    """``verify_S_recurrences`` on series: each identity's right side added
    from the cached ``S``/``S_tilde`` series by ``sum_shifted``, its own
    table of the eight identities."""
    return [check(f"relS {name} m={m} l={l}", lhs,
                  QSeries.sum_shifted(((1, t, k) for t, k in terms), 1))
            for name, pair in s_identities().items()
            for m in range(m_max) for l in range(-(m + 1), m + 2)
            for lhs, terms in (pair(m, l),)]


def slope_weight(a: int, b: int, c: int, table) -> Fraction:
    """The weight of the admissible triple (a, b, c) by the rules on the
    steps (a - b, c - b), written with the slope t = p'/p, fractional parts
    and the site letters x(1A, 1B, 2) = (2, 3, 2), y(1A, 1B, 2) = (3, 2, 4)."""
    p, pp = table.params
    t = Fraction(pp, p)
    x_of = {"1A": 2, "1B": 3, "2": 2}
    y_of = {"1A": 3, "1B": 2, "2": 4}
    da, dc = a - b, c - b
    if (da, dc) in ((2, -2), (-2, 2)):
        return 2 / t
    if (da, dc) in ((-2, 0), (0, -2)):
        return 2 - _frac((b - 1) / t)
    if (da, dc) in ((0, 2), (2, 0)):
        return 1 + _frac((b + 1) / t)
    if (da, dc) == (0, 0):
        return Fraction(3 - table.taus[b])
    if (da, dc) == (-2, -2):
        return -2 * _frac((b - 1) / t) + x_of[table.label(b - 2)]
    assert (da, dc) == (2, 2)
    return 2 * _frac((b + 3) / t) - 4 / t + y_of[table.label(b + 2)]


def slope_energy(path: tuple[int, ...], table) -> Fraction:
    """sum_i i * w(s_{i-1}, s_i, s_{i+1}) over the interior positions of the
    path, each weight from ``slope_weight``."""
    return sum((i * slope_weight(*path[i - 1:i + 2], table)
                for i in range(1, len(path) - 1)), Fraction(0))


def walks(a: int, m: int, pp: int) -> dict[int, list[tuple[int, ...]]]:
    """Every step sequence in (-2, 0, 2)^m from a, kept when it stays on the
    strip 1..p'-1 and never rests on a wall, grouped by its end b (a key for
    every site), each group in lexicographic order."""
    out: dict[int, list[tuple[int, ...]]] = {b: [] for b in range(1, pp)}
    for steps in cartesian((-2, 0, 2), repeat=m):
        path = tuple(accumulate(steps, initial=a))
        if all(1 <= s <= pp - 1 for s in path) and not any(
                s == s2 in (1, pp - 1) for s, s2 in zip(path, path[1:])):
            out[path[-1]].append(path)
    return out


def path_side_reference(params: ModelParams, table, r: int, a: int, b: int,
                        m: int) -> QSeries:
    """sum over the paths of ``walks`` from a to b of q^{slope_energy(path)
    + shift}, the shift summed in Fraction from its delta formula, with d the
    next-to-last site: delta(r,b) - delta(r,a) + m (delta(r,d) - delta(r,b)
    + [d == b])."""
    def shift(path: tuple[int, ...]) -> Fraction:
        d = path[-2] if m else b
        return (delta(params, r, b) - delta(params, r, a)
                + m * (delta(params, r, d) - delta(params, r, b) + (d == b)))

    return QSeries((slope_energy(path, table) + shift(path), 1)
                   for path in walks(a, m, params.pp)[b])


def tight_chain(params: ModelParams, table, r: int, path: tuple[int, ...]) -> int:
    """The least exponent of the riggings of ``path`` (m >= 1 steps from
    a = path[0] to b = path[-1]) in units of 1/(4pp'): n_m = bdr, the least
    n_m of the rules, then n_i = n_{i+1} + w_i down to i = 1, their sum plus
    the shift delta(r,b) - delta(r,a)."""
    p, pp = params
    a, d, b = path[0], path[-2], path[-1]

    def d_u(s: int) -> int:  # 4pp' (delta(r, s) - delta(r, b))
        return (r * pp - s * p) ** 2 - (r * pp - b * p) ** 2

    chain = tight = d_u(d) + (4 * p * pp if d == b else 0)
    for i in range(len(path) - 2, 0, -1):
        chain += 4 * p * table.weights[path[i - 1], path[i], path[i + 1]]
        tight += chain
    return tight - d_u(a)


def rigged_by_rigging(params: ModelParams, r: int, a: int, cutoff) -> QSeries:
    """``rigged_path_gf`` with its n_1 level listed: the same walk, m-range
    and rigging rules, but the descent steps n_1 through lower, lower + 1,
    ... as it steps every other n_i, and adds one to the exponent of each
    rigging, in units of 1/(4pp').  It walks with the library's ``_walk``,
    which the step-sequence oracle ``walks`` checks on its own; the end
    shifts are summed here from the delta formula."""
    b = b_of(r, a, params)
    table = make_tau_table(params)
    p, pp = params
    unit = 4 * p * pp
    cut_u = math.ceil(cutoff * unit)
    w_min = min(table.weights.values())

    def d_u(s: int) -> int:  # 4pp' delta(r, s), up to a constant
        return (r * pp - s * p) ** 2

    shift = d_u(b) - d_u(a)
    bdr = {d: d_u(d) - d_u(b) + (unit if d == b else 0)
           for d in (b - 2, b, b + 2) if 1 <= d < pp}
    acc: dict[int, int] = {0: 1} if a == b else {}

    def descend(i: int, lower: int, partial: int) -> None:
        n_i = lower
        while partial + i * n_i + cmin[i] + shift < cut_u:
            if i == 1:
                e = partial + n_i + shift
                acc[e] = acc.get(e, 0) + 1
            else:
                descend(i - 1, n_i + w[i - 1], partial + n_i)
            n_i += unit

    m, least_bdr = 1, min(bdr.values())
    while shift + m * least_bdr + 4 * p * w_min * (m * (m - 1) // 2) < cut_u:
        prefix: list[int] = []
        below = -((shift + m * least_bdr - cut_u) // (4 * p))
        for n, d, key in _walk(a, b, m, pp, table.weights, prefix, below):
            if n == m:
                path = (*prefix, b)
                w = [0] + [4 * p * table.weights[path[i - 1:i + 2]] for i in range(1, m)]
                cmin = [0, *accumulate(i * w[i] for i in range(m))]
                descend(m, bdr[d], 0)
        m += 1
    return QSeries.from_keys(acc, unit).truncate(cutoff)


def product(a: QSeries, b: QSeries) -> QSeries:
    """a * b with each cutoff read as an error term: a + O(q^{c_a}) times b
    is a b + O(q^{c_a + floor b}), so the exact product of the two factors'
    terms is cut at min(c_a + floor b, c_b + floor a), an exact zero's floor
    being 0; exact when both factors are."""
    full = QSeries(dict(a.items())) * QSeries(dict(b.items()))
    cuts = [c + f for c, f in ((a.cutoff, b.floor), (b.cutoff, a.floor)) if c is not None]
    return full.truncate(min(cuts)) if cuts else full


def poch(m: int) -> QSeries:
    """The exact (q)_m = prod_{i=1}^m (1 - q^i)."""
    if m < 0:
        raise ValueError("poch needs m >= 0")
    out = QSeries.one()
    for i in range(1, m + 1):
        out = out * QSeries({0: 1, i: -1})
    return out


def exact_div(num: QSeries, den: QSeries) -> QSeries:
    """Quotient of exact series by sparse long division, asserting the
    division leaves no remainder."""
    if not (num.is_exact and den.is_exact):
        raise ValueError("exact_div requires exact series")
    if den.is_zero():
        raise ZeroDivisionError("exact_div by zero series")
    if num.is_zero():
        return QSeries.zero(None)
    rem = {Fraction(e): c for e, c in num.items()}
    den_items = [(Fraction(e), c) for e, c in den.items()]
    d_exp, d_coeff = den_items[0]
    # In an exact quotient the top exponents add up, so any quotient term
    # beyond this bound proves the division leaves a remainder.
    qe_bound = max(rem) - den_items[-1][0]
    quo: dict[Fraction, int] = {}
    while rem:
        e = min(rem)
        c = rem[e]
        if c % d_coeff != 0:
            raise ArithmeticError("division is not exact")
        qc = c // d_coeff
        qe = e - d_exp
        if qe > qe_bound:
            raise ArithmeticError("division is not exact")
        quo[qe] = qc
        for de, dc in den_items:
            key = qe + de
            v = rem.get(key, 0) - qc * dc
            if v == 0:
                rem.pop(key, None)
            else:
                rem[key] = v
    return QSeries(quo, None)


@functools.lru_cache(maxsize=None)
def gauss(n: int, k: int) -> QSeries:
    """[n, k]_q for n >= 0 by the q-Pascal rule [n-1, k-1] + q^k [n-1, k];
    zero for k outside 0..n."""
    if not 0 <= k <= n:
        return QSeries.zero(None)
    if k in (0, n):
        return QSeries.one(None)
    return gauss(n - 1, k - 1) + gauss(n - 1, k).shift(k)


def s_family_sum(m: int, l: int, e: int) -> QSeries:
    """sum_nu q^{(nu+l-m)(nu+l-e) + nu(nu-m)} [m,nu]_q [nu,m-l-nu]_q for
    m >= 0: S_{m,l} at e = 0, S~_{m,l} at e = 1."""
    return QSeries.sum(gauss(m, nu) * gauss(nu, m - l - nu).shift(
        (nu + l - m) * (nu + l - e) + nu * (nu - m)) for nu in range(m + 1))


def supernomial2_sum(L1: int, L2: int, twice_a: int) -> QSeries:
    """The two-row supernomial at weight a = twice_a/2 as the single sum
    (Schilling--Warnaar)

        sum_{j1 + j2 = a + L1/2 + L2} q^{j1 (L2 - j2)} [L2, j2] [L1 + j2, j1],

    zero unless a + L1/2 is an integer."""
    if (twice_a + L1) % 2:
        return QSeries.zero(None)
    n = (twice_a + L1) // 2 + L2
    return QSeries.sum(gauss(L2, j2) * gauss(L1 + j2, n - j2).shift((n - j2) * (L2 - j2))
                       for j2 in range(L2 + 1))


@functools.lru_cache(maxsize=None)
def supernomial2_row(L1: int, L2: int, twice_a: int) -> tuple[int, tuple[int, ...]]:
    """(lo, row) of the two-row supernomial T(L1, L2; a), a = twice_a/2, by
    the descent T(L1, L2) = T(L1+2, L2-1) - q^{L1+L2} T(L1, L2-1) down to
    the Gaussian rows [L1, L1/2 + a]_q at L2 = 0; (0, ()) for zero."""
    if L2 == 0:
        k, r = divmod(L1 + twice_a, 2)  # L1/2 + a
        return 0, (_gauss_coeffs(L1, k) if r == 0 and 0 <= k <= L1 else ())
    lo1, c1 = supernomial2_row(L1 + 2, L2 - 1, twice_a)
    lo2, c2 = supernomial2_row(L1, L2 - 1, twice_a)
    return _dense_sum(((1, lo1, c1), (-1, lo2 + L1 + L2, c2)))


def _min_cut(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class RefSeries:
    """Sparse series keyed by ``Fraction`` exponents, truncated below
    ``cutoff`` (``None``: exact).  ``terms`` holds no zero coefficient and no
    exponent at or above the cutoff."""

    terms: dict
    cutoff: Optional[Fraction]

    @staticmethod
    def make(pairs: Iterable[tuple], cutoff=None) -> "RefSeries":
        cut = None if cutoff is None else Fraction(cutoff)
        acc: dict[Fraction, int] = {}
        for e, c in pairs:
            e = Fraction(e)
            if cut is None or e < cut:
                acc[e] = acc.get(e, 0) + c
        return RefSeries({e: c for e, c in acc.items() if c}, cut)

    @staticmethod
    def of(s: QSeries) -> "RefSeries":
        """The terms and cutoff ``s`` reports, taken as they are: a zero
        coefficient or an exponent at or above the cutoff stays visible."""
        cut = None if s.cutoff is None else Fraction(s.cutoff)
        return RefSeries({Fraction(e): c for e, c in s.items()}, cut)

    @property
    def floor(self) -> Fraction:
        if self.terms:
            return min(self.terms)
        return Fraction(0) if self.cutoff is None else self.cutoff

    @staticmethod
    def sum(terms: list["RefSeries"]) -> "RefSeries":
        cut = None
        for t in terms:
            cut = _min_cut(cut, t.cutoff)
        return RefSeries.make(((e, c) for t in terms for e, c in t.terms.items()), cut)

    def __mul__(self, other: "RefSeries") -> "RefSeries":
        # Truncation is sound through the other factor's floor.
        cut = _min_cut(
            None if self.cutoff is None else self.cutoff + other.floor,
            None if other.cutoff is None else other.cutoff + self.floor,
        )
        return RefSeries.make(((e1 + e2, c1 * c2)
                               for e1, c1 in self.terms.items()
                               for e2, c2 in other.terms.items()), cut)

    def shift(self, d) -> "RefSeries":
        cut = None if self.cutoff is None else self.cutoff + d
        return RefSeries.make(((e + d, c) for e, c in self.terms.items()), cut)

    def truncate(self, cutoff) -> "RefSeries":
        return RefSeries.make(self.terms.items(), _min_cut(self.cutoff, Fraction(cutoff)))

    def flip(self) -> "RefSeries":
        assert self.cutoff is None
        return RefSeries.make(((-e, c) for e, c in self.terms.items()))

    def compare(self, other: "RefSeries") -> tuple:
        """(ok, verified_below, first_mismatch, lhs_coeff, rhs_coeff)."""
        bound = _min_cut(self.cutoff, other.cutoff)
        bad = sorted(e for e in set(self.terms) | set(other.terms)
                     if (bound is None or e < bound)
                     and self.terms.get(e, 0) != other.terms.get(e, 0))
        if not bad:
            return (True, bound, None, 0, 0)
        e = bad[0]
        return (False, bound, e, self.terms.get(e, 0), other.terms.get(e, 0))
