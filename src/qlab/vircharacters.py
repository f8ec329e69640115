"""Minimal-model characters and their path-combinatorial resolutions.

Everything is normalized so the leading coefficient sits at q^0: character
functions return q^{-delta(r,s)} * (trace series), which has integer
exponents and constant term 1.  Three independent routes to the same series
are implemented: the alternating sum over the affine Weyl orbit, the finite
polynomial decomposition sum_m I_m / (q)_m, and a direct enumeration of
weighted paths with admissible integer riggings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Optional

from .qcore import QSeries, compare, lattice_range, poch_inv, poch_sum
from .report import CaseResult, check
from .supernomial import S, S_floor, string_sum
from .pathweights import (
    ModelParams,
    _walk,
    b_of,
    config_sum_X,
    delta_key,
    make_tau_table,
    path_gf,
)

def _check_rs(params: ModelParams, r: int, s: int) -> None:
    if not 1 <= r <= params.p - 1:
        raise ValueError(f"r={r} outside 1..{params.p - 1}")
    if not 1 <= s <= params.pp - 1:
        raise ValueError(f"s={s} outside 1..{params.pp - 1}")


def rocha_caridi(params: ModelParams, r: int, s: int, cutoff: int | Fraction) -> QSeries:
    """Normalized irreducible character q^{-delta(r,s)} chi_{r,s} below cutoff.

    Alternating sum over lam of q^{lam^2 p p' + lam (p' r - p s)} minus
    q^{lam^2 p p' + lam (p' r + p s) + r s}, divided by (q)_infinity.

    The lam window is exact.  With n = p p', an exponent lam^2 n + lam beta
    + shift (shift = 0 or r s) is an integer, so it lies below the cutoff
    only if it is at most bound = floor(cutoff) >= 0; then n lam^2 - |beta|
    |lam| <= bound, so |lam| is at most the positive root (|beta| +
    sqrt(beta^2 + 4 n bound)) / (2n) of n x^2 - |beta| x - bound.  For ints k
    and N > 0 and real y >= 0, floor((k + y) / N) = floor((k + floor(y)) / N),
    so with k = |beta| the floor of that root is (|beta| + isqrt(beta^2 +
    4 n bound)) // (2n), and every lam with |lam| <= it is summed.
    """
    _check_rs(params, r, s)
    if cutoff <= 0:
        return QSeries.zero(cutoff)
    p, pp = params.p, params.pp
    n = p * pp
    bound = int(cutoff)
    terms: list[tuple[int, int]] = []
    for beta, shift, sign in ((pp * r - p * s, 0, 1), (pp * r + p * s, r * s, -1)):
        lam_max = (abs(beta) + math.isqrt(beta * beta + 4 * n * bound)) // (2 * n)
        terms += [(lam * lam * n + lam * beta + shift, sign)
                  for lam in range(-lam_max, lam_max + 1)]
    return QSeries(terms, cutoff) * poch_inv(cutoff)


def _I_m_terms(params: ModelParams, r: int, a: int, b: int,
               m: int) -> list[tuple[int, int, int]]:
    """I_m as (sign, idx, e): I_m = sum sign * q^e S_{m,idx}, every |idx| <= m.

    Two sums over lam, the second subtracted and indexed by -lam.  The lam
    window is exact: S_{m,idx} is zero for |idx| > m, so a term counts just
    when idx = half - p' lam lies in [-m, m], i.e. half - m <= p' lam <= half + m."""
    _check_rs(params, r, a)
    if not 1 <= b <= params.pp - 1 or (a - b) % 2 != 0:
        raise ValueError("need b on the strip with b = a mod 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    p, pp = params.p, params.pp
    n = p * pp
    return [(sign, idx, lam * lam * n + lam * beta + shift + m * m - idx * idx)
            for half, beta, shift, sign in (((a - b) // 2, pp * r - p * a, 0, 1),
                                            ((a + b) // 2, -(pp * r + p * a), r * a, -1))
            for lam in lattice_range(half - m, half + m, pp)
            for idx in (half - pp * lam,)]


@lru_cache(maxsize=None, typed=True)
def I_m(params: ModelParams, r: int, a: int, b: int, m: int) -> QSeries:
    """Finite configuration polynomial: the m-th term of the decomposition
    q^{-delta(r,a)} chi_{r,a} = sum_m I_m / (q)_m, valid for any b = a mod 2.

    Exact Laurent polynomial in q (integer exponents).  Cached: the grading,
    i1, gen and iands checks build the same pieces.
    """
    return QSeries.sum_shifted(((sign, S(m, idx), e)
                                for sign, idx, e in _I_m_terms(params, r, a, b, m)), 1)


def I_m_floor(params: ModelParams, r: int, a: int, b: int, m: int) -> Optional[int]:
    """A lower bound on the least exponent of I_m, or None when I_m has no
    term at all (and so is zero); I_m is not built.

    The bound is the least floor of the signed terms q^e S_{m,idx}.  Each S
    has positive coefficients, and cancellation between the terms can only
    raise the floor or make the sum zero, never lower it.
    """
    return min((S_floor(m, idx) + e for _, idx, e in _I_m_terms(params, r, a, b, m)),
               default=None)


def I_m_sum(params: ModelParams, r: int, a: int, b: int,
            cutoff: int | Fraction) -> tuple[QSeries, int, bool]:
    """sum_m I_m / (q)_m below ``cutoff``, that is q^{-delta(r,a)} chi_{r,a},
    through ``poch_sum``.  Returns (total, m, capped): the m at which the
    sum stopped, and whether the cap stopped it.

    A term is silent when I_m is zero or starts at or above ``cutoff``.  Zero
    terms before the first non-silent one are skipped; the sum stops after
    three consecutive silent terms, or once m > cap = int(cutoff) + 2.

    ``I_m_floor`` decides only what is built.  After the first live term, an
    m whose bound is None or at or above ``cutoff`` is silent without
    building I_m; before it, an m whose bound is None is skipped as a
    leading zero.  So the total and the stop m are those of building every
    term.  A built I_m that starts below its bound raises ``ArithmeticError``.
    """
    cap = int(cutoff) + 2
    live: dict[int, QSeries] = {}
    quiet = 0
    for m in range(cap + 1):
        bound = I_m_floor(params, r, a, b, m)
        poly = None if bound is None or (live and bound >= cutoff) else I_m(params, r, a, b, m)
        if poly and poly.floor < bound:
            raise ArithmeticError(
                f"term m={m} starts at q^{poly.floor}, below its bound q^{bound}")
        if poly and poly.floor < cutoff:
            live[m] = poly
            quiet = 0
        elif live or poly:  # silent; a leading zero is skipped
            quiet += 1
            if quiet == 3:
                return poch_sum(live, cutoff), m, False
    return poch_sum(live, cutoff), cap + 1, True


def verify_rocha2(params: ModelParams, r: int, a: int, b: int,
                  cutoff: int | Fraction) -> CaseResult:
    """Check sum_m I_m / (q)_m (``I_m_sum``) against the alternating-sum
    character; the detail names the m at which the sum stopped.
    """
    target = rocha_caridi(params, r, a, cutoff)
    total, m, capped = I_m_sum(params, r, a, b, cutoff)
    cmp = compare(total, target)
    case_id = f"rocha2 p={params.p} p'={params.pp} r={r} a={a} b={b}"
    detail = cmp.detail() + (f"; hard cap m<={m - 1} hit" if capped else f"; m summed to {m}")
    return CaseResult(case_id, cmp.ok, detail)


def _end_shift_parts(params: ModelParams, r: int, a: int,
                     b: int) -> tuple[int, dict[int, int]]:
    """(shift, bdr) of the paths from a to b, in units of 1/(4pp'): shift =
    delta(r,b) - delta(r,a), and bdr[d] = delta(r,d) - delta(r,b) + [d == b]
    for each next-to-last site d on the strip, each from ``delta_key``."""
    at_b = delta_key(params, r, b)
    return at_b - delta_key(params, r, a), {
        d: delta_key(params, r, d) - at_b + (4 * params.p * params.pp if d == b else 0)
        for d in (b - 2, b, b + 2) if 1 <= d < params.pp}


def _end_shifts(params: ModelParams, r: int, a: int, b: int, m: int) -> dict[int, int]:
    """The exponent shift of an m-step path from a to b, by its next-to-last
    site d, in units of 1/(4pp'): shift + m bdr[d] of ``_end_shift_parts``."""
    shift, bdr = _end_shift_parts(params, r, a, b)
    return {d: shift + m * e for d, e in bdr.items()}


def path_side_GEN(params: ModelParams, r: int, a: int, b: int, m: int) -> QSeries:
    """Path-sum form of I_m: sum over paths of q^{E + m*(boundary) + shift}.

    Only defined at the weight-minimizing endpoint b = b_of(r, a).  One walk
    of ``path_gf`` adds each path's int key; no path is built.
    """
    if b != b_of(r, a, params):
        raise ValueError("path generating sum requires the minimizing endpoint")
    # At m = 0 the only path is (a) with a = b, whose end shift is 0.
    return path_gf(a, b, m, make_tau_table(params), _end_shifts(params, r, a, b, m))


def verify_GEN(params: ModelParams, r: int, a: int, m_max: int) -> list[CaseResult]:
    """Exact equality of the path sum and I_m at b = b_of(r, a), m <= m_max."""
    b = b_of(r, a, params)
    return [check(f"gen p={params.p} p'={params.pp} r={r} a={a} m={m}",
                  path_side_GEN(params, r, a, b, m), I_m(params, r, a, b, m))
            for m in range(m_max + 1)]


def verify_IandS(params: ModelParams, r: int, a: int, b: int,
                 m_max: int) -> list[CaseResult]:
    """I_m rebuilt from configuration sums over the next-to-last site d,
    I_m = sum_d q^{_end_shifts(d)} X_{a,d,b,m-1}, checked exactly for
    1 <= m <= m_max."""
    table = make_tau_table(params)
    return [check(f"iands p={params.p} p'={params.pp} r={r} a={a} b={b} m={m}",
                  I_m(params, r, a, b, m),
                  QSeries.sum_shifted(
                      ((1, config_sum_X(a, d, b, m - 1, table), e)
                       for d, e in _end_shifts(params, r, a, b, m).items()),
                      4 * params.p * params.pp))
            for m in range(1, m_max + 1)]


def rigged_path_gf(params: ModelParams, r: int, a: int,
                   cutoff: int | Fraction) -> QSeries:
    """Character by direct enumeration of rigged paths.

    A rigged path is an admissible path (s_0..s_m) from a to b_of(r, a)
    together with numbers n_1 >= ... >= n_m satisfying
      n_i - n_{i+1} >= w(s_{i-1}, s_i, s_{i+1})   (1 <= i < m)
      n_m >= delta(r, s_{m-1}) - delta(r, s_m) + [s_{m-1} == s_m]
    with n_i in Z + delta(r, s_{i-1}) - delta(r, s_i).  Each pair contributes
    q^{sum_i n_i + delta(r,b) - delta(r,a)}; the result equals the normalized
    character.  This is a brute-force oracle: no product formula is used.

    What it checks on its own is the rigging rules and a brute-force count of
    partitions into at most m parts: the riggings of a path are its tight
    chain (every rule an equality) plus such a partition, and the tight chain
    sums to the path's energy plus its end shift, so the series equals
    sum_m path_side_GEN(m) / (q)_m.

    The enumeration runs on integers in units of 1/(4 p p'), a common
    denominator of every weight and conformal weight of the model: a weight
    is 4p times its entry in the table (in units of 1/p'), and a conformal
    weight is its ``delta_key``.  A walked path of energy key has the tight
    chain 4p key + m bdr[s_{m-1}] + shift, so one at or over the cut is
    skipped unrigged.  Every weight is at least w_min >= 0 (else
    ArithmeticError) and every bdr is positive, so no m-step path starts
    below shift + m min(bdr) + 4p w_min m(m-1)/2, which grows with m: the
    m-range ends where that reaches the cut.
    """
    b = b_of(r, a, params)
    table = make_tau_table(params)
    p, pp = params
    unit = 4 * p * pp
    cut_u = math.ceil(cutoff * unit)  # an integer exponent e is < cutoff iff e < cut_u
    w_min = min(table.weights.values())
    if w_min < 0:
        raise ArithmeticError(f"weight {w_min}/{pp} < 0 on {params}: no m-bound")
    # bdr[d] = least n_m after s_{m-1} = d; > 0, as b has the least delta of its parity.
    shift, bdr = _end_shift_parts(params, r, a, b)
    least_bdr = min(bdr.values())
    acc: dict[int, int] = {0: 1} if a == b else {}  # m = 0: the path (a), shift 0

    def descend(i: int, lower: int, partial: int) -> None:
        # choose n_i = lower + k, k >= 0
        n_i = lower
        while True:
            rest = partial + n_i + (i - 1) * n_i + cmin[i] + shift
            if rest >= cut_u:
                return
            if i == 1:
                e = partial + n_i + shift
                acc[e] = acc.get(e, 0) + 1
            else:
                descend(i - 1, n_i + w[i - 1], partial + n_i)
            n_i += unit

    prefix, m = [a], 1
    while shift + m * least_bdr + 4 * p * w_min * (m * (m - 1) // 2) < cut_u:
        # key < below exactly when 4p key < cut_u - shift - m least_bdr.
        below = -((shift + m * least_bdr - cut_u) // (4 * p))
        for d, key in _walk(a, b, m, pp, table.weights, prefix, below):
            if 4 * p * key + m * bdr[d] + shift < cut_u:  # else skipped unrigged
                path = (*prefix, b)
                # w[i] = weight at interior position i, 1 <= i <= m-1, and
                # cmin[i] = sum_{k=1}^{i-1} k * w[k]: least extra mass below i.
                w = [0] + [4 * p * table.weights[path[i - 1:i + 2]] for i in range(1, m)]
                cmin = [0, *accumulate(i * w[i] for i in range(m))]
                descend(m, bdr[d], 0)
        m += 1
    return QSeries.from_keys(acc, unit).truncate(cutoff)


def verify_rigged(params: ModelParams, r: int, a: int,
                  cutoff: int | Fraction) -> CaseResult:
    return check(f"rigged p={params.p} p'={params.pp} r={r} a={a}",
                 rigged_path_gf(params, r, a, cutoff), rocha_caridi(params, r, a, cutoff))


def verify_poch_inv_expansion(l_max: int, cutoff: int | Fraction) -> list[CaseResult]:
    """For each |l| <= l_max: 1/(q)_infinity = sum_m q^{m^2 - l^2} S_{m,l} / (q)_m,
    the pi2pi3 identity divided by q^{l^2}."""
    target = poch_inv(cutoff)
    return [check(f"pochsum l={l}", string_sum(l, cutoff + l * l).shift(-l * l), target)
            for l in range(-l_max, l_max + 1)]
