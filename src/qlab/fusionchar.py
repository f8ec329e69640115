"""Fused-string characters and the graded decomposition they induce.

The weighted characters of fused strings of two- and three-dimensional
factors are Gaussian binomials and the S polynomials in 1/q.  Combining them
with an alternating Weyl sum (the Euler-characteristic route) reproduces the
finite polynomials I_m from the path decomposition; summing over m recovers
full minimal-model characters.  All checks are exact.

A character graded by energy (q) and a diagonal weight (z) enters the Weyl
sum as (weight, q-series) pairs, one per product of factor components;
pairs at the same weight add, so no per-weight sum is formed first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .qcore import (QSeries, _dense_mul, _dense_sum, _from_dense, _gauss_coeffs,
                    _supernomial2_row, lattice_range, poch_inv, poch_sum, q_binomial)
from .report import CaseResult, check, first_failure
from .supernomial import S, _s_cell, string_sum
from .pathweights import ModelParams, delta
from .vircharacters import I_m, I_m_sum, rocha_caridi


def verify_exact_sequence_chars(k1_max: int, k2_max: int) -> list[CaseResult]:
    """Character identity of the fusion short exact sequence, specialized to
    strings: [2k1, k2; a] = [2k1-2, k2+1; a] + q^{2k1+k2-1} [2k1-2, k2; a].

    Each weight compares the (lo, row) pair of the left side's descent row
    (``_supernomial2_row``) with the ``_dense_sum`` of the two rows on the
    right; rows have no zeros at either end, so equal pairs are equal
    polynomials.  Only a weight whose pairs differ is made into series, for
    ``check``'s first mismatch.

    The rows are built by the descent T(L1, L2) = T(L1+2, L2-1) -
    q^{L1+L2} T(L1, L2-1), and this identity is that descent at
    (L1, L2) = (2k1-2, k2+1), rearranged: the suite cannot fail while the
    descent is the kernel.  The tests check the identity on an independent
    route, the Schilling--Warnaar single sum."""
    def mismatches(k1: int, k2: int):
        for a in range(-(k1 + k2), k1 + k2 + 1):
            lhs = _supernomial2_row(2 * k1, k2, 2 * a)
            lo1, c1 = _supernomial2_row(2 * k1 - 2, k2 + 1, 2 * a)
            lo2, c2 = _supernomial2_row(2 * k1 - 2, k2, 2 * a)
            rhs = _dense_sum(((1, lo1, c1), (1, lo2 + 2 * k1 + k2 - 1, c2)))
            if lhs != rhs:
                yield f"a={a}", _from_dense(*lhs), _from_dense(*rhs)

    return [first_failure(f"exactseq k1={k1} k2={k2}", mismatches(k1, k2),
                          "exact for all weights")
            for k1 in range(1, k1_max + 1) for k2 in range(k2_max + 1)]


def verify_pi2pi3(cutoff: int | Fraction) -> list[CaseResult]:
    """Level-one character per weight component: the weight-2l component,
    q^{l^2} / (q)_infinity, is ``string_sum(l)``, a q^{m^2}/(q)_m-weighted sum
    of the flipped three-dimensional string components S_{m,l}(q)."""
    return [check(f"pi2pi3 l={l}", string_sum(l, cutoff),
                  poch_inv(cutoff, ((l * l, 1),)))
            for l in range(-math.isqrt(int(cutoff)) - 1, math.isqrt(int(cutoff)) + 2)]


def verify_pmn(N_max: int) -> list[CaseResult]:
    """Finite counterpart: q^{N^2} [2N, N+l]_{1/q} =
    sum_{m} q^{m^2} [N, m]_q S_{m,l}(q), exactly, for every weight.

    The right side is summed on dense rows: each product of the Gaussian row
    [N, m] and the cell of S_{m,l} is one ``_dense_mul``, and the shifted
    products are added by ``_dense_sum``.  The left side is the flipped
    ``q_binomial``, so the two sides share only the Gaussian rows."""
    out = []
    for N in range(N_max + 1):
        for l in range(-N, N + 1):
            lhs = q_binomial(2 * N, N + l).flip().shift(N * N)
            terms = []
            for m in range(abs(l), N + 1):
                lo, cell = _s_cell(m, l, 0)
                terms.append((1, m * m + lo, _dense_mul(_gauss_coeffs(N, m), cell)))
            out.append(check(f"pmn N={N} l={l}", lhs, _from_dense(*_dense_sum(terms))))
    return out


def euler_multiplicity(V: Iterable[tuple[int, QSeries]], k: int, l: int) -> QSeries:
    """Alternating Weyl sum extracting the level-k sector-l multiplicity:
    sum_lam q^{-(k+2) lam^2 + (l+1) lam} (V^{2(k+2)lam - l} - V^{2(k+2)lam - l - 2}),
    where V^w is the sum of the series of the (weight, series) pairs ``V``
    at weight w.  A weight may repeat; the sum is linear, so each pair
    enters on its own.  The series must have integer exponents
    (``QSeries.sum_shifted`` over denominator 1 raises ``ValueError`` otherwise).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    step = 2 * (k + 2)
    # A pair at weight w is the + term of lam = (w + l) / step or the -
    # term of lam = (w + l + 2) / step, whichever is an integer (never both).
    return QSeries.sum_shifted(
        ((sign, series, -(k + 2) * lam * lam + (l + 1) * lam)
         for w, series in V
         for sign, (lam, r) in ((1, divmod(w + l, step)), (-1, divmod(w + l + 2, step)))
         if r == 0), 1)


def abf_finitized(N: int, k: int, j: int, l: int) -> QSeries:
    """Finitized character on a strip of width 2N: an alternating sum of the
    cached Gaussian rows [2N, x]_q, added as dense rows.  Identically zero when
    l and j have opposite parity (all binomial indices would be half-integers).
    The lam window is exact: x = base + (k+3) lam lies in 0 <= x <= 2N, that is
    -base <= (k+3) lam <= 2N - base; [2N, x] is zero outside, but no row is."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if not 0 <= j <= k:
        raise ValueError("j outside 0..k")
    if not 0 <= l <= k + 1:
        raise ValueError("l outside 0..k+1")
    if (l - j) % 2 != 0:
        return QSeries.zero(None)
    pq = (k + 2) * (k + 3)
    # Every term is shifted by (l - j)^2 / 4, an integer as l = j (mod 2).
    off = ((l - j) // 2) ** 2
    return _from_dense(*_dense_sum(
        (sign, pq * lam * lam + lin * lam + shift + off,
         _gauss_coeffs(2 * N, base + (k + 3) * lam))
        for base, lin, shift, sign in (
            ((2 * N - l + j) // 2, (k + 3) * (j + 1) - (k + 2) * (l + 1), 0, 1),
            ((2 * N - l - j - 2) // 2, -((k + 3) * (j + 1) + (k + 2) * (l + 1)),
             (j + 1) * (l + 1), -1))
        for lam in lattice_range(-base, 2 * N - base, k + 3)))


def unitary_params(k: int) -> ModelParams:
    if k < 1:
        raise ValueError("k must be >= 1")
    return ModelParams(k + 2, k + 3)


def graded_13_char(k: int, r: int, s: int, m: int,
                   cutoff: int | Fraction) -> QSeries:
    """Character of the m-th graded piece of the degree filtration:
    q^{delta(r,s)} I_{r,s,r+i,m} / (q)_m with i = r - s mod 2.

    ``cutoff`` counts degrees above the leading exponent delta(r,s); the
    returned series is truncated below delta(r,s) + cutoff.  The quotient is
    formed on the integer exponents of I_m and shifted by delta(r,s) once.
    """
    params = unitary_params(k)
    i = (r - s) % 2
    return poch_sum({m: I_m(params, r, s, r + i, m)}, cutoff).shift(delta(params, r, s))


def verify_grading(k: int, m_max: int, cutoff: int | Fraction) -> list[CaseResult]:
    """Three checks per sector (r, s) of the unitary model at level k: each
    graded piece (m <= m_max) is nonnegative, its signs read on the quotient
    before the shift by delta, which moves no coefficient; the m-sum recovers
    the full character below the cutoff; and the two routes to I_m (Euler sum
    for r = s mod 2, reflection otherwise) agree as exact polynomial identities.

    The Euler route's weight range covers every nonzero weight of the fused
    string, m three-dimensional factors times one r-dimensional factor.  The
    m factors give weight 2l with series S_{m,l}, and S_{m,l} = 0 for |l| >
    m: its nu-term needs 0 <= m - l - nu <= nu <= m, which no nu meets when
    l > m (then m - l - nu < 0) or l < -m (then nu >= (m - l)/2 > m).  The
    r-dimensional factor has the weights 1 - r, 3 - r, ..., r - 1, each
    once, and no other.  So the pairs (2l + j, S(m, l)) for l in [-m, m] and
    j in that set are every pair with a nonzero series; and as S_{m,m} =
    S_{m,-m} = 1, narrowing either range by one drops a nonzero pair."""
    params = unitary_params(k)
    p, pp = params.p, params.pp
    out = []
    for r in range(1, p):
        for s in range(1, pp):
            i = (r - s) % 2
            d = delta(params, r, s)

            neg = []
            for m in range(m_max + 1):
                g = poch_sum({m: I_m(params, r, s, r + i, m)}, cutoff)
                # Only a piece with a negative coefficient is shifted, to name those.
                if min(g.coeffs(), default=0) < 0:
                    g = graded_13_char(k, r, s, m, cutoff)
                    neg.extend(f"m={m} q^{e}" for e, c in g.items() if c < 0)
            out.append(CaseResult(
                f"grading-nonneg k={k} r={r} s={s}", not neg,
                "all coefficients >= 0" if not neg else "negative at " + ", ".join(neg[:4])))

            # The m-th term, shifted by d, is the graded piece
            # graded_13_char(k, r, s, m, cutoff); the sum is shifted once.
            total, _, _ = I_m_sum(params, r, s, r + i, cutoff)
            out.append(check(f"grading-sum k={k} r={r} s={s}", total.shift(d),
                             rocha_caridi(params, r, s, cutoff).shift(d)))

            def routes(m: int):
                direct = I_m(params, r, s, r + i, m)
                if i == 0:
                    # The string of m three-dimensional factors times one
                    # r-dimensional factor, one pair per weight product.
                    alt = euler_multiplicity(
                        ((2 * l + j, S(m, l)) for l in range(-m, m + 1)
                         for j in range(1 - r, r, 2)), k + 1, s - 1)
                    # i = 0 means s = r (mod 2), so (s - r)^2 / 4 is an int.
                    return alt.shift(m * m), direct.shift(((s - r) // 2) ** 2)
                return I_m(params, p - r, pp - s, p - r, m), direct

            out.append(first_failure(
                f"grading-route k={k} r={r} s={s} i={i}",
                ((f"m={m}", *routes(m)) for m in range(m_max + 1))))
    return out


def verify_i1_sector(k: int) -> list[CaseResult]:
    """Odd sectors match their reflection: for r - s odd and m <= 8, the pieces
    at (r, s) and (p - r, p' - s) share m and delta (README, *Reflected pieces*),
    so their numerators I_m(r, s, r + 1) and I_m(p - r, p' - s, p - r) are
    compared, exactly: equal numerators are equal pieces below every cutoff."""
    params = unitary_params(k)
    p, pp = params.p, params.pp
    return [first_failure(f"i1 k={k} r={r} s={s}", (
                (f"m={m}", I_m(params, r, s, r + 1, m),
                 I_m(params, p - r, pp - s, p - r, m))
                for m in range(9)))
            for r in range(1, p) for s in range(1, pp) if (r - s) % 2 == 1]


def verify_abf(k: int, N: int, deg: int) -> list[CaseResult]:
    """Finitized sums at strip width 2N against minimal-model characters
    through degree ``deg``; opposite-parity sectors must vanish identically."""
    params = unitary_params(k)
    out = []
    for j in range(k + 1):
        for l in range(k + 2):
            fin = abf_finitized(N, k, j, l)
            case_id = f"abf k={k} j={j} l={l}"
            if (l - j) % 2 != 0:
                out.append(CaseResult(case_id, True, "vanishes identically")
                           if fin.is_zero() else check(case_id, fin, QSeries.zero(None)))
                continue
            off = ((l - j) // 2) ** 2
            out.append(check(case_id, fin, rocha_caridi(
                params, j + 1, l + 1, deg + 1 - off).shift(off)))
    return out
