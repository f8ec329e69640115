"""Restricted supernomial polynomials S and S~ in 1/q.

Both families are Laurent polynomials with support in [-(m^2 - l^2), 0] and
nonnegative coefficients, defined by their double sums of Gaussian-binomial
products (``S``).  They are computed row by row, with no product: row m + 1
of both families comes from row m by the step recurrences rec1 (S) and rec4
(S~) on dense coefficient rows.  The other six identities of
``verify_S_recurrences`` are checks on that kernel; the tests hold it to the
double sums.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .qcore import ExpLike, QSeries, _dense_sum, _from_dense, poch_sum
from .report import CaseResult, check


@lru_cache(maxsize=None)
def _s_row(m: int) -> tuple[tuple, tuple]:
    """Row m of both families: the dense (lo, coefficients) cells of S_{m,l}
    and of S~_{m,l} for l = -m..m, at index l + m.  Row m + 1 comes from row
    m, both families being zero for |l| > m:

        rec1: S_{m+1,l} = q^{-m-l-1} S_{m,l+1} + S_{m,l} + q^{-m+l-1} S~_{m,l-1},
        rec4: S~_{m+1,l} = q^{-l} S_{m,l+1} + S_{m,l} + q^{-m+l-1} S~_{m,l-1},

    from S_{0,0} = S~_{0,0} = 1.  The caller builds the rows bottom-up, so
    each call reads a cached row m - 1."""
    if m == 0:
        return ((0, (1,)),), ((0, (1,)),)
    k = m - 1
    pad = ((0, ()),) * 2  # zero cells, at |l| = k + 1 and k + 2
    s, st = _s_row(k)
    s, st = pad + s + pad, pad + st + pad  # S_{k,l} at index l + k + 2
    cells_s, cells_st = [], []
    for l in range(-m, m + 1):
        (lu, up), mid, (ld, down) = s[l + k + 3], s[l + k + 2], st[l + k + 1]
        cells_s.append(_dense_sum(((1, lu - k - l - 1, up), (1, *mid),
                                   (1, ld - k + l - 1, down))))
        cells_st.append(_dense_sum(((1, lu - l, up), (1, *mid),
                                    (1, ld - k + l - 1, down))))
    return tuple(cells_s), tuple(cells_st)


def _s_cell(m: int, l: int, e: int) -> tuple[int, tuple[int, ...]]:
    """The dense (lo, coefficients) cell of S_{m,l} at e = 0, of S~_{m,l}
    at e = 1, read from ``_s_row``; (0, ()) for |l| > m."""
    if m < 0:
        raise ValueError("S needs m >= 0")
    if abs(l) > m:
        return 0, ()
    for k in range(m + 1):  # bottom-up: no row recurses deeper than one level
        row = _s_row(k)
    return row[e][l + m]


@lru_cache(maxsize=None)
def _s_family(m: int, l: int, e: int) -> QSeries:
    """S_{m,l} at e = 0, S~_{m,l} at e = 1, from its cell (``_s_cell``).
    The series is cached beside its row: ``verify grading`` asks for each
    cell once per sector and weight, which makes building the series anew
    on each call cost more than its memory saves."""
    return _from_dense(*_s_cell(m, l, e))


def S(m: int, l: int) -> QSeries:
    """S_{m,l}(q) = sum_nu q^{(nu+l-m)(nu+l) + nu(nu-m)} [m,nu]_q [nu,m-l-nu]_q.

    Zero for |l| > m; S_{m,m} = 1.  Built by rows (``_s_row``), not by this
    sum.
    """
    return _s_family(m, l, 0)


def S_tilde(m: int, l: int) -> QSeries:
    """Companion family: same sum with exponent (nu+l-m)(nu+l-1) + nu(nu-m)."""
    return _s_family(m, l, 1)


# Both names share one cache; it reports hits and entries of S and S~ together.
S.cache_info = _s_family.cache_info


def S_floor(m: int, l: int) -> Optional[int]:
    """The least exponent of S_{m,l}, or None iff S_{m,l} is zero; S is not
    built.

    S is its double sum (``S``), whatever computes it: every nu-term is a
    shifted product of Gaussian binomials with positive coefficients, so
    nothing cancels and the floor is the least exponent (nu+l-m)(nu+l) +
    nu(nu-m) = 2nu^2 - 2(m-l)nu + l(l-m) over the admissible nu, those with
    0 <= m-l-nu <= nu <= m.  That quadratic rises for nu >= (m-l)/2, so the
    least admissible nu, ceil((m-l)/2) or 0, gives the minimum.
    """
    nu = max(0, (m - l + 1) // 2)
    if nu > min(m, m - l):
        return None
    return (nu + l - m) * (nu + l) + nu * (nu - m)


def string_sum(l: int, cutoff: ExpLike) -> QSeries:
    """sum_{m >= |l|} q^{m^2} S_{m,l}(q) / (q)_m below ``cutoff``.  S_{m,l} is
    zero for m < |l|, and from m = |l| on q^{m^2} S_{m,l} starts at m^2 +
    S_floor(m, l) = l^2 + ceil((m^2 - l^2)/2), which rises strictly with m:
    the first term at or above the cutoff ends the sum."""
    terms = {}
    m = abs(l)
    while m * m + S_floor(m, l) < cutoff:
        terms[m] = S(m, l).shift(m * m)
        m += 1
    return poch_sum(terms, cutoff)


def _identity_table():
    # Each entry: name -> (lhs, rhs (series, int shift) terms) as callables
    # of (m, l); identities hold for all integers l, stepping m -> m+1.  S and
    # S~ are read by name at call time, so a patched module name is checked.
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


def verify_S_recurrences(m_max: int) -> list[CaseResult]:
    """Check the symmetry and all six step recurrences for 0 <= m < m_max,
    |l| <= m + 1.  rec1 and rec4 hold by construction, as ``_s_row`` builds
    each row by them; the other six identities (sym, sym~, rec2, rec3, rec5,
    rec6) remain real checks of the kernel.  Failures are collected, not
    raised, so a deliberately perturbed ``S``, ``S_tilde``, ``_s_family`` or
    ``_s_row`` shows up as failing cases.
    Both families must give series with integer exponents, or
    ``sum_shifted`` raises ``ValueError``.
    """
    table = _identity_table()
    return [check(f"relS {name} m={m} l={l}", lhs,
                  QSeries.sum_shifted(((1, t, k) for t, k in terms), 1))
            for name, pair in table.items()
            for m in range(m_max) for l in range(-(m + 1), m + 2)
            for lhs, terms in (pair(m, l),)]


def S_table(m_max: int, l_max: Optional[int] = None) -> dict:
    """Rectangle of S and S~ series for 0 <= m <= m_max, |l| <= l_max, as a
    payload for ``cli._emit``."""
    lm = m_max if l_max is None else l_max
    cells = [{"m": m, "l": l, "S": S(m, l), "S_tilde": S_tilde(m, l)}
             for m in range(m_max + 1) for l in range(-lm, lm + 1)]
    return {"m_max": m_max, "l_max": lm, "cells": cells}
