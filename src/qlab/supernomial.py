"""Restricted supernomial polynomials S and S~ in 1/q.

Both families are Laurent polynomials with support in [-(m^2 - l^2), 0] and
nonnegative coefficients.  They are computed from their explicit double-sum
definitions; the seven shift recurrences relating them are verification
targets, never used in the computation itself.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

from .qcore import ExpLike, QSeries, q_binomial, sum_over_m
from .report import CaseResult, check


@lru_cache(maxsize=None)
def _s_family(m: int, l: int, e: int) -> QSeries:
    """sum_nu q^{(nu+l-m)(nu+l-e) + nu(nu-m)} [m,nu]_q [nu,m-l-nu]_q: S at e = 0,
    S~ at e = 1."""
    if m < 0:
        raise ValueError("S needs m >= 0")
    return QSeries.sum(
        (q_binomial(m, nu) * inner).shift((nu + l - m) * (nu + l - e) + nu * (nu - m))
        for nu in range(m + 1)
        if not (inner := q_binomial(nu, m - l - nu)).is_zero())


def S(m: int, l: int) -> QSeries:
    """S_{m,l}(q) = sum_nu q^{(nu+l-m)(nu+l) + nu(nu-m)} [m,nu]_q [nu,m-l-nu]_q.

    Zero for |l| > m; S_{m,m} = 1.
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

    Every nu-term of S is a shifted product of Gaussian binomials with
    positive coefficients, so nothing cancels and the floor is the least
    exponent (nu+l-m)(nu+l) + nu(nu-m) = 2nu^2 - 2(m-l)nu + l(l-m) over the
    admissible nu, those with 0 <= m-l-nu <= nu <= m.  That quadratic rises
    for nu >= (m-l)/2, so the least admissible nu, ceil((m-l)/2) or 0, gives
    the minimum.
    """
    nu = max(0, (m - l + 1) // 2)
    if nu > min(m, m - l):
        return None
    return (nu + l - m) * (nu + l) + nu * (nu - m)


def string_sum(l: int, cutoff: ExpLike) -> QSeries:
    """sum_{m >= |l|} q^{m^2} S_{m,l}(q) / (q)_m below ``cutoff``."""
    # S_{m,l} is zero exactly for m < |l|: leading zeros, skipped unbuilt.
    return sum_over_m(lambda m: S(m, l).shift(m * m),
                      lambda m: None if m < abs(l) else S_floor(m, l) + m * m,
                      cutoff)[0]


SImpl = Callable[[int, int], QSeries]


def _identity_table(s: SImpl, st: SImpl):
    # Each entry: name -> (lhs, rhs) as callables of (m, l); identities hold
    # for all integers l, stepping m -> m+1.
    return {
        "sym": lambda m, l: (s(m, -l), s(m, l)),
        "sym~": lambda m, l: (st(m, -l), st(m, l).shift(l)),
        "rec1": lambda m, l: (
            s(m + 1, l),
            s(m, l + 1).shift(-m - l - 1) + s(m, l) + st(m, l - 1).shift(-m + l - 1),
        ),
        "rec2": lambda m, l: (
            s(m + 1, l),
            s(m, l + 1).shift(-m - l - 1) + st(m, l).shift(-m) + s(m, l - 1),
        ),
        "rec3": lambda m, l: (
            s(m + 1, l),
            st(m, l + 1).shift(-m) + s(m, l) + s(m, l - 1).shift(-m + l - 1),
        ),
        "rec4": lambda m, l: (
            st(m + 1, l),
            s(m, l + 1).shift(-l) + s(m, l) + st(m, l - 1).shift(-m + l - 1),
        ),
        "rec5": lambda m, l: (
            st(m + 1, l),
            s(m, l + 1).shift(-l) + st(m, l).shift(-m) + s(m, l - 1),
        ),
        "rec6": lambda m, l: (
            st(m + 1, l),
            st(m, l + 1).shift(-m - l) + s(m, l).shift(-l) + s(m, l - 1),
        ),
    }


def verify_S_recurrences(m_max: int,
                         s_impl: SImpl = S,
                         s_tilde_impl: SImpl = S_tilde) -> list[CaseResult]:
    """Check the symmetry and all six step recurrences for 0 <= m < m_max,
    |l| <= m + 1.  Failures are collected, not raised, so a deliberately
    perturbed implementation shows up as failing cases.
    """
    table = _identity_table(s_impl, s_tilde_impl)
    return [check(f"relS {name} m={m} l={l}", *pair(m, l))
            for name, pair in table.items()
            for m in range(m_max) for l in range(-(m + 1), m + 2)]


def S_table(m_max: int, l_max: Optional[int] = None) -> dict:
    """JSON-ready rectangle of S and S~ values for 0 <= m <= m_max, |l| <= l_max."""
    lm = m_max if l_max is None else l_max
    cells = []
    for m in range(m_max + 1):
        for l in range(-lm, lm + 1):
            cells.append({
                "m": m,
                "l": l,
                "S": S(m, l).to_json_obj(),
                "S_tilde": S_tilde(m, l).to_json_obj(),
            })
    return {"m_max": m_max, "l_max": lm, "cells": cells}
