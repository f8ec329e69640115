"""Restricted supernomial polynomials S and S~ in 1/q.

Both families are Laurent polynomials with support in [-(m^2 - l^2), 0] and
nonnegative coefficients, defined by their double sums of Gaussian-binomial
products (``S``).  They are computed row by row, with no product: row m + 1
of both families comes from row m by the step recurrences rec1 (S) and rec4
(S~) on dense coefficient rows.  The other six identities of
``verify_S_recurrences`` are checks on that kernel; the tests hold it to the
double sums.  The packed suites read the cells as ints (``_s_int``), each row
evaluated at q = 256^{w stride}.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional

from .qcore import ExpLike, QSeries, _dense_sum, _digit_bytes, _from_dense, _pack, poch_sum
from .report import CaseResult, check_packed


@lru_cache(maxsize=None)
def _s_row(m: int) -> tuple[tuple, tuple]:
    """Row m of both families: the dense (lo, coefficients) cells of S_{m,l}
    and of S~_{m,l} for l = -m..m, at index l + m.  Row m + 1 comes from row
    m, both families being zero for |l| > m:

        rec1: S_{m+1,l} = q^{-m-l-1} S_{m,l+1} + S_{m,l} + q^{-m+l-1} S~_{m,l-1},
        rec4: S~_{m+1,l} = q^{-l} S_{m,l+1} + S_{m,l} + q^{-m+l-1} S~_{m,l-1},

    from S_{0,0} = S~_{0,0} = 1.  A call builds the uncached rows below
    m - 1 first, bottom-up from the first of them, so that no call recurses
    deeper than one level, whatever m is."""
    if m == 0:
        return ((0, (1,)),), ((0, (1,)),)
    k = m - 1
    for below in range(_rows_built().currsize, k):
        _s_row(below)
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


# The row cache's size n: rows 0..n-1 are built, as each row is built on the last.
_rows_built = _s_row.cache_info


def _s_cell(m: int, l: int, e: int) -> tuple[int, tuple[int, ...]]:
    """The dense (lo, coefficients) cell of S_{m,l} at e = 0, of S~_{m,l}
    at e = 1, read from ``_s_row``: one lookup once the row is cached;
    (0, ()) for |l| > m."""
    if m < 0:
        raise ValueError("S needs m >= 0")
    if abs(l) > m:
        return 0, ()
    return _s_row(m)[e][l + m]


@lru_cache(maxsize=None)
def _s_int(m: int, l: int, e: int, w: int, stride: int) -> tuple[int, int]:
    """(lo, x): the cell (lo, row) of ``_s_cell`` with its row packed at
    stride ``stride`` (``_pack``), so that S_{m,l} (e = 0) or S~_{m,l}
    (e = 1) is x B^{stride lo} at q = B^{stride}, B = 256^w.  Cached: the
    packed suites read each cell once per identity or f-sum term.

    Digit width (README, *Packed strip digit width*): the coefficients are
    positive and sum to S_{m,l}(1) = sum_nu C(m,nu) C(nu,m-l-nu) <= 3^m, the
    same for S~, so a w with 256^w > 3^m holds each in one digit; a digit
    too narrow for a coefficient raises ``OverflowError``."""
    lo, row = _s_cell(m, l, e)
    return lo, _pack(row, w, stride)


def _s_sum_int(terms: Iterable[tuple[int, int, int, int, int]], w: int,
               stride: int) -> int:
    """sum sign * q^{at/stride} C over (sign, m, l, e, at) terms, C = S_{m,l}
    for e = 0 and S~_{m,l} for e = 1, evaluated at q = B^{stride}, B = 256^w,
    from the packed cells of ``_s_int``: the one accumulator of S cells, for
    the f-sums, I_m and the ``relS`` identities.  Each caller proves that no
    term reaches below q^0, so digit 0 is q^0; a term that did would be a
    negative shift, and raise ``ValueError``.  A zero cell (|l| > m) adds
    nothing."""
    s = 8 * w
    x = 0
    for sign, m, l, e, at in terms:
        lo, cell = _s_int(m, l, e, w, stride)
        if cell:
            x += sign * (cell << s * (at + stride * lo))
    return x


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


# Each identity: name -> (lhs, rhs) as a function of (m, l), each side a
# tuple of (m', l', e, shift) terms, the term q^shift S_{m',l'} for e = 0 and
# q^shift S~_{m',l'} for e = 1; every identity holds for all integers l,
# stepping m -> m+1.
_IDENTITIES = {
    "sym": lambda m, l: (((m, -l, 0, 0),), ((m, l, 0, 0),)),
    "sym~": lambda m, l: (((m, -l, 1, 0),), ((m, l, 1, l),)),
    "rec1": lambda m, l: (((m + 1, l, 0, 0),), (
        (m, l + 1, 0, -m - l - 1), (m, l, 0, 0), (m, l - 1, 1, -m + l - 1))),
    "rec2": lambda m, l: (((m + 1, l, 0, 0),), (
        (m, l + 1, 0, -m - l - 1), (m, l, 1, -m), (m, l - 1, 0, 0))),
    "rec3": lambda m, l: (((m + 1, l, 0, 0),), (
        (m, l + 1, 1, -m), (m, l, 0, 0), (m, l - 1, 0, -m + l - 1))),
    "rec4": lambda m, l: (((m + 1, l, 1, 0),), (
        (m, l + 1, 0, -l), (m, l, 0, 0), (m, l - 1, 1, -m + l - 1))),
    "rec5": lambda m, l: (((m + 1, l, 1, 0),), (
        (m, l + 1, 0, -l), (m, l, 1, -m), (m, l - 1, 0, 0))),
    "rec6": lambda m, l: (((m + 1, l, 1, 0),), (
        (m, l + 1, 1, -m - l), (m, l, 0, -l), (m, l - 1, 0, 0))),
}


def verify_S_recurrences(m_max: int) -> list[CaseResult]:
    """Check the symmetry and all six step recurrences for 0 <= m < m_max,
    |l| <= m + 1.  rec1 and rec4 hold by construction, as ``_s_row`` builds
    each row by them; the other six identities (sym, sym~, rec2, rec3, rec5,
    rec6) remain real checks of the kernel.  Failures are collected, not
    raised, so a perturbed row (``_s_row``), cell (``_s_cell``) or packed
    cell (``_s_int``) shows up as failing cases.

    Each side is its cells shifted and added at B = 256^w, one digit per
    power of q (``_s_sum_int``), and the two ints are compared; only a
    failing case is unpacked into series, for ``check``'s first mismatch.
    One w serves the call (README, *Packed strip digit width*): a side has
    at most three terms of row m or one of row m + 1 <= m_max, so its
    coefficients are at most 3 * 3^m <= 3^{m_max}, and 256^w exceeds twice
    that, so equal ints are equal polynomials.  Digit 0 is q^{-(m+1)^2 - 1}:
    a cell of row k starts at q^{-k^2} or above (S_{k,l} at
    q^{-(k^2 - l^2)}, and S~_{k,l} too, or |l| higher for l < 0), a left
    side reads row m or m + 1 unshifted, and a right side reads row m
    shifted by at least -(2m + 2)."""
    w = _digit_bytes(2 * 3 ** m_max)
    out = []
    for name, pair in _IDENTITIES.items():
        for m in range(m_max):
            off = (m + 1) ** 2 + 1
            for l in range(-(m + 1), m + 2):
                lhs, rhs = (_s_sum_int(((1, k, j, e, shift + off) for k, j, e, shift in side),
                                       w, 1) for side in pair(m, l))
                out.append(check_packed(f"relS {name} m={m} l={l}", lhs, rhs, w, 1, -off))
    return out


def S_table(m_max: int, l_max: Optional[int] = None) -> dict:
    """Rectangle of S and S~ series for 0 <= m <= m_max, |l| <= l_max, as a
    payload for ``cli._emit``."""
    lm = m_max if l_max is None else l_max
    cells = [{"m": m, "l": l, "S": S(m, l), "S_tilde": S_tilde(m, l)}
             for m in range(m_max + 1) for l in range(-lm, lm + 1)]
    return {"m_max": m_max, "l_max": lm, "cells": cells}
