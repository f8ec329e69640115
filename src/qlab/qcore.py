"""Exact arithmetic for sparse q-series with rational exponents.

A QSeries is a finite map exponent -> integer coefficient together with an
exclusive truncation bound (``cutoff``).  ``cutoff=None`` means the series is
an exact Laurent polynomial: every coefficient outside the stored support is
genuinely zero, not merely unknown.  All operations are pure; instances are
treated as immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

ExpLike = Union[int, Fraction]
CutoffLike = Union[int, Fraction, None]


def _exp(x: ExpLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exponent must be int or Fraction, got {type(x).__name__}")


def _cutoff(x: CutoffLike) -> Optional[Fraction]:
    return None if x is None else _exp(x)


def _min_cutoff(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class QSeries:
    """Sparse series sum_e c_e q^e, truncated below ``cutoff``.

    ``cutoff`` is exclusive: exponents >= cutoff are dropped on construction
    and carry no information.  ``floor`` is the least stored exponent (the
    cutoff itself for an empty truncated series, 0 for an exact zero).
    """

    __slots__ = ("_terms", "cutoff", "floor")

    def __init__(self, terms: Mapping[ExpLike, int] | Iterable[tuple[ExpLike, int]] = (),
                 cutoff: CutoffLike = None):
        cut = _cutoff(cutoff)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Fraction, int] = {}
        for e, c in items:
            if not isinstance(c, int):
                raise TypeError("coefficients must be int")
            if c == 0:
                continue
            ee = _exp(e)
            if cut is not None and ee >= cut:
                continue
            acc[ee] = acc.get(ee, 0) + c
            if acc[ee] == 0:
                del acc[ee]
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "cutoff", cut)
        if acc:
            floor = min(acc)
        elif cut is not None:
            floor = cut
        else:
            floor = Fraction(0)
        object.__setattr__(self, "floor", floor)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(cutoff: CutoffLike = None) -> "QSeries":
        return QSeries((), cutoff)

    @staticmethod
    def one(cutoff: CutoffLike = None) -> "QSeries":
        return QSeries({Fraction(0): 1}, cutoff)

    @staticmethod
    def monomial(exp: ExpLike, coeff: int = 1, cutoff: CutoffLike = None) -> "QSeries":
        return QSeries({_exp(exp): coeff}, cutoff)

    # -- inspection ----------------------------------------------------

    def coeff(self, exp: ExpLike) -> int:
        return self._terms.get(_exp(exp), 0)

    def items(self) -> Iterator[tuple[Fraction, int]]:
        return iter(sorted(self._terms.items()))

    def support(self) -> list[Fraction]:
        return sorted(self._terms)

    @property
    def is_exact(self) -> bool:
        return self.cutoff is None

    def is_zero(self) -> bool:
        return not self._terms

    def coeff_sum(self) -> int:
        """Value at q=1; exact series only."""
        if not self.is_exact:
            raise ValueError("coeff_sum requires an exact series")
        return sum(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        parts = [f"{c}*q^({e})" for e, c in list(self.items())[:6]]
        if len(self._terms) > 6:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        tail = "" if self.cutoff is None else f" + O(q^{self.cutoff})"
        return f"QSeries({body}{tail})"

    # -- ring operations -----------------------------------------------

    @staticmethod
    def sum(terms: Iterable["QSeries"]) -> "QSeries":
        """Sum of ``terms`` in one pass, truncated below their least cutoff;
        an exact zero when ``terms`` is empty."""
        it = iter(terms)
        first = next(it, None)
        if first is None:
            return QSeries.zero(None)
        acc = dict(first._terms)
        cut = first.cutoff
        for term in it:
            cut = _min_cutoff(cut, term.cutoff)
            for e, c in term._terms.items():
                acc[e] = acc.get(e, 0) + c
        return QSeries(acc, cut)

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return QSeries.sum((self, other))

    def __neg__(self) -> "QSeries":
        return QSeries({e: -c for e, c in self._terms.items()}, self.cutoff)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["QSeries", int]) -> "QSeries":
        if isinstance(other, int):
            return QSeries({e: c * other for e, c in self._terms.items()}, self.cutoff)
        if not isinstance(other, QSeries):
            return NotImplemented
        # Truncation is sound through the other factor's floor.
        cut = _min_cutoff(
            None if self.cutoff is None else self.cutoff + other.floor,
            None if other.cutoff is None else other.cutoff + self.floor,
        )
        acc: dict[Fraction, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                if cut is not None and e >= cut:
                    continue
                acc[e] = acc.get(e, 0) + c1 * c2
        return QSeries(acc, cut)

    __rmul__ = __mul__

    def shift(self, exp: ExpLike) -> "QSeries":
        """Multiply by q^exp."""
        d = _exp(exp)
        cut = None if self.cutoff is None else self.cutoff + d
        return QSeries({e + d: c for e, c in self._terms.items()}, cut)

    def truncate(self, cutoff: CutoffLike) -> "QSeries":
        return QSeries(self._terms, _min_cutoff(self.cutoff, _cutoff(cutoff)))

    def flip(self) -> "QSeries":
        """Substitute q -> 1/q; exact series only (negation of exponents)."""
        if not self.is_exact:
            raise ValueError("flip requires an exact series")
        return QSeries({-e: c for e, c in self._terms.items()}, None)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._terms == other._terms and self.cutoff == other.cutoff

    def __hash__(self) -> int:
        return hash((frozenset(self._terms.items()), self.cutoff))

    # -- serialization ---------------------------------------------------

    def to_json_obj(self) -> dict:
        terms = [
            {"num": e.numerator, "den": e.denominator, "coeff": str(c)}
            for e, c in self.items()
        ]
        cut = (None if self.cutoff is None
               else {"num": self.cutoff.numerator, "den": self.cutoff.denominator})
        return {"terms": terms, "cutoff": cut}

    @staticmethod
    def from_json_obj(obj: dict) -> "QSeries":
        terms = {
            Fraction(t["num"], t["den"]): int(t["coeff"]) for t in obj["terms"]
        }
        cut = obj.get("cutoff")
        cutoff = None if cut is None else Fraction(cut["num"], cut["den"])
        return QSeries(terms, cutoff)

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"), sort_keys=True)

    @staticmethod
    def loads(s: str) -> "QSeries":
        return QSeries.from_json_obj(json.loads(s))


@dataclass(frozen=True)
class Comparison:
    """Result of comparing two series below the joint truncation bound; a
    mismatch carries its exponent and the coefficient of each side there."""

    ok: bool
    verified_below: Optional[Fraction]  # None: full exact comparison
    first_mismatch: Optional[Fraction] = None
    lhs_coeff: int = 0
    rhs_coeff: int = 0

    def detail(self) -> str:
        if self.ok:
            if self.verified_below is None:
                return "exact polynomial equality"
            return f"coefficients agree below q^{self.verified_below}"
        return (f"first mismatch at q^{self.first_mismatch}: "
                f"{self.lhs_coeff} != {self.rhs_coeff}")


def compare(a: QSeries, b: QSeries) -> Comparison:
    bound = _min_cutoff(a.cutoff, b.cutoff)
    bad = [e for e in set(a._terms) | set(b._terms)
           if (bound is None or e < bound) and a._terms.get(e, 0) != b._terms.get(e, 0)]
    if bad:
        e = min(bad)
        return Comparison(False, bound, e, a._terms.get(e, 0), b._terms.get(e, 0))
    return Comparison(True, bound)


# -- Pochhammer factors ----------------------------------------------------


def poch(m: int, cutoff: CutoffLike = None) -> QSeries:
    """(q)_m = prod_{i=1}^m (1 - q^i), exact for cutoff=None."""
    if m < 0:
        raise ValueError("poch needs m >= 0")
    out = QSeries.one(cutoff)
    for i in range(1, m + 1):
        out = out * QSeries({0: 1, i: -1}, cutoff)
    return out


def poch_inv(m: Optional[int], cutoff: CutoffLike) -> QSeries:
    """1/(q)_m truncated below cutoff; m=None gives 1/(q)_infinity.

    Coefficient of q^n is the number of partitions of n into parts <= m.
    """
    cut = _cutoff(cutoff)
    if cut is None:
        raise ValueError("poch_inv requires a finite cutoff")
    if m is not None and m < 0:
        raise ValueError("poch_inv needs m >= 0 or m=None")
    n_max = int(cut) - 1 if cut == int(cut) else int(cut)  # largest n < cut
    if n_max < 0:
        return QSeries.zero(cut)
    coeffs = [0] * (n_max + 1)
    coeffs[0] = 1
    top = n_max if m is None else min(m, n_max)
    for part in range(1, top + 1):
        for n in range(part, n_max + 1):
            coeffs[n] += coeffs[n - part]
    return QSeries({Fraction(n): coeffs[n] for n in range(n_max + 1)}, cut)


def sum_over_m(poly_of: Callable[[int], QSeries], cut: ExpLike, start: int = 0,
               cap: Optional[int] = None) -> tuple[QSeries, int, bool]:
    """sum_{m >= start} poly_of(m) / (q)_m below ``cut``.

    A term is silent when its polynomial is zero or starts at or above
    ``cut``.  Zero polynomials before the first non-silent term are skipped;
    the sum stops after three consecutive silent terms, or once m > cap
    (default int(cut) + 2).  Returns (total, m, capped): the m at which the
    sum stopped, and whether the cap stopped it.
    """
    cut = _exp(cut)
    cap = int(cut) + 2 if cap is None else cap
    terms = [QSeries.zero(cut)]  # gives an empty sum its cutoff
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
            terms.append(poly * poch_inv(m, cut - poly.floor))
        m += 1
    return QSeries.sum(terms), m, True


# -- exact division ---------------------------------------------------------


def exact_div(num: QSeries, den: QSeries) -> QSeries:
    """Quotient of exact series, asserting the division leaves no remainder."""
    if not (num.is_exact and den.is_exact):
        raise ValueError("exact_div requires exact series")
    if den.is_zero():
        raise ZeroDivisionError("exact_div by zero series")
    if num.is_zero():
        return QSeries.zero(None)
    rem = dict(num._terms)
    den_items = sorted(den._terms.items())
    d_exp, d_coeff = den_items[0]
    # In an exact quotient the top exponents add up, so any quotient term
    # beyond this bound proves the division leaves a remainder.
    qe_bound = max(num._terms) - den_items[-1][0]
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


# -- binomial family --------------------------------------------------------


def _gauss_coeffs(n: int, k: int) -> list[int]:
    """Dense coefficient list of [n, k]_q for 0 <= k <= n."""
    m = n - k
    c = [1]
    for i in range(1, k + 1):
        # Multiply by (1 - q^(m+i)): c[j] -= c[j-m-i] for every j at once,
        # reading the old values as a descending in-place pass would.
        s = m + i
        c = c + [0] * s
        c[s:] = map(sub, c[s:], c[:-s])
        # Divide by (1 - q^i): prefix sums along each residue class mod i.
        for r in range(i):
            c[r::i] = accumulate(c[r::i])
        if any(c[-i:]):
            raise ArithmeticError("division is not exact")
        del c[-i:]
    return c


@lru_cache(maxsize=None)
def q_binomial(L: int, a: int) -> QSeries:
    """Gaussian binomial [L, a]_q = (q^{L-a+1})_a / (q)_a.

    Defined for any integer L and a >= 0 (zero for a < 0, and for 0 <= L < a);
    for L < 0 the result is a Laurent polynomial.

    Algorithm: a dense list of ints starts at [1] and, for i = 1..a, is
    multiplied by (1 - q^{L-a+i}) and then divided by (1 - q^i).  After step
    i the list is the polynomial [L-a+i, i]_q, so every division is exact;
    the top i coefficients of each prefix-sum quotient must vanish, else
    ``ArithmeticError`` is raised.  The cost is O(a * a(L-a)) integer
    additions.  For L < 0 the same kernel runs on the reflection
    [L, a] = (-1)^a q^{aL - a(a-1)/2} [a-L-1, a].
    """
    if a < 0 or 0 <= L < a:
        return QSeries.zero(None)
    n, sign, offset = L, 1, 0
    if L < 0:
        n, sign, offset = a - L - 1, (-1) ** a, a * L - a * (a - 1) // 2
    coeffs = _gauss_coeffs(n, a)
    return QSeries({offset + j: sign * c for j, c in enumerate(coeffs)}, None)


def q_trinomial(n: int, a: int, b: int, c: int) -> QSeries:
    """(q)_n / ((q)_a (q)_b (q)_c) = [n, a]_q [b+c, b]_q for a+b+c=n; zero if
    any index is negative."""
    if a + b + c != n:
        raise ValueError("q_trinomial requires a + b + c = n")
    if min(a, b, c) < 0:
        return QSeries.zero(None)
    return q_binomial(n, a) * q_binomial(b + c, b)


# -- two-row supernomial -----------------------------------------------------


@lru_cache(maxsize=None)
def _supernomial2(L1: int, L2: int, twice_a: int) -> QSeries:
    if L2 == 0:
        idx2 = 2 * L1 + 2 * twice_a  # 4*(L1/2 + a)
        if idx2 % 4 != 0:
            return QSeries.zero(None)
        return q_binomial(L1, idx2 // 4)
    # Descend in the second argument; the raised first argument reduces to
    # plain Gaussian binomials at L2=0.
    up = _supernomial2(L1 + 2, L2 - 1, twice_a)
    down = _supernomial2(L1, L2 - 1, twice_a)
    return up - down.shift(L1 + L2)


def supernomial2(L1: int, L2: int, a: ExpLike) -> QSeries:
    """Weight-2a slice of the character of a fused string of L1 two-dimensional
    and L2 three-dimensional factors.

    Vanishes unless a + L1/2 is an integer with |2a| <= L1 + 2*L2.  At L2=0 it
    is the Gaussian binomial [L1, L1/2 + a]_q.
    """
    if L1 < 0 or L2 < 0:
        raise ValueError("supernomial2 needs L1, L2 >= 0")
    aa = Fraction(a)
    if (2 * aa).denominator != 1:
        return QSeries.zero(None)
    twice_a = int(2 * aa)
    if (twice_a + L1) % 2 != 0:
        return QSeries.zero(None)
    return _supernomial2(L1, L2, twice_a)
