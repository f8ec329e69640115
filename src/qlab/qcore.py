"""Exact arithmetic for sparse q-series with rational exponents.

A QSeries is a finite map exponent -> integer coefficient together with an
exclusive truncation bound (``cutoff``).  ``cutoff=None`` means the series is
an exact Laurent polynomial: every coefficient outside the stored support is
genuinely zero, not merely unknown.  All operations are pure; instances are
treated as immutable.

Internally every exponent of a series is an ``int`` key over one positive
denominator ``den`` (exponent = key / den), and the cutoff is stored scaled
by the same ``den``.  ``den`` is always the least such value, so equal series
have equal keys, denominators and cutoffs.  Arithmetic runs on the int keys
and rescales to the lcm of the denominators only when two differ.  Exponents
cross the API as ``int`` when integral and as ``Fraction`` otherwise, and
into JSON as (num, den) in lowest terms (``json_rows``).

Sums, shifts and products of series are calls to one kernel,
``QSeries.sum_shifted``, and it has the one truncation rule: a result is cut
below its terms' least shifted cutoff.  A product of two series is taken of
exact series only; a truncated factor raises ``ValueError``.  Truncated series
are made by ``sum_shifted``, ``poch_sum`` and ``poch_inv``.  Exact polynomials
built by recurrence (Gaussian binomials and the S family in ``supernomial``)
run instead on dense int rows (``_dense_sum``).  A row of nonnegative ints
packs into one int, its value at 256^w with one w-byte digit per coefficient
(``_pack``, read back by ``_unpack``), so that two rows multiply by Kronecker
substitution (``_dense_mul``, for ``verify pmn``) and the two-row descent is
one shift and subtraction of ints per node (``_supernomial2_int``, for
``verify exactseq``, which compares the ints).  A row packs at a stride too,
one entry every stride digits, for polynomials in q^{1/stride}, so that
the strip suites shift, add and compare ints, and a signed value reads back
in balanced digits (``_unpack_signed``, ``_packed_series``).  The rows and
the packed nodes are cached, and a series is made from a row when a value
is asked for (``_from_dense``); only the S cells cache their series too.  No
1/(q)_infinity is cached: ``poch_inv`` divides each numerator in place.
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from operator import add, sub
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

ExpLike = Union[int, Fraction]
CutoffLike = Union[int, Fraction, None]


def _den(x: ExpLike) -> int:
    if isinstance(x, int):
        return 1
    if isinstance(x, Fraction):
        return x.denominator
    raise TypeError(f"exponent must be int or Fraction, got {type(x).__name__}")


def _key(x: ExpLike, den: int) -> int:
    """x * den, for an exponent x whose denominator divides den."""
    if isinstance(x, int):
        return x * den
    return x.numerator * (den // x.denominator)


def _exp(key: int, den: int) -> ExpLike:
    """The exponent key / den: an int when integral, else a Fraction."""
    if den == 1:
        return key
    q, r = divmod(key, den)
    return q if r == 0 else Fraction(key, den)


def _min_cutoff(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _scaled(s: "QSeries", den: int) -> tuple[dict[int, int], Optional[int]]:
    """The keys and cutoff of ``s`` over ``den``, a multiple of its own."""
    f = den // s._den
    if f == 1:
        return s._terms, s._cut
    return ({k * f: c for k, c in s._terms.items()},
            None if s._cut is None else s._cut * f)


_set = object.__setattr__


def _canon(terms: dict[int, int], den: int,
           cut: Optional[int]) -> tuple[dict[int, int], int, Optional[int]]:
    """Lower ``den`` to the least denominator of the keys and the cutoff."""
    if den != 1:
        g = math.gcd(den, *terms) if cut is None else math.gcd(den, cut, *terms)
        if g != 1:
            den //= g
            terms = {k // g: c for k, c in terms.items()}
            if cut is not None:
                cut //= g
    return terms, den, cut


def _new(terms: dict[int, int], den: int, cut: Optional[int]) -> "QSeries":
    """A series from keys over ``den`` that are already canonical: nonzero
    coefficients, keys below ``cut``, and ``den`` least."""
    s = object.__new__(QSeries)
    _set(s, "_terms", terms)
    _set(s, "_den", den)
    _set(s, "_cut", cut)
    return s


def _reduced(terms: dict[int, int], den: int, cut: Optional[int]) -> "QSeries":
    """As ``_new``, but first lowers ``den`` to its least value."""
    return _new(*_canon(terms, den, cut))


class QSeries:
    """Sparse series sum_e c_e q^e, truncated below ``cutoff``.

    ``cutoff`` is exclusive: exponents >= cutoff are dropped on construction
    and carry no information.  ``floor`` is the least stored exponent (the
    cutoff itself for an empty truncated series, 0 for an exact zero).
    """

    __slots__ = ("_terms", "_den", "_cut")

    def __init__(self, terms: Mapping[ExpLike, int] | Iterable[tuple[ExpLike, int]] = (),
                 cutoff: CutoffLike = None):
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        den = 1 if cutoff is None else _den(cutoff)
        for e, _ in items:
            if not isinstance(e, int):
                den = math.lcm(den, _den(e))
        cut = None if cutoff is None else _key(cutoff, den)
        acc: dict[int, int] = {}
        for e, c in items:
            if not isinstance(c, int):
                raise TypeError("coefficients must be int")
            k = _key(e, den)
            if c and (cut is None or k < cut):
                acc[k] = acc.get(k, 0) + c
        terms, den, cut = _canon({k: c for k, c in acc.items() if c}, den, cut)
        _set(self, "_terms", terms)
        _set(self, "_den", den)
        _set(self, "_cut", cut)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(cutoff: CutoffLike = None) -> "QSeries":
        return QSeries((), cutoff)

    @staticmethod
    def one(cutoff: CutoffLike = None) -> "QSeries":
        return QSeries({0: 1}, cutoff)

    @staticmethod
    def from_keys(terms: Mapping[int, int], den: int) -> "QSeries":
        """The exact series sum_k c_k q^{k/den} from int keys k over a
        positive ``den``, as in ``sum_shifted``; no ``Fraction`` is formed."""
        if den < 1:
            raise ValueError("den must be positive")
        return _reduced({k: c for k, c in terms.items() if c}, den, None)

    # -- inspection ----------------------------------------------------

    def coeff(self, exp: ExpLike) -> int:
        den = _den(exp)
        if self._den % den:
            return 0  # exp is not a multiple of 1/den
        return self._terms.get(_key(exp, self._den), 0)

    def items(self) -> Iterator[tuple[ExpLike, int]]:
        den = self._den
        return iter([(_exp(k, den), c) for k, c in sorted(self._terms.items())])

    def coeffs(self) -> Iterable[int]:
        """The nonzero coefficients, in no fixed order, without their
        exponents."""
        return self._terms.values()

    @property
    def cutoff(self) -> Optional[ExpLike]:
        return None if self._cut is None else _exp(self._cut, self._den)

    @property
    def floor(self) -> ExpLike:
        if self._terms:
            return _exp(min(self._terms), self._den)
        return 0 if self._cut is None else _exp(self._cut, self._den)

    @property
    def is_exact(self) -> bool:
        return self._cut is None

    def is_zero(self) -> bool:
        return not self._terms

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
        """Sum of ``terms`` below their least cutoff; an exact zero for none."""
        terms = list(terms)
        return QSeries.sum_shifted(((1, t, 0) for t in terms),
                                   math.lcm(*(t._den for t in terms)))

    @staticmethod
    def sum_shifted(terms: Iterable[tuple[int, "QSeries", int]], den: int) -> "QSeries":
        """sum sign * s * q^{key/den} over (sign, s, key) triples, each ``s``
        with a denominator dividing the positive ``den``: the one loop that
        combines series, into one int-keyed dict reduced once.  It is
        truncated below the least shifted cutoff of the terms, so exact only
        when every term is; an exact zero for no terms."""
        if den < 1:
            raise ValueError("den must be positive")
        acc: dict[int, int] = {}
        get = acc.get
        cut = None
        n = 0
        for sign, s, key in terms:
            f, r = divmod(den, s._den)
            if r:
                raise ValueError(f"need series with denominators dividing {den}")
            if s._cut is not None and (cut is None or s._cut * f + key < cut):
                cut = s._cut * f + key
            n += 1
            for k, c in s._terms.items():
                e = k * f + key
                acc[e] = get(e, 0) + sign * c
        # Alone, a term has no key at or above its cut, and a zero only for sign 0.
        if n > 1 or 0 in acc.values():
            acc = {k: c for k, c in acc.items() if c and (cut is None or k < cut)}
        return _reduced(acc, den, cut)

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return QSeries.sum((self, other))

    def __neg__(self) -> "QSeries":
        return QSeries.sum_shifted(((-1, self, 0),), self._den)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return QSeries.sum_shifted(((1, self, 0), (-1, other, 0)),
                                   math.lcm(self._den, other._den))

    def __mul__(self, other: Union["QSeries", int]) -> "QSeries":
        """sum_k c_k q^k * b over the terms of the factor a with fewer terms,
        for exact series a and b; a truncated factor raises ``ValueError``.
        An int scales the series and keeps its cutoff."""
        if isinstance(other, int):  # no copy of an immutable series for 1
            return self if other == 1 else QSeries.sum_shifted(((other, self, 0),), self._den)
        if not isinstance(other, QSeries):
            return NotImplemented
        if self._cut is not None or other._cut is not None:
            raise ValueError("QSeries multiplies exact series only")
        a, b = (self, other) if len(self._terms) <= len(other._terms) else (other, self)
        den = math.lcm(a._den, b._den)
        f = den // a._den
        return QSeries.sum_shifted([(c, b, k * f) for k, c in a._terms.items()], den)

    __rmul__ = __mul__

    def shift(self, exp: ExpLike) -> "QSeries":
        """Multiply by q^exp."""
        den = math.lcm(self._den, _den(exp))
        return QSeries.sum_shifted(((1, self, _key(exp, den)),), den)

    def truncate(self, cutoff: CutoffLike) -> "QSeries":
        """self + O(q^cutoff): the sum with a zero known only below ``cutoff``."""
        return self + QSeries.zero(cutoff)

    def flip(self) -> "QSeries":
        """Substitute q -> 1/q; exact series only (negation of exponents)."""
        if not self.is_exact:
            raise ValueError("flip requires an exact series")
        return _new({-k: c for k, c in self._terms.items()}, self._den, None)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self._den == other._den and self._cut == other._cut
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((frozenset(self._terms.items()), self._den, self._cut))

    # -- serialization ---------------------------------------------------

    def json_rows(self) -> list[tuple[int, int, int]]:
        """(coeff, den, num) per term in exponent order, the exponent num/den
        in lowest terms: the rows of the series' JSON term table."""
        den, items = self._den, sorted(self._terms.items())
        if den == 1:
            return [(c, 1, k) for k, c in items]
        gcd = math.gcd
        return [(c, den // g, k // g) for k, c in items for g in (gcd(k, den),)]


class Comparison(NamedTuple):
    """Result of comparing two series below the joint truncation bound; a
    mismatch carries its exponent and the coefficient of each side there.
    Exponents are ``int`` when integral, else ``Fraction``."""

    ok: bool
    verified_below: Optional[ExpLike]  # None: full exact comparison
    first_mismatch: Optional[ExpLike] = None
    lhs_coeff: int = 0
    rhs_coeff: int = 0

    def detail(self) -> str:
        if self.ok:
            if self.verified_below is None:
                return "exact"
            return f"coefficients agree below q^{self.verified_below}"
        return (f"first mismatch at q^{self.first_mismatch}: "
                f"{self.lhs_coeff} != {self.rhs_coeff}")


def compare(a: QSeries, b: QSeries) -> Comparison:
    den = math.lcm(a._den, b._den)
    ta, ca = _scaled(a, den)
    tb, cb = _scaled(b, den)
    bound = _min_cutoff(ca, cb)
    below = None if bound is None else _exp(bound, den)
    # Equal keys, the common case, pass without a scan.
    bad = [] if ta == tb else [k for k in ta.keys() | tb.keys()
                               if (bound is None or k < bound)
                               and ta.get(k, 0) != tb.get(k, 0)]
    if bad:
        k = min(bad)
        return Comparison(False, below, _exp(k, den), ta.get(k, 0), tb.get(k, 0))
    return Comparison(True, below)


def lattice_range(lo: int, hi: int, step: int) -> range:
    """The ints x with lo <= step * x <= hi (step > 0): each orbit sum's window."""
    return range(-(-lo // step), hi // step + 1)


# -- Pochhammer sums ------------------------------------------------------


def _divide_one_minus_q(c: list[int], m: int) -> None:
    """Divide the dense series ``c`` by 1 - q^m (m >= 1) in place, truncated
    to its length: c[n] += c[n - m] for ascending n, as a running sum along
    each residue class when there are few, else one block of m entries at a
    time, each reading the updated block below it."""
    size = len(c)
    if m * m < size:
        for r in range(m):
            c[r::m] = accumulate(c[r::m])
    else:
        for b in range(m, size, m):
            c[b:b + m] = map(add, c[b:b + m], c[b - m:b])


def poch_sum(terms: Mapping[int, QSeries], cutoff: CutoffLike) -> QSeries:
    """sum_m terms[m] / (q)_m truncated below cutoff, on one dense int list.

    Each term must be exact with integer exponents, and every m >= 0.  The
    list runs from the least floor of the terms to the last integer below
    ``cutoff``; it is folded back to front, as in the nested form
    A_0 + (A_1 + (A_2 + ...)/(1 - q^2))/(1 - q): add terms[m], then divide
    by 1 - q^m in place, so no factor 1/(q)_m is formed.
    """
    if cutoff is None:
        raise ValueError("poch_sum requires a finite cutoff")
    den = _den(cutoff)
    cut = _key(cutoff, den)
    if any(m < 0 or t._cut is not None or t._den != 1 for m, t in terms.items()):
        raise ValueError("poch_sum needs m >= 0 and exact terms with integer exponents")
    lo = min((min(t._terms) for t in terms.values() if t._terms), default=0)
    size = -(-cut // den) - lo  # the exponents lo .. ceil(cutoff) - 1, if any
    c = [0] * size
    for m in range(max(terms, default=0), -1, -1):
        if m in terms:
            for k, v in terms[m]._terms.items():
                if k - lo < size:
                    c[k - lo] += v
        if m:
            _divide_one_minus_q(c, m)
    # cutoff is in lowest terms, so den is already least.
    return _new({(lo + n) * den: v for n, v in enumerate(c) if v}, den, cut)


def poch_inv(cutoff: CutoffLike,
             numerator: Sequence[tuple[int, int]] = ((0, 1),)) -> QSeries:
    """numerator / (q)_infinity below a finite cutoff, for (exponent,
    coefficient) pairs with int exponents; 1/(q)_infinity by default.  The
    pairs go on one dense list c, divided in place by Euler's pentagonal
    (q)_infinity = sum_k (-1)^k q^{k(3k-1)/2}: for ascending n, c[n] +=
    sum_{k>=1} (-1)^{k+1} (c[n - k(3k-1)/2] + c[n - k(3k+1)/2]), k up to the
    first pentagonal number above n.  That is O(cutoff^{3/2}) and forms no
    product, so nothing is cached: each character divides its own numerator."""
    if cutoff is None:
        raise ValueError("poch_inv requires a finite cutoff")
    den = _den(cutoff)
    cut = _key(cutoff, den)
    lo = min((e for e, _ in numerator), default=0)
    c = [0] * (-(-cut // den) - lo)  # the exponents lo .. ceil(cutoff) - 1, if any
    for e, v in numerator:
        if e - lo < len(c):
            c[e - lo] += v
    pent = [(k * (3 * k - 1) // 2, k * (3 * k + 1) // 2, k % 2)
            for k in range(1, math.isqrt(2 * len(c)) + 2)]  # past the list's end
    for n in range(1, len(c)):
        for g, h, odd in pent:
            if g > n:
                break
            t = c[n - g] + c[n - h] if h <= n else c[n - g]
            c[n] += t if odd else -t
    return _new({(lo + n) * den: v for n, v in enumerate(c) if v}, den, cut)


# -- binomial family --------------------------------------------------------


def _from_dense(lo: int, c: Sequence[int]) -> QSeries:
    """The exact series sum_n c[n] q^{lo + n}."""
    return _new(dict(compress(zip(range(lo, lo + len(c)), c), c)), 1, None)


def _dense_sum(terms: Iterable[tuple[int, int, tuple[int, ...]]]) -> tuple[int, tuple[int, ...]]:
    """sum sign * q^at * c over (sign, at, c) triples, sign +1 or -1, each c
    a dense coefficient row from exponent ``at``: one slice add per term, as
    a (lo, row) pair without zeros at either end, (0, ()) for zero.  A lone
    term with sign +1 is its own row, uncopied; rows are tuples, so cached
    rows may be passed and shared."""
    terms = [t for t in terms if t[2]]
    if len(terms) < 2:
        if not terms:
            return 0, ()
        if terms[0][0] > 0:
            return terms[0][1], terms[0][2]
    lo = min(at for _, at, _ in terms)
    c = [0] * (max(at + len(x) for _, at, x in terms) - lo)
    for sign, at, x in terms:
        a = at - lo
        c[a:a + len(x)] = map(add if sign > 0 else sub, c[a:a + len(x)], x)
    # A signed sum can cancel at its ends.
    hi = len(c)
    while hi and not c[hi - 1]:
        hi -= 1
    if not hi:
        return 0, ()
    start = 0
    while not c[start]:
        start += 1
    return lo + start, tuple(c[start:hi])


_WORD = {1: "B", 2: "H", 4: "I", 8: "Q"}  # unsigned native formats by size
_CAST = sys.byteorder == "little"  # the packed digits are little-endian


def _digit_bytes(bound: int) -> int:
    """The least w >= 1 with 256^w > ``bound`` >= 0, rounded up to 1, 2, 4
    or 8 when it is at most 8, so that ``_unpack`` reads machine words; a
    wider digit carries no more than a narrower one."""
    w = max(1, -(-bound.bit_length() // 8))
    return 1 << (w - 1).bit_length() if w <= 8 else w


def _pack(row: Sequence[int], w: int, stride: int = 1) -> int:
    """sum_n row[n] 256^{w stride n}: the row evaluated at 256^w with one
    w-byte digit per entry, each followed by stride - 1 zero digits (the
    row of a polynomial in q evaluated at q = 256^{w stride}).  An entry
    outside 0 <= x < 256^w raises ``OverflowError``.  Digits of 1, 2, 4 or
    8 bytes are packed by one ``struct.pack`` call."""
    if w in _WORD:
        try:
            data = struct.pack(f"<{len(row)}{_WORD[w]}", *row)
        except struct.error as exc:
            raise OverflowError(f"an entry does not fit {w}-byte digits: {exc}") from None
    else:
        data = b"".join([x.to_bytes(w, "little") for x in row])
    if stride > 1:
        spread = bytearray(len(data) * stride)
        for i in range(w):  # byte i of every digit, one strided copy each
            spread[i::w * stride] = data[i::w]
        data = spread
    return int.from_bytes(data, "little")


def _unpack(x: int, w: int, n: Optional[int] = None) -> tuple[int, ...]:
    """The n lowest w-byte digits of x >= 0, lowest first, the row that
    ``_pack(row, w)`` packs; by default every digit up to the highest
    nonzero one.  x < 0, or x >= 256^{w n}, raises ``OverflowError``."""
    if n is None:
        n = -(-x.bit_length() // (8 * w))
    data = x.to_bytes(n * w, "little")
    if _CAST and w in _WORD:
        return tuple(memoryview(data).cast(_WORD[w]).tolist())
    return tuple([int.from_bytes(data[i:i + w], "little") for i in range(0, n * w, w)])


def _unpack_signed(x: int, w: int) -> tuple[int, ...]:
    """The balanced digits of any int x, lowest first, up to the highest
    nonzero one: the unique row with entries in [-B/2, B/2), B = 256^w,
    whose value at B is x.  So a packed polynomial whose coefficients all
    lie in that range reads back whatever their signs.  One more digit
    than x's unsigned length is enough: with n digits, |x| < B^{n-1}, and
    adding B/2 to every digit (the bias) maps the balanced digits onto
    ordinary ones of x + bias, which lies in [0, B^n)."""
    n = -(-x.bit_length() // (8 * w)) + 1
    half = 1 << (8 * w - 1)
    bias = int.from_bytes(half.to_bytes(w, "little") * n, "little")
    row = [d - half for d in _unpack(x + bias, w, n)]
    while row and not row[-1]:
        row.pop()
    return tuple(row)


def _packed_series(x: int, w: int, den: int, base: int) -> QSeries:
    """The exact series sum_n c_n q^{(base + n)/den}, c_n the balanced
    w-byte digits of x (``_unpack_signed``): a polynomial packed with one
    digit per step of q^{1/den}, its digit 0 at q^{base/den}."""
    return QSeries.from_keys(dict(enumerate(_unpack_signed(x, w), base)), den)


def _dense_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The exact product of two dense rows of nonnegative ints, by Kronecker
    substitution: each row is packed into one int with w-byte digits (its
    coefficients evaluated at 256^w, ``_pack``), the two ints are multiplied
    once, and the product is read back w bytes per coefficient (``_unpack``).
    The result has len(a) + len(b) - 1 entries, zeros kept; an empty row
    gives ().

    The digits never carry: coefficient n of the product is a sum of at most
    min(len a, len b) terms a_i b_{n-i}, each at most max a * max b, so it is
    at most that bound, and w = ``_digit_bytes(bound)`` has 256^w above it.
    A negative entry would borrow from the digit above, so it raises
    ``ValueError``."""
    if not a or not b:
        return ()
    if min(a) < 0 or min(b) < 0:
        raise ValueError("_dense_mul needs rows of nonnegative ints")
    n = len(a) + len(b) - 1
    bound = max(a) * max(b) * min(len(a), len(b))
    if not bound:
        return (0,) * n
    # bound >= max a and max b, so every packed entry fits its digit too.
    w = _digit_bytes(bound)
    return _unpack(_pack(a, w) * _pack(b, w), w, n)


@lru_cache(maxsize=None)
def _gauss_coeffs(n: int, k: int) -> tuple[int, ...]:
    """Dense coefficient row of [n, k]_q for 0 <= k <= n, cached: the one
    Gaussian row under ``q_binomial``, ``abf_finitized`` and the descent.
    Step i leaves [n-k+i, i]_q, so each division by 1 - q^i is exact.
    [n, k] = [n, n - k], and this costs O(k * k(n-k)), so it runs at the
    lesser k; both keys then hold one tuple."""
    m = n - k
    if k > m:
        return _gauss_coeffs(n, m)
    c = [1]
    for i in range(1, k + 1):
        # Multiply by (1 - q^(m+i)): c[j] -= c[j-m-i] for every j at once,
        # reading the old values as a descending in-place pass would.
        s = m + i
        c = c + [0] * s
        c[s:] = map(sub, c[s:], c[:-s])
        _divide_one_minus_q(c, i)
        if any(c[-i:]):
            raise ArithmeticError("division is not exact")
        del c[-i:]
    return tuple(c)


def q_binomial(L: int, a: int) -> QSeries:
    """Gaussian binomial [L, a]_q = (q^{L-a+1})_a / (q)_a, for any integer L
    and a >= 0 (zero for a < 0, and for 0 <= L < a); for L < 0 it is the
    Laurent polynomial (-1)^a q^{aL - a(a-1)/2} [a-L-1, a].  Made on each call
    from the cached row ``_gauss_coeffs``, which the finitized sums add as is."""
    if a < 0 or 0 <= L < a:
        return QSeries.zero(None)
    if L >= 0:
        return _from_dense(0, _gauss_coeffs(L, a))
    row = _gauss_coeffs(a - L - 1, a)
    return _from_dense(a * L - a * (a - 1) // 2, row if a % 2 == 0 else [-c for c in row])


# -- two-row supernomial -----------------------------------------------------


@lru_cache(maxsize=None)
def _supernomial2_int(L1: int, L2: int, twice_a: int, w: int) -> int:
    """The two-row supernomial T(L1, L2; a), a = twice_a/2, evaluated at
    B = 256^w: sum_n c_n B^n over its coefficients c_n.  Built by the descent
    T(L1, L2) = T(L1+2, L2-1) - q^{L1+L2} T(L1, L2-1), one big-int shift and
    subtraction per node, down to the Gaussian rows [L1, L1/2 + a]_q at
    L2 = 0, the cached ``_gauss_coeffs`` packed by ``_pack``.  Evaluation at
    B is a ring map, so every node is its polynomial's value whatever w is.

    Digit width (README, *Packed descent digit width*): by the
    Schilling--Warnaar single sum every node has nonnegative coefficients at
    exponents >= 0, each at most its value at q = 1, which is at most
    2^{L1} 3^{L2} <= 2^{L1 + 2 L2}.  So with 256^w > 2^{L1 + 2 L2} each
    coefficient is one digit, and ``_unpack(x, w)`` reads the row back.
    ``verify exactseq`` reads T(2k1, k2), T(2k1-2, k2+1) and T(2k1-2, k2)
    and adds the last two, so both its sides have coefficients below 2^N,
    N = 2 k1_max + 2 k2_max + 2; it takes the least w with 256^w > 2^N,
    rounded up to 1, 2, 4 or 8 bytes (``_digit_bytes``), and equal ints are
    then equal polynomials.  The descent subtracts nodes with nonnegative
    coefficients, so each node is bounded coefficient by coefficient by its
    leaf [L1 + 2 L2, L1/2 + L2 + a]_q: a digit too narrow for a coefficient
    of the node is too narrow for that leaf, whose packing raises
    ``OverflowError``."""
    if L2 == 0:
        k, r = divmod(L1 + twice_a, 2)  # L1/2 + a
        return _pack(_gauss_coeffs(L1, k), w) if r == 0 and 0 <= k <= L1 else 0
    return (_supernomial2_int(L1 + 2, L2 - 1, twice_a, w)
            - (_supernomial2_int(L1, L2 - 1, twice_a, w) << 8 * w * (L1 + L2)))
