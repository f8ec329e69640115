"""Weighted step paths on the A-type strip and their configuration sums.

The strip has sites 1..p'-1 for coprime integers p < p' < 2p.  Paths move by
steps of -2, 0, +2 with the two corner repeats (1,1) and (p'-1,p'-1)
forbidden.  Each interior triple carries a weight, an integer in units of
1/p', built from the slope t = p'/p and a three-letter site labelling
(1A / 1B / 2); the labelled table is validated against every structural fact
it must satisfy before use.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Optional

from .qcore import QSeries, lattice_range
from .report import CaseResult, check
from .supernomial import S, S_tilde

Path = tuple[int, ...]


# A NamedTuple body cannot override __new__, so ModelParams validates in a
# subclass of this bare pair.
class _Pair(NamedTuple):
    p: int
    pp: int


class ModelParams(_Pair):
    """Coprime pair (p, p') with 3 <= p < p' < 2p, so 1 < p'/p < 2."""

    __slots__ = ()

    def __new__(cls, p: int, pp: int) -> ModelParams:
        if p < 3:
            raise ValueError("need p >= 3")
        if not (p < pp < 2 * p):
            raise ValueError("need p < p' < 2p")
        if math.gcd(p, pp) != 1:
            raise ValueError("p and p' must be coprime")
        return super().__new__(cls, p, pp)


def delta_key(params: ModelParams, r: int, s: int) -> int:
    """4pp' delta(r, s) = (r p' - s p)^2 - (p' - p)^2, the conformal weight
    as an int key over 4pp'; it rises with |r p' - s p|."""
    p, pp = params
    return (r * pp - s * p) ** 2 - (pp - p) ** 2


def delta(params: ModelParams, r: int, s: int) -> Fraction:
    """Conformal weight ((r t - s)^2 - (t - 1)^2) / (4 t), t = p'/p:
    ``delta_key`` over 4pp'."""
    return Fraction(delta_key(params, r, s), 4 * params.p * params.pp)


def tau(params: ModelParams, b: int) -> int:
    """floor((b+1)/t) - floor((b-1)/t); always 1 or 2 on the strip."""
    p, pp = params.p, params.pp
    val = (b + 1) * p // pp - (b - 1) * p // pp
    if val not in (1, 2):
        raise ValueError(f"tau({b}) = {val} out of range for {params}")
    return val


Triple = tuple[int, int, int]


class TauTable(NamedTuple):
    """Site data for one model: tau values and 1A/1B/2 labels, index 1..p'-1,
    and the weight of every admissible triple in units of 1/p'."""

    params: ModelParams
    taus: tuple[int, ...]      # taus[s], index 0 unused
    labels: tuple[str, ...]    # labels[s], index 0 unused
    weights: dict[Triple, int]

    def label(self, s: int) -> str:
        if not 1 <= s <= self.params.pp - 1:
            raise ValueError(f"site {s} off the strip")
        return self.labels[s]


def _build_labels(params: ModelParams, taus: list[int]) -> list[str]:
    p, pp = params
    labels = ["?"] * pp
    if 3 * pp <= 5 * p:  # t <= 5/3
        # Low-slope regime: the strip midpoint separates the two letters.
        for s in range(1, pp):
            if taus[s] == 2:
                labels[s] = "2"
            else:
                labels[s] = "1A" if 2 * s < pp else "1B"
        if 2 * pp > 3 * p:  # t > 3/2
            # Here tau(2) = tau(p'-2) = 1 and both letters are pinned: the
            # two-step weight constraint forces 1B at site 2, and the strip
            # reflection forces its mirror to 1A.
            labels[2] = "1B"
            labels[pp - 2] = "1A"
    else:
        # High-slope regime: letters alternate inside each run of tau=1,
        # restarting at 1B after every tau=2 site.
        nxt = "1A"
        for s in range(1, pp):
            if taus[s] == 2:
                labels[s] = "2"
                nxt = "1B"
            else:
                labels[s] = nxt
                nxt = "1B" if nxt == "1A" else "1A"
    return labels


def _validate_table(params: ModelParams, taus: list[int], labels: list[str]) -> None:
    p, pp = params

    def fail(msg: str) -> None:
        raise ValueError(f"tau table invalid for (p,p')=({params.p},{params.pp}): {msg}")

    for s in range(1, pp):
        if taus[s] not in (1, 2):
            fail(f"tau({s}) = {taus[s]}")
        if (taus[s] == 2) != (labels[s] == "2"):
            fail(f"label({s}) = {labels[s]} inconsistent with tau = {taus[s]}")
    if taus[1] != 1 or labels[1] != "1A":
        fail("site 1 must be 1A")
    if taus[pp - 1] != 2:
        fail("site p'-1 must have tau = 2")
    for s in range(2, pp - 1):
        if taus[s] != taus[pp - s]:
            fail(f"tau({s}) != tau({pp - s})")
    if pp % 2 == 0 and taus[pp // 2] != 2:
        fail("even p' needs tau(p'/2) = 2")
    if 2 * pp > 3 * p:  # t > 3/2
        if pp >= 3 and labels[2] != "1B":
            fail("site 2 must be 1B when t > 3/2")
        for s in range(1, pp - 1):
            if taus[s] == 2 and taus[s + 1] == 2:
                fail(f"adjacent tau=2 at {s},{s + 1} with t > 3/2")
    elif pp >= 3 and taus[2] != 2:
        fail("site 2 must have tau = 2 when t < 3/2")
    # Reflection exchanges the letters on interior tau=1 sites.
    for s in range(2, pp - 1):
        if taus[s] == 1:
            a, b = labels[s], labels[pp - s]
            if (a == "1A") != (b == "1B"):
                fail(f"labels at {s}/{pp - s} break the reflection rule")
    # A 1B site is never followed two later by 1A.
    for s in range(1, pp - 3):
        if labels[s] == "1B" and labels[s + 2] == "1A":
            fail(f"1B at {s} followed by 1A at {s + 2}")
    if 3 * pp > 5 * p:  # t > 5/3
        # Runs of tau=1: the first has odd length, later ones even length;
        # letters alternate, every run ends in 1A.
        runs: list[tuple[int, int]] = []
        s = 1
        while s < pp:
            if taus[s] == 1:
                start = s
                while s < pp and taus[s] == 1:
                    s += 1
                runs.append((start, s - 1))
            else:
                s += 1
        for idx, (lo, hi) in enumerate(runs):
            length = hi - lo + 1
            first = "1A" if idx == 0 else "1B"
            if idx == 0 and length % 2 == 0:
                fail("first tau=1 run has even length")
            if idx > 0 and length % 2 == 1:
                fail(f"tau=1 run at {lo}..{hi} has odd length")
            want = first
            for x in range(lo, hi + 1):
                if labels[x] != want:
                    fail(f"label({x}) = {labels[x]}, expected {want}")
                want = "1B" if want == "1A" else "1A"
            if labels[hi] != "1A":
                fail(f"tau=1 run at {lo}..{hi} does not end in 1A")


def _weights(params: ModelParams, taus: list[int], labels: list[str]) -> dict[Triple, int]:
    """p' * w(a, b, c) for every admissible triple (a, b, c).

    With t = p'/p and the site letters x(1A, 1B, 2) = (2, 3, 2),
    y(1A, 1B, 2) = (3, 2, 4), the weight by the steps (a - b, c - b) is
      (2, -2), (-2, 2):  2/t
      (-2, 0), (0, -2):  2 - frac((b-1)/t)
      (0, 2), (2, 0):    1 + frac((b+1)/t)
      (0, 0):            3 - tau(b)
      (-2, -2):          -2 frac((b-1)/t) + x(b-2)
      (2, 2):            2 frac((b+3)/t) - 4/t + y(b+2)
    summed in integers: 2/t = 2p/p' and frac(n/t) = (n p mod p')/p'.  It
    cannot raise on sites ``site_data`` validated: every step pair of
    ``_successors`` has a rule (no rest is on a wall; (-2, -2) needs b > 2,
    (2, 2) needs b < p'-2), and the reflection check leaves every label one
    of the three letters."""
    p, pp = params.p, params.pp
    x_of = {"1A": 2, "1B": 3, "2": 2}
    y_of = {"1A": 3, "1B": 2, "2": 4}
    out: dict[Triple, int] = {}
    for b in range(1, pp):
        lo = (b - 1) * p % pp    # p' frac((b-1)/t)
        hi = (b + 1) * p % pp    # p' frac((b+1)/t)
        # Keyed by the steps (a - b, c - b); the edge rule is symmetric.
        rule = {(2, -2): 2 * p, (-2, 2): 2 * p,
                (-2, 0): 2 * pp - lo, (0, -2): 2 * pp - lo,
                (0, 2): pp + hi, (2, 0): pp + hi,
                (0, 0): (3 - taus[b]) * pp}
        if b > 2:
            rule[(-2, -2)] = -2 * lo + x_of[labels[b - 2]] * pp
        if b < pp - 2:
            rule[(2, 2)] = 2 * ((b + 3) * p % pp) - 4 * p + y_of[labels[b + 2]] * pp
        nbrs = _successors(pp)[b]
        for a in nbrs:
            for c in nbrs:
                out[(a, b, c)] = rule[(a - b, c - b)]
    return out


def site_data(params: ModelParams) -> tuple[list[int], list[str]]:
    """The taus and labels of the sites 1..p'-1 (index 0 unused), checked
    against every structural fact of the labelling; no triple is weighed."""
    taus = [0] + [tau(params, s) for s in range(1, params.pp)]
    labels = _build_labels(params, taus)
    _validate_table(params, taus, labels)
    return taus, labels


@functools.lru_cache(maxsize=None)
def make_tau_table(params: ModelParams) -> TauTable:
    """``site_data`` with every admissible triple weighed once; hard-fails.
    Cached: one table per model."""
    taus, labels = site_data(params)
    return TauTable(params, tuple(taus), tuple(labels), _weights(params, taus, labels))


@functools.lru_cache(maxsize=None)
def _successors(pp: int) -> tuple[tuple[int, ...], ...]:
    """The sites one step from each site s of the strip 1..p'-1, ascending,
    at index s (index 0 is empty): s - 2, s, s + 2 where on the strip, less
    the rests (1, 1) and (p'-1, p'-1) on the walls."""
    return tuple(tuple(s2 for s2 in (s - 2, s, s + 2)
                       if 1 <= s2 <= pp - 1 and not s == s2 in (1, pp - 1))
                 for s in range(pp))


def b_of(r: int, a: int, params: ModelParams) -> int:
    """Endpoint of the same parity as a minimizing the conformal weight.

    Raises on a tie (which the arithmetic of coprime (p, p') rules out, but
    the guard keeps the contract explicit).
    """
    if not 1 <= r <= params.p - 1:
        raise ValueError("r out of range")
    if not 1 <= a <= params.pp - 1:
        raise ValueError("a out of range")
    key = {b: delta_key(params, r, b) for b in range(2 - a % 2, params.pp, 2)}
    best = min(key.values())
    winners = [b for b, k in key.items() if k == best]
    if len(winners) != 1:
        raise ValueError(f"tie among minimizing endpoints {winners}")
    return winners[0]


def _check_path_ends(a: int, b: int, m: int, params: ModelParams) -> None:
    if m < 0:
        raise ValueError("m must be >= 0")
    for s in (a, b):
        if not 1 <= s <= params.pp - 1:
            raise ValueError(f"site {s} off the strip")


def _walk(a: int, b: int, m: int, pp: int,
          weights: Optional[Mapping[Triple, int]] = None,
          prefix: Optional[list[int]] = None,
          below: Optional[int] = None) -> Iterator[tuple[int, int, int]]:
    """The one path enumerator: every admissible path (s_0, ..., s_n) from a
    to b of each length 1 <= n <= m, in one depth-first pass; yields (n,
    s_{n-1}, sum_i i * weights[s_{i-1}, s_i, s_{i+1}]) per path (0 without
    weights), while a ``prefix`` list holds s_0..s_{n-1}.  Paths of one
    length come in lexicographic order, and a path comes before its
    extensions.  The stack holds (depth, previous site, site, running sum),
    so a step costs one weight lookup and no path is built: the node s_i
    yields the (i+1)-step path when b follows it, and b itself is never
    pushed.  An int ``below`` drops each popped prefix whose running sum is
    not below it, which skips only such paths if no weight is negative.

    Reach: the node s_i pushes a child s_2 (depth i + 1) only if |s_2 - b|
    <= 2(m - 1 - i), and that drops no path.  A path through s_2 that ends
    at b after n <= m steps has its next-to-last site s_{n-1} at depth n - 1
    >= i + 1, a successor of b, and each of the n - 2 - i steps between
    them moves by at most 2, so |s_2 - b| <= 2(n - 2 - i) + 2 = 2(n - 1 - i)
    <= 2(m - 1 - i).  The bound of n = m is the loosest over all lengths n
    <= m, so a walk to depth m visits the nodes of one yielding m-step paths
    only, and none more.
    """
    succ = _successors(pp)
    last = m - 1
    stack = [(0, 0, a, 0)] if m > 0 else []
    while stack:
        i, prev, s, acc = stack.pop()
        if below is not None and acc >= below:
            continue
        if prefix is not None:
            del prefix[i:]
            prefix.append(s)
        if b in succ[s]:
            yield i + 1, s, acc + i * weights[prev, s, b] if i and weights else acc
        if i < last:
            reach = 2 * (last - i)  # b must lie within two sites per step left
            # Pushed in descending order, so they pop in ascending order.
            for s2 in reversed(succ[s]):
                if abs(s2 - b) <= reach:
                    stack.append((i + 1, s, s2,
                                  acc + i * weights[prev, s, s2] if i and weights else acc))


def enumerate_paths(a: int, b: int, m: int, params: ModelParams) -> list[Path]:
    """All admissible paths (s_0, ..., s_m) with s_0 = a and s_m = b, in
    lexicographic order: the m-step ones of ``_walk``, read off its prefix,
    unweighed."""
    _check_path_ends(a, b, m, params)
    prefix = [a]
    return ([(a,)] if m == 0 and a == b else
            [(*prefix, b) for n, _, _ in _walk(a, b, m, params.pp, prefix=prefix) if n == m])


def count_paths(a: int, b: int, m: int, params: ModelParams) -> int:
    """Transfer-matrix path count over the same successor table as
    ``enumerate_paths``."""
    _check_path_ends(a, b, m, params)
    pp = params.pp
    succ = _successors(pp)
    vec = [0] * pp
    vec[a] = 1
    for _ in range(m):
        nxt = [0] * pp
        for s in range(1, pp):
            if vec[s]:
                for s2 in succ[s]:
                    nxt[s2] += vec[s]
        vec = nxt
    return vec[b]


def path_gf(a: int, b: int, m: int, table: TauTable,
            ends: Optional[Mapping[int, int]] = None) -> QSeries:
    """Exact sum over the paths (s_0, ..., s_m) from a to b of q^{E +
    ends[s_{m-1}] / (4pp')}, E the energy (no end term without ``ends`` or a
    step); each m-step path of ``_walk`` adds one int key over 4pp', and the
    shorter ones it yields on the way are passed over."""
    _check_path_ends(a, b, m, table.params)
    p, pp = table.params
    keys = {0: 1} if m == 0 and a == b else {}
    ends = ends or dict.fromkeys(_successors(pp)[b], 0)
    for n, d, e in _walk(a, b, m, pp, table.weights):  # nothing at m = 0
        if n == m:
            e = 4 * p * e + ends[d]
            keys[e] = keys.get(e, 0) + 1
    return QSeries.from_keys(keys, 4 * p * pp)


def _x_valid(params: ModelParams, a: int, b: int, c: int) -> bool:
    pp = params.pp
    return (1 <= a <= pp - 1 and 1 <= b <= pp - 1 and (a - b) % 2 == 0
            and c in _successors(pp)[b])


def config_sum_X(a: int, b: int, c: int, m: int, table: TauTable) -> QSeries:
    """Energy generating sum over paths (s_0..s_{m+1}) with s_0 = a, s_m = b,
    s_{m+1} = c.  Computed by the endpoint recurrence; zero off the domain."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if not _x_valid(table.params, a, b, c):
        return QSeries.zero(None)
    return _config_sum(table.params, a, b, c, m)


@functools.lru_cache(maxsize=None)
def _config_sum(params: ModelParams, a: int, b: int, c: int, m: int) -> QSeries:
    """``config_sum_X`` on its domain, by the last step d -> b -> c; cached
    per model, as every (a, d, b) it reads is on the domain too."""
    if m == 0:
        return QSeries.one(None) if a == b else QSeries.zero(None)
    weights = make_tau_table(params).weights
    return QSeries.sum_shifted(
        ((1, _config_sum(params, a, d, b, m - 1), m * weights[d, b, c])
         for d in _successors(params.pp)[b]), params.pp)


def brute_config_sum_X(a: int, b: int, c: int, m: int, table: TauTable) -> QSeries:
    """Direct enumeration oracle for config_sum_X; c enters as m w(s_{m-1}, b, c)."""
    params = table.params
    if not _x_valid(params, a, b, c):
        return QSeries.zero(None)
    return path_gf(a, b, m, table, {d: 4 * params.p * m * table.weights[d, b, c]
                                    for d in _successors(params.pp)[b]})


# -- closed-form side of the configuration sum -------------------------------


def _f_term(a: int, b: int, c: int, m: int,
            table: TauTable) -> Optional[tuple[QSeries, int]]:
    """The summand f_{a,b,c,m} as (S_{m,l} or S~_{m,l}, exponent in units of
    1/p') with l = (b - a)/2, or None where it is zero; a may be any integer,
    while b and c must lie on the strip with c in {b, b+-2}.

    With t = p'/p the exponent is m^2 - l^2 plus
      c = b + 2:  l(l+1)/t + (m-l) frac((b+1)/t)
      c = b:      l(l-1)/t + l (1 - frac((b-1)/t)), and m on S or l on S~
      c = b - 2:  l(l-1)/t + (m+l) (1 - frac((b-1)/t)), and l on S~,
    summed in integers as in ``_weights``.
    """
    p, pp = table.params
    if not 1 <= b <= pp - 1 or m < 0:
        raise ValueError("need b on the strip and m >= 0")
    if not 1 <= c <= pp - 1 or c - b not in (-2, 0, 2) or (a - b) % 2 != 0:
        return None
    l = (b - a) // 2
    gap = pp - (b - 1) * p % pp    # p' (1 - frac((b-1)/t))
    exp = (m * m - l * l) * pp
    if c == b + 2:
        exp += l * (l + 1) * p + (m - l) * ((b + 1) * p % pp)
        return S_tilde(m, l) if table.label(c) == "1A" else S(m, l), exp
    if c == b:
        exp += l * (l - 1) * p + l * gap
        return ((S(m, l), exp + m * pp) if table.label(b) in ("1A", "1B")
                else (S_tilde(m, l), exp + l * pp))
    exp += l * (l - 1) * p + (m + l) * gap  # c == b - 2
    return ((S(m, l), exp) if table.label(c) in ("1A", "2")
            else (S_tilde(m, l), exp + l * pp))


def f_sum(a: int, b: int, c: int, m: int, table: TauTable) -> QSeries:
    """Alternating sum over the reflection orbit of a:
    sum_{eps=+-1} eps * sum_n f_{eps(a + 2 p' n), b, c, m}.  The n window is
    exact: the summand at a' = eps(a + 2p'n) carries S_{m,l} or S~_{m,l},
    l = (b - a')/2, both zero for |l| > m ([nu, m-l-nu] is, for every nu),
    so it counts just when eps b - 2m <= a + 2p'n <= eps b + 2m."""
    pp = table.params.pp
    return QSeries.sum_shifted(
        ((eps, *term) for eps in (1, -1)
         for n in lattice_range(eps * b - 2 * m - a, eps * b + 2 * m - a, 2 * pp)
         if (term := _f_term(eps * (a + 2 * pp * n), b, c, m, table)) is not None), pp)


def x_configs(params: ModelParams) -> list[tuple[int, int, int]]:
    """All (a, b, c) on which the configuration sum is defined and not
    trivially zero by parity or adjacency, in sorted order."""
    sites = range(1, params.pp)
    return [(a, b, c) for a in sites for b in sites for c in (b - 2, b, b + 2)
            if _x_valid(params, a, b, c)]


def verify_Xandf(table: TauTable, m_max: int) -> list[CaseResult]:
    """Exact equality of the path recurrence and the supernomial f-sum."""
    p, pp = table.params.p, table.params.pp
    return [check(f"xandf p={p} p'={pp} a={a} b={b} c={c} m={m}",
                  config_sum_X(a, b, c, m, table), f_sum(a, b, c, m, table))
            for a, b, c in x_configs(table.params) for m in range(m_max + 1)]


def verify_tau(pp_max: int) -> list[CaseResult]:
    """One case per coprime strip 3 <= p < p' < 2p with p' <= pp_max:
    ``site_data`` checks its labelling; nothing is weighed."""
    out = []
    for pp in range(4, pp_max + 1):
        for p in range(3, pp):
            if not (p < pp < 2 * p) or math.gcd(p, pp) != 1:
                continue
            try:
                site_data(ModelParams(p, pp))
                out.append(CaseResult(f"tau p={p} p'={pp}", True, "valid"))
            except ValueError as exc:
                out.append(CaseResult(f"tau p={p} p'={pp}", False, str(exc)))
    return out
