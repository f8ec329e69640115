"""Weighted step paths on the A-type strip and their configuration sums.

The strip has sites 1..p'-1 for coprime integers p < p' < 2p.  Paths move by
steps of -2, 0, +2 with the two corner repeats (1,1) and (p'-1,p'-1)
forbidden.  Each interior triple carries a rational weight built from the
slope t = p'/p and a three-letter site labelling (1A / 1B / 2); the labelled
table is validated against every structural fact it must satisfy before use.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .qcore import QSeries
from .report import CaseResult, check
from .supernomial import S, S_tilde

Path = tuple[int, ...]


@dataclass(frozen=True)
class ModelParams:
    """Coprime pair (p, p') with 3 <= p < p' < 2p, so 1 < p'/p < 2."""

    p: int
    pp: int

    def __post_init__(self) -> None:
        if self.p < 3:
            raise ValueError("need p >= 3")
        if not (self.p < self.pp < 2 * self.p):
            raise ValueError("need p < p' < 2p")
        if math.gcd(self.p, self.pp) != 1:
            raise ValueError("p and p' must be coprime")

    @property
    def t(self) -> Fraction:
        return Fraction(self.pp, self.p)


def delta(params: ModelParams, r: int, s: int) -> Fraction:
    """Conformal weight ((r t - s)^2 - (t - 1)^2) / (4 t), computed as
    ((r p' - s p)^2 - (p' - p)^2) / (4 p p')."""
    p, pp = params.p, params.pp
    return Fraction((r * pp - s * p) ** 2 - (pp - p) ** 2, 4 * p * pp)


def tau(params: ModelParams, b: int) -> int:
    """floor((b+1)/t) - floor((b-1)/t); always 1 or 2 on the strip."""
    p, pp = params.p, params.pp
    val = (b + 1) * p // pp - (b - 1) * p // pp
    if val not in (1, 2):
        raise ValueError(f"tau({b}) = {val} out of range for {params}")
    return val


Triple = tuple[int, int, int]


@dataclass(frozen=True)
class TauTable:
    """Site data for one model: tau values and 1A/1B/2 labels, index 1..p'-1,
    and the weight of every admissible triple in units of 1/p'."""

    params: ModelParams
    taus: tuple[int, ...]      # taus[s], index 0 unused
    labels: tuple[str, ...]    # labels[s], index 0 unused
    weights: dict[Triple, int] = field(compare=False, repr=False)

    def tau_of(self, s: int) -> int:
        if not 1 <= s <= self.params.pp - 1:
            raise ValueError(f"site {s} off the strip")
        return self.taus[s]

    def label(self, s: int) -> str:
        if not 1 <= s <= self.params.pp - 1:
            raise ValueError(f"site {s} off the strip")
        return self.labels[s]


def _build_labels(params: ModelParams, taus: list[int]) -> list[str]:
    pp, t = params.pp, params.t
    labels = ["?"] * pp
    if t <= Fraction(5, 3):
        # Low-slope regime: the strip midpoint separates the two letters.
        for s in range(1, pp):
            if taus[s] == 2:
                labels[s] = "2"
            else:
                labels[s] = "1A" if 2 * s < pp else "1B"
        if t > Fraction(3, 2):
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
    pp, t = params.pp, params.t

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
    if t > Fraction(3, 2):
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
    if t > Fraction(5, 3):
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
    """p' * w(a, b, c) for every admissible triple, by the rules of ``weight``
    in integers: with t = p'/p, 2/t = 2p/p' and frac(n/t) = (n p mod p')/p'."""
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
        nbrs = [s for s in (b - 2, b, b + 2) if _edge_ok(params, b, s)]
        for a in nbrs:
            for c in nbrs:
                out[(a, b, c)] = rule[(a - b, c - b)]
    return out


def make_tau_table(params: ModelParams) -> TauTable:
    """Construct and fully revalidate the site table, then weigh every
    admissible triple once; hard-fails on any defect."""
    pp = params.pp
    taus = [0] + [tau(params, s) for s in range(1, pp)]
    labels = _build_labels(params, taus)
    _validate_table(params, taus, labels)
    return TauTable(params, tuple(taus), tuple(labels), _weights(params, taus, labels))


def _edge_ok(params: ModelParams, s: int, s2: int) -> bool:
    if not (1 <= s2 <= params.pp - 1) or s2 - s not in (-2, 0, 2):
        return False
    if s == s2 == 1 or s == s2 == params.pp - 1:
        return False
    return True


def weight(a: int, b: int, c: int, table: TauTable) -> Fraction:
    """Weight of the admissible triple (a, b, c), read from the table;
    raises on invalid triples.

    With t = p'/p and the site letters x(1A, 1B, 2) = (2, 3, 2),
    y(1A, 1B, 2) = (3, 2, 4), the weight by the steps (a - b, c - b) is
      (2, -2), (-2, 2):  2/t
      (-2, 0), (0, -2):  2 - frac((b-1)/t)
      (0, 2), (2, 0):    1 + frac((b+1)/t)
      (0, 0):            3 - tau(b)
      (-2, -2):          -2 frac((b-1)/t) + x(b-2)
      (2, 2):            2 frac((b+3)/t) - 4/t + y(b+2)
    """
    w = table.weights.get((a, b, c))
    if w is not None:
        return Fraction(w, table.params.pp)
    for s in (a, b, c):
        if not 1 <= s <= table.params.pp - 1:
            raise ValueError(f"site {s} off the strip")
    raise ValueError(f"triple ({a},{b},{c}) is not admissible")


def b_of(r: int, a: int, params: ModelParams) -> int:
    """Endpoint of the same parity as a minimizing the conformal weight.

    Raises on a tie (which the arithmetic of coprime (p, p') rules out, but
    the guard keeps the contract explicit).
    """
    if not 1 <= r <= params.p - 1:
        raise ValueError("r out of range")
    if not 1 <= a <= params.pp - 1:
        raise ValueError("a out of range")
    p, pp = params.p, params.pp
    # delta(r, b) grows with |r p' - b p|; candidates share the parity of a.
    dist = {b: abs(r * pp - b * p) for b in range(2 - a % 2, pp, 2)}
    best = min(dist.values())
    winners = [b for b, d in dist.items() if d == best]
    if len(winners) != 1:
        raise ValueError(f"tie among minimizing endpoints {winners}")
    return winners[0]


def _check_path_ends(a: int, b: int, m: int, params: ModelParams) -> None:
    if m < 0:
        raise ValueError("m must be >= 0")
    for s in (a, b):
        if not 1 <= s <= params.pp - 1:
            raise ValueError(f"site {s} off the strip")


def enumerate_paths(a: int, b: int, m: int, params: ModelParams) -> list[Path]:
    """All admissible paths (s_0, ..., s_m) with s_0 = a and s_m = b,
    in lexicographic order."""
    _check_path_ends(a, b, m, params)
    out: list[Path] = []
    # Successors of each site in descending order, so that they pop from the
    # stack in ascending order.
    succ = {s: [s2 for s2 in (s + 2, s, s - 2) if _edge_ok(params, s, s2)]
            for s in range(1, params.pp)}
    # Depth-first on an explicit stack of (position, site), so long paths
    # need no recursion; ``prefix`` holds the sites before the popped one.
    # A site goes on the stack only if b is still within reach of it, two
    # sites per remaining step, which drops no path and keeps the order.
    prefix: list[int] = []
    stack = [(0, a)]
    while stack:
        i, s = stack.pop()
        del prefix[i:]
        prefix.append(s)
        if i == m:
            if s == b:
                out.append(tuple(prefix))
            continue
        reach = 2 * (m - i - 1)
        for s2 in succ[s]:
            if abs(s2 - b) <= reach:
                stack.append((i + 1, s2))
    return out


def count_paths(a: int, b: int, m: int, params: ModelParams) -> int:
    """Transfer-matrix path count; independent of the recursive enumeration."""
    _check_path_ends(a, b, m, params)
    pp = params.pp
    vec = [0] * pp
    vec[a] = 1
    for _ in range(m):
        nxt = [0] * pp
        for s in range(1, pp):
            if vec[s]:
                for s2 in (s - 2, s, s + 2):
                    if _edge_ok(params, s, s2):
                        nxt[s2] += vec[s]
        vec = nxt
    return vec[b]


def energy_units(path: Path, table: TauTable) -> int:
    """p' times the energy of the path: sum_i i * p' w(s_{i-1}, s_i, s_{i+1})
    over interior positions, in ints from the weight table."""
    w = table.weights
    total = 0
    for i in range(1, len(path) - 1):
        wi = w.get((path[i - 1], path[i], path[i + 1]))
        if wi is None:
            weight(path[i - 1], path[i], path[i + 1], table)  # raises the reason
        total += i * wi
    return total


def energy(path: Path, table: TauTable) -> Fraction:
    """sum_i i * w(s_{i-1}, s_i, s_{i+1}) over interior positions of the path."""
    return Fraction(energy_units(path, table), table.params.pp)


def energy_gf(paths: Iterable[Path], table: TauTable,
              ends: Optional[Mapping[int, int]] = None) -> QSeries:
    """Exact generating sum over ``paths`` of q^{E + ends[d] / (4pp')}, with
    E = energy(path) and d the next-to-last site; a path without steps, or
    no ``ends``, adds no end term.  4pp' is a common denominator of every
    weight and conformal weight of the model.

    Each path costs one int exponent; the exponents are counted in a dict
    and the series is built once from the distinct ones.
    """
    pp = table.params.pp
    if ends is None:
        return QSeries.from_keys(Counter(energy_units(path, table) for path in paths), pp)
    k = 4 * table.params.p  # 4pp' E = 4p energy_units
    return QSeries.from_keys(Counter(k * energy_units(path, table)
                                     + (ends[path[-2]] if len(path) > 1 else 0)
                                     for path in paths), k * pp)


def _x_valid(params: ModelParams, a: int, b: int, c: int) -> bool:
    pp = params.pp
    if not (1 <= a <= pp - 1 and 1 <= b <= pp - 1 and 1 <= c <= pp - 1):
        return False
    if (a - b) % 2 != 0:
        return False
    return _edge_ok(params, b, c)


_X_CACHE: dict[tuple, QSeries] = {}


def config_sum_X(a: int, b: int, c: int, m: int, table: TauTable) -> QSeries:
    """Energy generating sum over paths (s_0..s_{m+1}) with s_0 = a, s_m = b,
    s_{m+1} = c.  Computed by the endpoint recurrence; zero off the domain."""
    if m < 0:
        raise ValueError("m must be >= 0")
    params = table.params
    if not _x_valid(params, a, b, c):
        return QSeries.zero(None)
    key = (params.p, params.pp, a, b, c, m)
    hit = _X_CACHE.get(key)
    if hit is not None:
        return hit
    if m == 0:
        out = QSeries.one(None) if a == b else QSeries.zero(None)
    else:
        out = QSeries.sum(
            part.shift(m * weight(d, b, c, table))
            for d in (b - 2, b, b + 2)
            if _x_valid(params, a, d, b)
            and not (part := config_sum_X(a, d, b, m - 1, table)).is_zero())
    _X_CACHE[key] = out
    return out


def brute_config_sum_X(a: int, b: int, c: int, m: int, table: TauTable) -> QSeries:
    """Direct enumeration oracle for config_sum_X."""
    params = table.params
    if not _x_valid(params, a, b, c):
        return QSeries.zero(None)
    return energy_gf((path + (c,) for path in enumerate_paths(a, b, m, params)), table)


# -- closed-form side of the configuration sum -------------------------------


def f_function(a: int, b: int, c: int, m: int, table: TauTable) -> QSeries:
    """Single supernomial summand f_{a,b,c,m}; a may be any integer of the
    parity of b, while b and c must lie on the strip with c in {b, b+-2}.

    With l = (b - a)/2 and t = p'/p the exponent is m^2 - l^2 plus
      c = b + 2:  l(l+1)/t + (m-l) frac((b+1)/t)
      c = b:      l(l-1)/t + l (1 - frac((b-1)/t))
      c = b - 2:  l(l-1)/t + (m+l) (1 - frac((b-1)/t)),
    summed in units of 1/p' as in ``_weights``.
    """
    params = table.params
    p, pp = params.p, params.pp
    if not 1 <= b <= pp - 1:
        raise ValueError("b off the strip")
    if m < 0:
        raise ValueError("m must be >= 0")
    if not 1 <= c <= pp - 1 or c - b not in (-2, 0, 2):
        return QSeries.zero(None)
    if (a - b) % 2 != 0:
        return QSeries.zero(None)
    l = (b - a) // 2
    gap = pp - (b - 1) * p % pp    # p' (1 - frac((b-1)/t))
    exp = (m * m - l * l) * pp
    if c == b + 2:
        exp += l * (l + 1) * p + (m - l) * ((b + 1) * p % pp)
        fac = S_tilde(m, l) if table.label(c) == "1A" else S(m, l)
    elif c == b:
        exp += l * (l - 1) * p + l * gap
        if table.label(b) in ("1A", "1B"):
            fac = S(m, l).shift(m)
        else:
            fac = S_tilde(m, l).shift(l)
    else:  # c == b - 2
        exp += l * (l - 1) * p + (m + l) * gap
        if table.label(c) in ("1A", "2"):
            fac = S(m, l)
        else:
            fac = S_tilde(m, l).shift(l)
    return fac.shift(Fraction(exp, pp))


def f_sum(a: int, b: int, c: int, m: int, table: TauTable) -> QSeries:
    """Alternating sum over the reflection orbit of a:
    sum_{eps=+-1} eps * sum_n f_{eps(a + 2 p' n), b, c, m}."""
    pp = table.params.pp
    # Only arguments within 2m of b contribute: a + 2 p' n in eps b +- 2m.
    return QSeries.sum(eps * f_function(eps * (a + 2 * pp * n), b, c, m, table)
                       for eps in (1, -1)
                       for n in range(-((a - eps * b + 2 * m) // (2 * pp)),
                                      (eps * b + 2 * m - a) // (2 * pp) + 1))


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
