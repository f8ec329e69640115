"""Strip geometry: site tables, weight function, paths, configuration sums."""

import math
from fractions import Fraction
from itertools import accumulate, product

import pytest

from qlab.pathweights import (
    ModelParams, TauTable, b_of, brute_config_sum_X, config_sum_X,
    count_paths, delta, enumerate_paths, energy, make_tau_table, tau,
    verify_Xandf, weight, x_configs,
)

F = Fraction

MODELS = [(3, 4), (4, 5), (5, 7), (4, 7), (5, 8)]
TABLES = {m: make_tau_table(ModelParams(*m)) for m in MODELS}


class TestModelParams:
    def test_accepts_valid_strip(self):
        params = ModelParams(5, 7)
        assert params.t == F(7, 5)

    @pytest.mark.parametrize("p,pp", [(3, 3), (3, 6), (4, 6), (3, 7), (2, 3), (5, 4)])
    def test_rejects_bad_strip(self, p, pp):
        with pytest.raises(ValueError):
            ModelParams(p, pp)


class TestDelta:
    def test_known_dimensions(self):
        ising = ModelParams(3, 4)
        assert delta(ising, 1, 1) == 0
        assert delta(ising, 1, 2) == F(1, 16)
        assert delta(ising, 2, 1) == F(1, 2)

    def test_kac_reflection(self):
        for p, pp in MODELS:
            params = ModelParams(p, pp)
            for r in range(1, p):
                for s in range(1, pp):
                    assert delta(params, r, s) == delta(params, p - r, pp - s)


class TestTauTable:
    def test_known_sequences(self):
        want = {
            (3, 4): ["1A", "2", "2"],
            (4, 5): ["1A", "2", "2", "2"],
            (5, 7): ["1A", "2", "1A", "1B", "2", "2"],
            (4, 7): ["1A", "1B", "1A", "1B", "1A", "2"],
            (5, 8): ["1A", "1B", "1A", "2", "1B", "1A", "2"],
        }
        for m, labels in want.items():
            table = TABLES[m]
            assert [table.label(b) for b in range(1, m[1])] == labels, m

    def test_tau_values_match_floor_formula(self):
        for (p, pp), table in TABLES.items():
            params = ModelParams(p, pp)
            t = params.t
            for b in range(1, pp):
                floors = math.floor((b + 1) / t) - math.floor((b - 1) / t)
                assert table.tau_of(b) == floors == tau(params, b)

    def test_sweep_validates(self):
        # every admissible strip up to width 24 builds without complaint
        n = 0
        for pp in range(4, 25):
            for p in range(3, pp):
                if p < pp < 2 * p and math.gcd(p, pp) == 1:
                    table = make_tau_table(ModelParams(p, pp))
                    assert isinstance(table, TauTable)
                    n += 1
        assert n > 50


class TestWeight:
    def test_hand_values(self):
        t34, t45 = TABLES[(3, 4)], TABLES[(4, 5)]
        assert weight(1, 3, 1, t34) == 1
        assert weight(3, 1, 3, t34) == 1
        assert weight(3, 3, 3, t45) == 1
        # stay-stay weight is 3 - tau(s)
        assert weight(2, 2, 2, t45) == 1
        assert weight(2, 2, 2, TABLES[(4, 7)]) == 2

    def _valid_triples(self, table):
        pp = table.params.pp
        for b in range(1, pp):
            for a in (b - 2, b, b + 2):
                for c in (b - 2, b, b + 2):
                    if not (1 <= a <= pp - 1 and 1 <= c <= pp - 1):
                        continue
                    if (a, b) in ((1, 1), (pp - 1, pp - 1)):
                        continue
                    if (b, c) in ((1, 1), (pp - 1, pp - 1)):
                        continue
                    yield a, b, c

    def test_reflection_and_reversal(self):
        for table in TABLES.values():
            pp = table.params.pp
            for a, b, c in self._valid_triples(table):
                w = weight(a, b, c, table)
                assert w == weight(pp - a, pp - b, pp - c, table), (pp, a, b, c)
                assert w == weight(c, b, a, table), (pp, a, b, c)

    def test_integrality_against_conformal_weights(self):
        # w(a,b,c) - (d(a) - 2 d(b) + d(c)) must be an integer for every r
        for table in TABLES.values():
            params = table.params
            for a, b, c in self._valid_triples(table):
                w = weight(a, b, c, table)
                for r in range(1, params.p):
                    v = w - (delta(params, r, a) - 2 * delta(params, r, b)
                             + delta(params, r, c))
                    assert v.denominator == 1, (params.pp, r, a, b, c)

    def test_rejects_forbidden_step(self):
        with pytest.raises(ValueError):
            weight(1, 1, 3, TABLES[(3, 4)])


def _strips(pp_max: int) -> list[tuple[int, int]]:
    return [(p, pp) for pp in range(4, pp_max + 1) for p in range(3, pp)
            if pp < 2 * p and math.gcd(p, pp) == 1]


def _slope_weight(a: int, b: int, c: int, table: TauTable) -> Fraction:
    """The weight rules written with the slope t = p'/p and fractional parts,
    kept here as the reference for the tabled integer weights."""
    t = table.params.t

    def frac(x: Fraction) -> Fraction:
        return x - math.floor(x)

    x_of = {"1A": 2, "1B": 3, "2": 2}
    y_of = {"1A": 3, "1B": 2, "2": 4}
    da, dc = a - b, c - b
    if (da, dc) in ((2, -2), (-2, 2)):
        return 2 / t
    if (da, dc) in ((-2, 0), (0, -2)):
        return 2 - frac(Fraction(b - 1) / t)
    if (da, dc) in ((0, 2), (2, 0)):
        return 1 + frac(Fraction(b + 1) / t)
    if (da, dc) == (0, 0):
        return Fraction(3 - table.tau_of(b))
    if (da, dc) == (-2, -2):
        return -2 * frac(Fraction(b - 1) / t) + x_of[table.label(b - 2)]
    assert (da, dc) == (2, 2)
    return 2 * frac(Fraction(b + 3) / t) - 4 / t + y_of[table.label(b + 2)]


def _admissible(a: int, b: int, c: int, pp: int) -> bool:
    if not all(1 <= s <= pp - 1 for s in (a, b, c)):
        return False
    for s, s2 in ((a, b), (b, c)):
        if s2 - s not in (-2, 0, 2) or s == s2 == 1 or s == s2 == pp - 1:
            return False
    return True


class TestWeightTable:
    """The per-model weight table against the slope-based definitions, on
    every strip with p' <= 12."""

    def test_every_admissible_triple(self):
        for p, pp in _strips(12):
            table = make_tau_table(ModelParams(p, pp))
            n = 0
            for a in range(1, pp):
                for b in range(1, pp):
                    for c in range(1, pp):
                        if _admissible(a, b, c, pp):
                            w = weight(a, b, c, table)
                            assert w == _slope_weight(a, b, c, table), (p, pp, a, b, c)
                            assert isinstance(w, Fraction)
                            n += 1
            assert n == len(table.weights), (p, pp)

    def test_non_admissible_triples_raise(self):
        for p, pp in _strips(12):
            table = make_tau_table(ModelParams(p, pp))
            sites = range(-1, pp + 2)
            for a in sites:
                for b in sites:
                    for c in sites:
                        if _admissible(a, b, c, pp):
                            continue
                        off = [s for s in (a, b, c) if not 1 <= s <= pp - 1]
                        want = (f"site {off[0]} off the strip" if off
                                else f"triple ({a},{b},{c}) is not admissible")
                        with pytest.raises(ValueError) as exc:
                            weight(a, b, c, table)
                        assert str(exc.value) == want, (p, pp, a, b, c)

    def test_delta_closed_form(self):
        for p, pp in _strips(12):
            params = ModelParams(p, pp)
            t = Fraction(pp, p)
            for r in range(1, p):
                for s in range(1, pp):
                    want = ((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t)
                    assert delta(params, r, s) == want, (p, pp, r, s)

    def test_energy_rejects_forbidden_step(self):
        params = ModelParams(3, 4)
        with pytest.raises(ValueError, match="not admissible"):
            energy((1, 1, 3), make_tau_table(params))


class TestPaths:
    def test_single_forced_path(self):
        params = ModelParams(3, 4)
        assert enumerate_paths(1, 1, 2, params) == [(1, 3, 1)]
        assert count_paths(1, 1, 2, params) == 1

    def test_endpoints_and_steps(self):
        params = ModelParams(5, 7)
        paths = enumerate_paths(2, 4, 5, params)
        assert paths == sorted(paths)  # lexicographic order
        for path in paths:
            assert path[0] == 2 and path[-1] == 4
            for i in range(5):
                assert path[i + 1] - path[i] in (-2, 0, 2)
                assert (path[i], path[i + 1]) not in ((1, 1), (6, 6))

    @pytest.mark.parametrize("p,pp", MODELS)
    def test_count_matches_enumeration(self, p, pp):
        params = ModelParams(p, pp)
        for a in range(1, pp):
            for b in range(1, pp):
                for m in range(7):
                    got = count_paths(a, b, m, params)
                    assert got == len(enumerate_paths(a, b, m, params))

    @pytest.mark.parametrize("fn", [count_paths, enumerate_paths])
    @pytest.mark.parametrize("a,b,m", [(1, 1, -1), (9, 1, 2), (0, 1, 2), (1, 4, 2)])
    def test_rejects_bad_ends(self, fn, a, b, m):
        with pytest.raises(ValueError):
            fn(a, b, m, ModelParams(3, 4))

    def test_enumeration_matches_walk_oracle(self):
        # Every step sequence in (-2, 0, 2)^m from a, kept when it stays on
        # the strip and never rests on a wall, grouped by its end: the same
        # paths in the same (lexicographic) order as enumerate_paths.
        for p, pp in _strips(9):
            params = ModelParams(p, pp)
            for a in range(1, pp):
                for m in range(7):
                    walks: dict[int, list[tuple[int, ...]]] = {b: [] for b in range(1, pp)}
                    for steps in product((-2, 0, 2), repeat=m):
                        path = tuple(accumulate(steps, initial=a))
                        if all(1 <= s <= pp - 1 for s in path) and not any(
                                s == s2 in (1, pp - 1) for s, s2 in zip(path, path[1:])):
                            walks[path[-1]].append(path)
                    for b, want in walks.items():
                        assert enumerate_paths(a, b, m, params) == want, (p, pp, a, b, m)

    def test_energy_of_forced_path(self):
        table = TABLES[(3, 4)]
        assert energy((1, 3, 1), table) == weight(1, 3, 1, table)
        assert energy((1, 3), table) == 0


class TestConfigSums:
    @pytest.mark.parametrize("p,pp", MODELS)
    def test_recurrence_matches_brute_force(self, p, pp):
        table = TABLES[(p, pp)]
        for a, b, c in x_configs(table.params):
            for m in range(5):
                got = config_sum_X(a, b, c, m, table)
                assert got == brute_config_sum_X(a, b, c, m, table), (a, b, c, m)

    def test_alternating_closed_form(self):
        for key in _strips(12):
            for chk in verify_Xandf(make_tau_table(ModelParams(*key)), 3):
                assert chk.ok, (key, chk)


class TestBoundary:
    def test_known_assignments(self):
        ising = ModelParams(3, 4)
        assert b_of(1, 1, ising) == 1
        assert b_of(2, 1, ising) == 3
        assert b_of(1, 2, ising) == 2
        assert b_of(2, 2, ising) == 2

    def test_minimizer_is_unique_and_on_grid(self):
        for model in _strips(12):
            params = ModelParams(*model)
            for r in range(1, params.p):
                for a in range(1, params.pp):
                    b = b_of(r, a, params)
                    assert (b - a) % 2 == 0 and 1 <= b <= params.pp - 1
                    best = delta(params, r, b)
                    for bb in range(1, params.pp):
                        if (bb - a) % 2 == 0 and bb != b:
                            assert delta(params, r, bb) > best, (model, r, a, bb)
