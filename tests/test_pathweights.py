"""Strip geometry: site tables, weight tables, paths, configuration sums."""

import math
from fractions import Fraction
from itertools import product

import pytest

from qlab import pathweights
from qlab.pathweights import (
    ModelParams, TauTable, b_of, brute_config_sum_X, config_sum_X,
    count_paths, delta, enumerate_paths, f_sum, make_tau_table,
    path_gf, site_data, tau, verify_Xandf, x_configs,
)
from qlab.qcore import QSeries
from qlab.vircharacters import path_side_GEN

from oracles import (
    f_sum_by_slope, monomial, path_side_reference, slope_energy, slope_weight, walks,
    wide_window,
)

F = Fraction

MODELS = [(3, 4), (4, 5), (5, 7), (4, 7), (5, 8)]
TABLES = {m: make_tau_table(ModelParams(*m)) for m in MODELS}


def tabled_weight(a: int, b: int, c: int, table: TauTable) -> Fraction:
    """The weight of the admissible triple (a, b, c): its table entry over p'."""
    return F(table.weights[a, b, c], table.params.pp)


class TestModelParams:
    def test_accepts_valid_strip(self):
        params = ModelParams(5, 7)
        assert (params.p, params.pp) == (5, 7)

    @pytest.mark.parametrize("p,pp", [(3, 3), (3, 6), (4, 6), (3, 7), (2, 3), (5, 4)])
    def test_rejects_bad_strip(self, p, pp):
        with pytest.raises(ValueError):
            ModelParams(p, pp)

    @pytest.mark.parametrize("p,pp,message", [
        (2, 3, "need p >= 3"), (5, 11, "need p < p' < 2p"),
        (6, 9, "p and p' must be coprime"),
    ])
    def test_error_messages(self, p, pp, message):
        with pytest.raises(ValueError) as exc:
            ModelParams(p, pp)
        assert str(exc.value) == message

    def test_repr_and_keywords(self):
        # `tau` prints the repr in its error text, which `verify tau` reports
        assert repr(ModelParams(5, 8)) == "ModelParams(p=5, pp=8)"
        assert ModelParams(p=5, pp=8) == ModelParams(5, 8)
        assert ModelParams(5, pp=8).pp == 8

    def test_equality_and_hashing(self):
        params = ModelParams(5, 8)
        assert params == ModelParams(5, 8) != ModelParams(5, 7)
        assert hash(params) == hash(ModelParams(5, 8))
        assert {params: 1, ModelParams(5, 8): 2} == {ModelParams(5, 8): 2}
        # a named tuple: it unpacks and equals the plain tuple of its fields
        p, pp = params
        assert (p, pp) == params == (5, 8)


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
    def test_tables_of_one_model_compare_equal(self):
        # one cached table per model
        one, two = (make_tau_table(ModelParams(4, 7)) for _ in range(2))
        assert one is two
        assert one != make_tau_table(ModelParams(5, 7))

    def test_known_sequences(self):
        want = {
            (3, 4): ["1A", "2", "2"],
            (4, 5): ["1A", "2", "2", "2"],
            (5, 7): ["1A", "2", "1A", "1B", "2", "2"],
            (4, 7): ["1A", "1B", "1A", "1B", "1A", "2"],
            (5, 8): ["1A", "1B", "1A", "2", "1B", "1A", "2"],
            (3, 5): ["1A", "1B", "1A", "2"],  # t = 5/3, the low-slope edge
        }
        for m, labels in want.items():
            table = make_tau_table(ModelParams(*m))
            assert [table.label(b) for b in range(1, m[1])] == labels, m

    def test_tau_values_match_floor_formula(self):
        for (p, pp), table in TABLES.items():
            params = ModelParams(p, pp)
            t = F(pp, p)
            for b in range(1, pp):
                floors = math.floor((b + 1) / t) - math.floor((b - 1) / t)
                assert table.taus[b] == floors == tau(params, b)

    def test_site_check_and_table_raise_alike(self, monkeypatch):
        build = pathweights._build_labels
        make_tau_table.cache_clear()  # so every table is built under the patch

        def one_letter_swapped(params, taus):
            # 1A <-> 1B at the last tau=1 site: site 1 or a reflection pair
            labels = build(params, taus)
            s = max(x for x in range(1, params.pp) if taus[x] == 1)
            labels[s] = "1B" if labels[s] == "1A" else "1A"
            return labels

        for patch in (("_build_labels", one_letter_swapped),
                      ("tau", lambda params, b: 3)):
            with monkeypatch.context() as mp:
                mp.setattr(pathweights, *patch)
                for p, pp in _strips(40):
                    params = ModelParams(p, pp)
                    with pytest.raises(ValueError) as site_err:
                        site_data(params)
                    with pytest.raises(ValueError) as table_err:
                        make_tau_table(params)
                    assert str(site_err.value) == str(table_err.value), (patch[0], p, pp)
                    assert str(site_err.value).startswith("tau table invalid"), (p, pp)

    def test_sweep_validates(self):
        # every admissible strip up to width 40 builds without complaint, and
        # the site check (site_data, as verify tau runs it) agrees with it
        n = 0
        for pp in range(4, 41):
            for p in range(3, pp):
                if p < pp < 2 * p and math.gcd(p, pp) == 1:
                    params = ModelParams(p, pp)
                    table = make_tau_table(params)
                    assert isinstance(table, TauTable)
                    taus, labels = site_data(params)
                    assert (tuple(taus), tuple(labels)) == (table.taus, table.labels)
                    n += 1
        assert n == 243


class TestWeight:
    def test_hand_values(self):
        t34, t45 = TABLES[(3, 4)], TABLES[(4, 5)]
        assert tabled_weight(1, 3, 1, t34) == 1
        assert tabled_weight(3, 1, 3, t34) == 1
        assert tabled_weight(3, 3, 3, t45) == 1
        # stay-stay weight is 3 - tau(s)
        assert tabled_weight(2, 2, 2, t45) == 1
        assert tabled_weight(2, 2, 2, TABLES[(4, 7)]) == 2

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
                w = tabled_weight(a, b, c, table)
                assert w == tabled_weight(pp - a, pp - b, pp - c, table), (pp, a, b, c)
                assert w == tabled_weight(c, b, a, table), (pp, a, b, c)

    def test_integrality_against_conformal_weights(self):
        # w(a,b,c) - (d(a) - 2 d(b) + d(c)) must be an integer for every r
        for table in TABLES.values():
            params = table.params
            for a, b, c in self._valid_triples(table):
                w = tabled_weight(a, b, c, table)
                for r in range(1, params.p):
                    v = w - (delta(params, r, a) - 2 * delta(params, r, b)
                             + delta(params, r, c))
                    assert v.denominator == 1, (params.pp, r, a, b, c)


def _strips(pp_max: int) -> list[tuple[int, int]]:
    return [(p, pp) for pp in range(4, pp_max + 1) for p in range(3, pp)
            if pp < 2 * p and math.gcd(p, pp) == 1]


def _step_ok(s: int, s2: int, pp: int) -> bool:
    """s -> s2 is one step on the strip 1..p'-1 and no rest on a wall."""
    return (1 <= s <= pp - 1 and 1 <= s2 <= pp - 1 and s2 - s in (-2, 0, 2)
            and not s == s2 in (1, pp - 1))


def _admissible(a: int, b: int, c: int, pp: int) -> bool:
    return _step_ok(a, b, pp) and _step_ok(b, c, pp)


class TestWeightTable:
    """The per-model weight table against the slope-based definitions, on
    every strip with p' <= 12."""

    def test_every_admissible_triple(self):
        # the table holds exactly the admissible triples, each at its slope weight
        for p, pp in _strips(12):
            table = make_tau_table(ModelParams(p, pp))
            n = 0
            for a in range(1, pp):
                for b in range(1, pp):
                    for c in range(1, pp):
                        if _admissible(a, b, c, pp):
                            assert tabled_weight(a, b, c, table) == slope_weight(
                                a, b, c, table), (p, pp, a, b, c)
                            n += 1
            assert n == len(table.weights), (p, pp)

    def test_weights_are_at_least_two(self):
        # Lemma: every weight is at least 2/p', so no weight is negative and
        # the rigged oracle's m-bound and walker bound hold, on all 243 strips
        # with p' <= 40.
        strips = _strips(40)
        assert len(strips) == 243
        for p, pp in strips:
            assert min(make_tau_table(ModelParams(p, pp)).weights.values()) >= 2, (p, pp)

    def test_delta_closed_form(self):
        for p, pp in _strips(12):
            params = ModelParams(p, pp)
            t = Fraction(pp, p)
            for r in range(1, p):
                for s in range(1, pp):
                    want = ((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t)
                    assert delta(params, r, s) == want, (p, pp, r, s)


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
        # The filtered step sequences of ``walks`` are the paths of
        # enumerate_paths in the same (lexicographic) order, and every sum of
        # the walker equals the sum of per-path ``slope_energy`` in Fraction
        # over them: plain (paths --gf), with the end shifts of path_side_GEN, and
        # with a final site c (brute_config_sum_X).
        for p, pp in _strips(9):
            params = ModelParams(p, pp)
            table = make_tau_table(params)
            for a in range(1, pp):
                for m in range(7):
                    for b, want in walks(a, m, pp).items():
                        case = (p, pp, a, b, m)
                        assert enumerate_paths(a, b, m, params) == want, case
                        assert count_paths(a, b, m, params) == len(want), case
                        assert path_gf(a, b, m, table) == QSeries(
                            (slope_energy(path, table), 1) for path in want), case
                        for c in (b - 2, b, b + 2):
                            if _step_ok(b, c, pp):
                                assert brute_config_sum_X(a, b, c, m, table) == QSeries(
                                    (slope_energy(path + (c,), table), 1)
                                    for path in want), (*case, c)
                        for r in range(1, p):
                            if b_of(r, a, params) == b:
                                assert path_side_GEN(params, r, a, b, m) == path_side_reference(
                                    params, table, r, a, b, m), (*case, r)

    def test_energy_of_forced_path(self):
        # (1, 3, 1) is the only path from 1 to 1 in two steps, (1, 3) the only
        # one from 1 to 3 in one step, which has no interior site
        table = TABLES[(3, 4)]
        assert path_gf(1, 1, 2, table) == monomial(tabled_weight(1, 3, 1, table))
        assert path_gf(1, 3, 1, table) == monomial(0)


class TestConfigSums:
    @pytest.mark.parametrize("p,pp", MODELS)
    def test_recurrence_matches_brute_force(self, p, pp):
        table = TABLES[(p, pp)]
        for a, b, c in x_configs(table.params):
            for m in range(5):
                got = config_sum_X(a, b, c, m, table)
                assert got == brute_config_sum_X(a, b, c, m, table), (a, b, c, m)

    def test_second_check_is_served_from_cache(self):
        # the recurrence is cached per model: a repeated check builds no X
        table = make_tau_table(ModelParams(5, 8))
        first = verify_Xandf(table, 4)
        before = pathweights._config_sum.cache_info()
        assert verify_Xandf(table, 4) == first
        after = pathweights._config_sum.cache_info()
        assert after.hits - before.hits == len(first)
        assert after.misses == before.misses

    def test_x_configs_is_the_domain(self):
        # a and b on the strip of one parity, b -> c one admissible step
        for p, pp in _strips(12):
            sites = range(1, pp)
            want = [(a, b, c) for a in sites for b in sites for c in sites
                    if (a - b) % 2 == 0 and _step_ok(b, c, pp)]
            assert x_configs(ModelParams(p, pp)) == want, (p, pp)

    def test_zero_off_the_domain(self):
        for p, pp in _strips(12):
            table = make_tau_table(ModelParams(p, pp))
            domain = set(x_configs(table.params))
            for a, b, c in product(range(-1, pp + 2), repeat=3):
                if (a, b, c) in domain:
                    continue
                for m in (0, 2):
                    got = config_sum_X(a, b, c, m, table)
                    assert got.is_zero() and got.is_exact, (p, pp, a, b, c, m)

    def test_f_sum_matches_slope_oracle(self):
        # The integer exponent table against the slope formulas in Fraction.
        n = 0
        for p, pp in _strips(9):
            table = make_tau_table(ModelParams(p, pp))
            for a, b, c in x_configs(table.params):
                for m in range(5):
                    assert f_sum(a, b, c, m, table) == f_sum_by_slope(
                        a, b, c, m, table), (p, pp, a, b, c, m)
                    n += 1
        assert n == 2410

    def test_f_sum_window_is_exact(self, monkeypatch):
        # A wider n window adds only zero terms (|l| > m): the f-sums agree.
        cases = [(a, b, c, m, make_tau_table(ModelParams(p, pp)))
                 for p, pp in _strips(12) for a, b, c in x_configs(ModelParams(p, pp))
                 for m in range(9)]
        exact = [f_sum(*case) for case in cases]
        monkeypatch.setattr(pathweights, "lattice_range", wide_window)
        for case, want in zip(cases, exact):
            assert f_sum(*case) == want, case[:4]

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
