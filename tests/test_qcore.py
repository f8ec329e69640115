"""Core series arithmetic: ring laws, Pochhammer inverses, binomial families."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qlab import qcore, supernomial
from qlab.cli import _json_text, run
from qlab.supernomial import S, S_table, S_tilde
from qlab.qcore import QSeries, compare, lattice_range, poch_inv, poch_sum, q_binomial

from oracles import (
    RefSeries, coeff_sum, exact_div, monomial, poch, poch_inv_parts, product,
    row_product, support, supernomial2_sum,
)

F = Fraction


def _clear_caches() -> None:
    """Empty every cache of built series and rows in qcore and supernomial."""
    for cached in (qcore._gauss_coeffs, qcore._supernomial2_row,
                   supernomial._s_family, supernomial._s_row):
        cached.cache_clear()


def partitions(n_max: int) -> list[int]:
    """p(0..n_max) by the pentagonal-number recurrence (independent of poch_inv)."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def restricted_partitions(m: int, n_max: int) -> list[int]:
    # parts of size <= m, by the classical two-way recurrence
    table = [[0] * (n_max + 1) for _ in range(m + 1)]
    for k in range(m + 1):
        table[k][0] = 1
    for k in range(1, m + 1):
        for n in range(1, n_max + 1):
            table[k][n] = table[k - 1][n] + (table[k][n - k] if n >= k else 0)
    return table[m]


# -- strategies ---------------------------------------------------------------

exps = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
term_dicts = st.dictionaries(exps, st.integers(-9, 9), max_size=6)


@st.composite
def exact_series(draw):
    return QSeries(draw(term_dicts), None)


@st.composite
def any_series(draw):
    terms = draw(term_dicts)
    cut = draw(st.one_of(st.none(), st.builds(F, st.integers(-4, 10), st.just(1))))
    return QSeries(terms, cut)


class TestRingLaws:
    @given(a=any_series(), b=any_series())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(a=any_series(), b=any_series(), c=any_series())
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(a=exact_series(), b=exact_series())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(a=exact_series(), b=exact_series(), c=exact_series())
    @settings(max_examples=50)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=any_series())
    def test_neutral_elements(self, a):
        assert a + QSeries.zero(None) == a
        exact = QSeries(dict(a.items()))
        assert exact * QSeries.one(None) == exact == QSeries.one(None) * exact
        assert a * 0 == QSeries.zero(a.cutoff)

    @given(a=exact_series(), b=exact_series(), cut=st.integers(-2, 8))
    @settings(max_examples=60)
    def test_truncation_is_sound(self, a, b, cut):
        # The reference product of truncations must agree with the full
        # product wherever its cutoff claims validity.
        full = a * b
        trunc = product(a.truncate(F(cut)), b.truncate(F(cut)))
        cmp = compare(full, trunc)
        assert cmp.ok, cmp

    def test_product_takes_exact_series_only(self):
        s = QSeries({0: 1, F(1, 2): -3}, 5)
        for a, b in ((QSeries({0: 1, 2: 4}), s),
                     (QSeries.zero(None), s),
                     (QSeries.zero(3), QSeries({1: 2}))):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="exact series only"):
                    x * y
        # An int scales and moves no cutoff.
        assert 3 * s == s * 3 == QSeries({0: 3, F(1, 2): -9}, 5)
        assert s * 0 == 0 * s == QSeries.zero(5)

    @given(a=any_series())
    def test_immutable(self, a):
        with pytest.raises(AttributeError):
            a.cutoff = None


class TestSum:
    @given(terms=st.lists(any_series(), max_size=6))
    def test_matches_coefficient_oracle(self, terms):
        # independent rule: add coefficients, then keep what lies below the
        # least cutoff of the terms (none when every term is exact)
        cuts = [t.cutoff for t in terms if t.cutoff is not None]
        cut = min(cuts) if cuts else None
        acc: dict = {}
        for t in terms:
            for e, c in t.items():
                acc[e] = acc.get(e, 0) + c
        want = {e: c for e, c in acc.items() if c != 0 and (cut is None or e < cut)}
        got = QSeries.sum(iter(terms))
        assert dict(got.items()) == want
        assert got.cutoff == cut

    @given(a=any_series(), b=any_series())
    def test_pair_is_add(self, a, b):
        assert a + b == QSeries.sum([a, b])

    def test_empty_is_exact_zero(self):
        assert QSeries.sum([]) == QSeries.zero(None)
        assert QSeries.sum(iter(())) == QSeries.zero(None)

    def test_cancelling_terms_vanish(self):
        a = QSeries({F(1, 2): 3, 2: -1}, F(6))
        total = QSeries.sum([a, -a, QSeries({4: 1}), QSeries({4: -1})])
        assert total.is_zero() and total.cutoff == F(6)

    def test_terms_at_or_above_least_cutoff_dropped(self):
        total = QSeries.sum([QSeries({0: 1, 3: 2, 5: 1}), QSeries({1: 1}, F(3))])
        assert dict(total.items()) == {F(0): 1, F(1): 1}
        assert total.cutoff == F(3)


# Exponents and cutoffs with denominators 1..12, so that sums, products and
# shifts mix denominators and their lcm.
wide_exps = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
finite_cuts = st.builds(F, st.integers(-12, 60), st.integers(1, 12))
wide_cuts = st.one_of(st.none(), finite_cuts)
wide_terms = st.dictionaries(wide_exps, st.integers(-9, 9), max_size=8)


@st.composite
def wide_series(draw, exact=False):
    terms = draw(wide_terms)
    return QSeries(terms, None if exact else draw(wide_cuts))


# Exact one-term series c q^e, which ``QSeries.__mul__`` makes a one-term
# combination: e integral (0 included) or rational, c = +-1 or another value.
exact_monomials = st.builds(
    monomial,
    st.one_of(st.just(0), st.integers(-30, 30), wide_exps),
    st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9).filter(bool)))


def ref_json(r: RefSeries) -> str:
    """The JSON text of a series, built from the reference representation."""
    terms = [{"num": e.numerator, "den": e.denominator, "coeff": str(c)}
             for e, c in sorted(r.terms.items())]
    cut = (None if r.cutoff is None
           else {"num": r.cutoff.numerator, "den": r.cutoff.denominator})
    return json.dumps({"terms": terms, "cutoff": cut}, separators=(",", ":"),
                      sort_keys=True)


def assert_canonical(s: QSeries) -> None:
    """A series equals, and hashes like, the series rebuilt from its public
    view, and its integral exponents come out as ``int``."""
    rebuilt = QSeries(dict(s.items()), s.cutoff)
    assert s == rebuilt and hash(s) == hash(rebuilt)
    for e in [*support(s), s.floor, s.cutoff]:
        if e is not None:
            assert type(e) is (int if F(e).denominator == 1 else F), e


class TestAgainstFractionOracle:
    """The integer-keyed core against the Fraction-keyed reference series in
    ``oracles.RefSeries``, on exponent denominators 1..12."""

    @given(terms=st.dictionaries(wide_exps, st.integers(-9, 9), max_size=8),
           cut=wide_cuts, probe=wide_exps)
    def test_inspection_and_json(self, terms, cut, probe):
        s = QSeries(terms, cut)
        ref = RefSeries.make(terms.items(), cut)
        assert dict(s.items()) == ref.terms
        assert support(s) == sorted(ref.terms)
        assert s.cutoff == ref.cutoff and s.floor == ref.floor
        for e in [probe, *terms]:
            assert s.coeff(e) == ref.terms.get(e, 0)
        assert json.loads(_json_text(s)) == json.loads(ref_json(ref))
        assert_canonical(s)

    @given(a=wide_series(), b=wide_series())
    @settings(max_examples=150)
    def test_mul(self, a, b):
        # The reference product, which is the QSeries product of the
        # factors' terms cut by the rule that RefSeries states on its own.
        got = product(a, b)
        assert RefSeries.of(got) == RefSeries.of(a) * RefSeries.of(b)
        assert_canonical(got)

    @given(mono=exact_monomials,
           other=st.one_of(wide_series(exact=True), st.just(QSeries.zero(None))))
    @settings(max_examples=200)
    def test_mul_by_exact_monomial(self, mono, other):
        want = RefSeries.of(mono) * RefSeries.of(other)
        for got in (mono * other, other * mono):
            assert RefSeries.of(got) == want
            # Equal to the series rebuilt from the reference: same least
            # denominator, and the same cutoff over it.
            assert got == QSeries(want.terms, want.cutoff)
            assert_canonical(got)

    @given(terms=st.lists(wide_series(), max_size=5))
    def test_sum(self, terms):
        got = QSeries.sum(terms)
        assert RefSeries.of(got) == RefSeries.sum([RefSeries.of(t) for t in terms])
        assert_canonical(got)

    @given(a=wide_series(), d=wide_exps, cut=st.builds(F, st.integers(-12, 60),
                                                        st.integers(1, 12)))
    def test_shift_truncate_neg(self, a, d, cut):
        ref = RefSeries.of(a)
        for got, want in ((a.shift(d), ref.shift(d)),
                          (a.truncate(cut), ref.truncate(cut)),
                          (-a, RefSeries.make(((e, -c) for e, c in ref.terms.items()),
                                              ref.cutoff)),
                          (a - a, RefSeries.make((), ref.cutoff))):
            assert RefSeries.of(got) == want
            assert_canonical(got)

    @given(a=wide_series(exact=True))
    def test_flip(self, a):
        got = a.flip()
        assert RefSeries.of(got) == RefSeries.of(a).flip()
        assert_canonical(got)

    @given(a=wide_series(), b=wide_series())
    def test_compare(self, a, b):
        cmp = compare(a, b)
        assert (cmp.ok, cmp.verified_below, cmp.first_mismatch, cmp.lhs_coeff,
                cmp.rhs_coeff) == RefSeries.of(a).compare(RefSeries.of(b))

    @given(keys=st.dictionaries(st.integers(-40, 40), st.integers(-9, 9), max_size=8),
           den=st.integers(1, 12))
    def test_from_keys(self, keys, den):
        got = QSeries.from_keys(keys, den)
        assert RefSeries.of(got) == RefSeries.make(
            ((F(k, den), c) for k, c in keys.items()), None)
        assert_canonical(got)

    def test_from_keys_rejects_bad_den(self):
        with pytest.raises(ValueError):
            QSeries.from_keys({1: 1}, 0)

    @given(a=wide_series(), d=wide_exps)
    def test_shift_round_trip_is_canonical(self, a, d):
        back = a.shift(d).shift(-d)
        assert back == a and hash(back) == hash(a)

    def test_product_drops_terms_at_the_cut(self):
        a = QSeries({0: 1, 1: 1}, 2)
        assert product(a, a) == QSeries({0: 1, 1: 2}, 2)

    def test_denominator_is_least(self):
        quarter = monomial(F(1, 4)).shift(F(3, 4))
        assert quarter == monomial(1)
        assert hash(quarter) == hash(monomial(1))
        halves = QSeries({F(1, 2): 1, F(3, 2): 1}, F(5, 2)) - QSeries({F(1, 2): 1})
        assert halves == QSeries({F(3, 2): 1}, F(5, 2))
        assert halves.truncate(1) == QSeries.zero(1)
        assert list(QSeries({F(1, 6): 1, F(1, 3): 1}).shift(F(5, 6)).items()) == [
            (1, 1), (F(7, 6), 1)]


def _both_orders(a: QSeries, b: QSeries, want: QSeries) -> None:
    assert product(a, b) == want and product(b, a) == want


class TestProductErrorTerms:
    """Each factor's cutoff as one error term of the reference product
    ``oracles.product``, on examples a random run can miss: a + O(q^{c_a})
    times b adds O(q^{c_a + floor b}), and an exact zero times
    b + O(q^{c_b}) is O(q^{c_b})."""

    def test_exact_zero_times_truncated_is_its_cutoff(self):
        # Not c_b + floor b: an exact zero's floor is 0.
        _both_orders(QSeries.zero(None), QSeries({2: 1, 3: 5}, 7), QSeries.zero(7))
        _both_orders(QSeries.zero(None), QSeries.zero(F(5, 2)), QSeries.zero(F(5, 2)))

    def test_truncated_zero_times_exact_moves_by_its_floor(self):
        _both_orders(QSeries.zero(5), QSeries({3: 2, 4: 1}), QSeries.zero(8))
        _both_orders(QSeries.zero(5), QSeries({-2: 1}), QSeries.zero(3))
        _both_orders(QSeries.zero(5), QSeries.zero(None), QSeries.zero(5))

    def test_either_cutoff_binds(self):
        b_exp = {3: 1, 5: 1, 6: 1}
        # The factor with fewer terms binds: 4 + floor b = 7 < 20 + floor a.
        _both_orders(QSeries({1: 1, 2: 1}, 4), QSeries(b_exp, 20),
                     QSeries({4: 1, 5: 1, 6: 1}, 7))
        # The other binds: 8 + floor a = 9 < 30 + floor b.
        _both_orders(QSeries({1: 1, 2: 1}, 30), QSeries(b_exp, 8),
                     QSeries({4: 1, 5: 1, 6: 1, 7: 2, 8: 1}, 9))
        # Two empty truncated factors: c_a + c_b.
        _both_orders(QSeries.zero(2), QSeries.zero(F(1, 3)), QSeries.zero(F(7, 3)))

    def test_denominators_three_and_four(self):
        thirds = {F(1, 3): 1, F(2, 3): 2}
        quarters = {F(1, 4): 1, F(5, 4): -1, F(7, 4): 1}
        # Truncated quarters: 2 + floor(thirds) = 7/3 drops q^{29/12}.
        _both_orders(QSeries(thirds), QSeries(quarters, 2), QSeries(
            {F(7, 12): 1, F(11, 12): 2, F(19, 12): -1, F(23, 12): -2, F(25, 12): 1},
            F(7, 3)))
        # Truncated thirds: 4/3 + floor(quarters) = 19/12.
        _both_orders(QSeries(thirds, F(4, 3)), QSeries(quarters),
                     QSeries({F(7, 12): 1, F(11, 12): 2}, F(19, 12)))

    def test_one_term_truncated_factor(self):
        _both_orders(QSeries({2: 3}, 5), QSeries({0: 1, 1: 1, 7: 1}),
                     QSeries({2: 3, 3: 3}, 5))
        _both_orders(QSeries({2: 3}, 5), QSeries({1: 1, 2: 1, 7: 1}),
                     QSeries({3: 3, 4: 3}, 6))
        _both_orders(QSeries({F(1, 2): -1}, 1), QSeries({F(1, 2): 1}, 3),
                     QSeries({1: -1}, F(3, 2)))


@st.composite
def shifted_terms(draw, truncated=False):
    """(den, [(sign, s, key)]): series whose denominators divide den, signed
    big coefficients, negative keys included; exact series, or with
    ``truncated`` a mix of exact and truncated ones."""
    den = draw(st.integers(1, 12))
    divisors = [d for d in range(1, den + 1) if den % d == 0]
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        d = draw(st.sampled_from(divisors))
        cut = draw(st.one_of(st.none(), st.builds(F, st.integers(-30, 30), st.just(d)))
                   if truncated else st.none())
        s = QSeries(draw(st.dictionaries(st.builds(F, st.integers(-30, 30), st.just(d)),
                                         st.integers(-2 ** 80, 2 ** 80), max_size=6)), cut)
        terms.append((draw(st.sampled_from([1, -1, 3, 0])), s, draw(st.integers(-60, 60))))
    return den, terms


class TestSumShifted:
    @given(case=shifted_terms())
    def test_matches_shifted_sums(self, case):
        den, terms = case
        got = QSeries.sum_shifted(iter(terms), den)
        assert got == QSeries.sum(sign * s.shift(F(key, den)) for sign, s, key in terms)
        assert RefSeries.of(got) == RefSeries.make(
            (e + F(key, den), sign * c)
            for sign, s, key in terms for e, c in RefSeries.of(s).terms.items())
        assert got.is_exact
        assert_canonical(got)

    def test_cancels_to_an_exact_zero(self):
        s = QSeries({F(-1, 4): 2 ** 90, 3: -7})
        got = QSeries.sum_shifted([(1, s, -5), (-1, s, -5), (2, s, 3), (-1, 2 * s, 3)], 8)
        assert got == QSeries.zero(None) and got.is_exact
        assert QSeries.sum_shifted([], 6) == QSeries.zero(None)

    def test_shared_factor_reduces_the_denominator(self):
        # Keys 4 and 8 over 12 are thirds; keys 0 and 12 over 12 are integers.
        s = QSeries({0: 1, 1: -2})
        got = QSeries.sum_shifted([(1, s, 4), (-1, s, 8)], 12)
        assert got == QSeries({F(1, 3): 1, F(2, 3): -1, F(4, 3): -2, F(5, 3): 2})
        assert list(QSeries.sum_shifted([(1, s, 0), (1, s, 12)], 12).items()) == [
            (0, 1), (1, -1), (2, -2)]

    @given(case=shifted_terms(truncated=True))
    # Two terms: one truncates the other; two that cancel below a cut.
    @example(case=(1, [(1, QSeries({0: 1, 5: 1}), 0), (1, QSeries.zero(3), 0)]))
    @example(case=(2, [(1, QSeries({F(1, 2): 3}), 1), (-1, QSeries({1: 3, 2: 1}, 4), 0)]))
    def test_truncated_terms_match_the_reference(self, case):
        # Keys need not be multiples of den: the shifts are rational.
        den, terms = case
        got = QSeries.sum_shifted(iter(terms), den)
        shifted = [(sign, RefSeries.of(s).shift(F(key, den))) for sign, s, key in terms]
        assert RefSeries.of(got) == RefSeries.sum([
            RefSeries.make(((e, sign * c) for e, c in r.terms.items()), r.cutoff)
            for sign, r in shifted])
        assert got.cutoff == min((r.cutoff for _, r in shifted if r.cutoff is not None),
                                 default=None)
        assert got.is_exact == all(s.is_exact for _, s, _ in terms)
        assert_canonical(got)

    def test_rejects_denominator_not_dividing(self):
        with pytest.raises(ValueError, match="dividing 4"):
            QSeries.sum_shifted([(1, monomial(F(1, 3)), 0)], 4)
        with pytest.raises(ValueError):
            QSeries.sum_shifted([(1, QSeries.one(None), 0)], 0)


def test_lattice_range_is_the_multiples_in_a_window():
    for step in range(1, 8):
        for lo in range(-20, 21):
            for hi in range(lo - 3, 21):
                assert list(lattice_range(lo, hi, step)) == [
                    x for x in range(-25, 26) if lo <= step * x <= hi], (lo, hi, step)


class TestJson:
    def test_shape_is_plain_data(self):
        s = QSeries({F(1, 2): 3, F(-1): 2}, F(5))
        obj = json.loads(_json_text(s))
        assert obj["cutoff"] == {"num": 5, "den": 1}
        assert {"num": 1, "den": 2, "coeff": "3"} in obj["terms"]

    def test_rows_are_lowest_terms_in_exponent_order(self):
        s = QSeries({F(1, 2): 3, F(-1): 2, F(4, 3): -5, 0: 7})
        assert s.json_rows() == [(2, 1, -1), (7, 1, 0), (3, 2, 1), (-5, 3, 4)]
        assert QSeries.zero(F(1, 2)).json_rows() == []


class TestCompare:
    def test_mismatch_is_located(self):
        a = QSeries({0: 1, 2: 5}, F(10))
        b = QSeries({0: 1, 2: 7}, F(10))
        cmp = compare(a, b)
        assert not cmp.ok and cmp.first_mismatch == F(2)

    def test_agreement_below_min_cutoff(self):
        a = QSeries({0: 1, 7: 9}, F(8))
        b = QSeries({0: 1}, F(5))
        assert compare(a, b).ok
        assert compare(a, b).verified_below == F(5)


class TestPochhammer:
    def test_inverse_matches_partition_recurrence(self):
        expect = partitions(2000)
        for cut in (F(41), 2001):
            series, n = poch_inv(cut), int(cut)
            assert [series.coeff(k) for k in range(n)] == expect[:n], cut

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_bounded_parts(self, m):
        # 1/(q)_m is the Pochhammer sum of the single term 1 at m.
        series = poch_sum({m: QSeries.one()}, F(26))
        expect = restricted_partitions(m, 25)
        for n in range(26):
            assert series.coeff(F(n)) == expect[n], (m, n)
        assert series == poch_inv_parts(m, F(26))

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_product_with_poch_is_one(self, m):
        prod = product(poch(m), poch_sum({m: QSeries.one()}, F(20)))
        assert compare(prod, QSeries.one(F(20))).ok

    def test_division_matches_one_part_size_at_a_time_and_the_fold(self):
        # numerator / (q)_infinity below c, against two routes: each term
        # times 1/(q)_m built one part size at a time, and the poch_sum fold
        # at an m that holds every part size below the cut.
        numerators = [((0, 1),), ((0, 1), (0, 2), (3, -1), (3, 4)),
                      ((2, 5), (0, 1), (2, -5), (7, 3), (7, -3)),
                      ((-2, 1), (1, -3), (4, 10**30)), ((1, 1), (9, -2), (400, 7), (401, 1))]
        cuts = [*range(-3, 30), 41, 100, 257, 400, F(41, 2), F(7, 3), F(-5, 2)]
        for cut in cuts:
            for num in numerators:
                got = poch_inv(cut, num)
                want = QSeries.sum([QSeries.zero(cut)] + [
                    poch_inv_parts(math.ceil(cut - e), cut - e).shift(e) * v for e, v in num])
                assert got == want, (cut, num)
                lo = min(e for e, _ in num)
                fold = poch_sum({max(math.ceil(cut) - lo, 0): QSeries(num)}, cut)
                assert got == fold, (cut, num)
        # Exponents at or above the cut add nothing.
        assert poch_inv(9, ((0, 1), (9, 5), (12, 1))) == poch_inv(9)

    def test_cached_factors_match_a_fresh_build_after_use(self, capsys):
        # ``verify grading`` sums, shifts and divides cached S and S~ cells
        # and the rows under them; none of them may change under that use.
        # Cold caches, so every factor is built under it.
        def cells():
            return [(S(m, l), S_tilde(m, l)) for m in range(12) for l in range(-m, m + 1)]

        _clear_caches()
        assert run(["verify", "grading"]) == 0
        capsys.readouterr()
        used = cells()
        _clear_caches()
        assert cells() == used

    def test_shared_rows_are_never_mutated(self, capsys):
        # The dense rows are handed out uncopied: a Gaussian row to
        # q_binomial, to the finitized sums and to the supernomial descent,
        # each S row to the next.  After use, every row, and every value
        # built on them, equals a fresh build.
        def rows():
            return ([supernomial._s_row(m) for m in range(10)],
                    {(n, k): qcore._gauss_coeffs(n, k) for n in range(13) for k in range(n + 1)},
                    {key: qcore._supernomial2_row(*key) for key in
                     [(2 * k1, k2, a) for k1 in range(6) for k2 in range(6)
                      for a in range(-k1 - k2, k1 + k2 + 1)]})

        def values():
            assert run(["verify", "exactseq"]) == 0
            assert run(["verify", "abf"]) == 0
            return capsys.readouterr().out, S_table(9), q_binomial(12, 6)

        _clear_caches()
        used = values(), rows()
        _clear_caches()
        fresh_rows = rows()
        assert (values(), fresh_rows) == used

    def test_float_cutoff_raises_type_error(self):
        assert poch_inv(4) == poch_inv(F(4))
        with pytest.raises(TypeError):
            poch_inv(4.0)

    @pytest.mark.parametrize("m,cut", [(-1, 5), (3, None), (None, None)])
    def test_bad_arguments_raise_on_every_call(self, m, cut):
        # m=None is 1/(q)_infinity, poch_inv; a finite m is the single-term
        # Pochhammer sum.
        for _ in range(2):
            with pytest.raises(ValueError):
                poch_inv(cut) if m is None else poch_sum({m: QSeries.one()}, cut)

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ArithmeticError):
            exact_div(QSeries({0: 1, 1: 1}, None), QSeries({0: 1, 1: 1, 2: 1}, None))

    def test_exact_div_poch_quotient(self):
        got = exact_div(poch(4), poch(2))
        want = QSeries({0: 1, 3: -1}, None) * QSeries({0: 1, 4: -1}, None)
        assert got == want


big_coeffs = st.one_of(st.integers(-9, 9), st.sampled_from([10**30, -10**30]),
                       st.integers(-10**30, 10**30))
int_polys = st.dictionaries(st.integers(-6, 12), big_coeffs, max_size=5).map(QSeries)


class TestPochSum:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.integers(0, 8), int_polys, max_size=4), st.data())
    def test_fold_matches_a_factor_per_term(self, terms, data):
        # Cutoffs: ints, fractions, a term's own exponent, and below them all.
        exps = [e for t in terms.values() for e in support(t)]
        choices = [st.integers(-8, 16), st.builds(F, st.integers(-24, 48), st.integers(1, 4))]
        if exps:
            choices += [st.sampled_from(exps), st.just(min(exps) - 1)]
        cut = data.draw(st.one_of(*choices))
        want = QSeries.sum([QSeries.zero(cut)] + [
            product(a, poch_inv_parts(m, cut - a.floor)) for m, a in terms.items() if a])
        assert poch_sum(terms, cut) == want

    @pytest.mark.parametrize("terms", [
        {1: QSeries.one(5)}, {2: monomial(F(1, 2))}, {-1: QSeries.one()}])
    def test_bad_terms_raise(self, terms):
        with pytest.raises(ValueError):
            poch_sum(terms, 10)


def dense_rows():
    """Rows of 0..80 nonnegative ints below one drawn top (so every digit
    width is reached, 1 byte to past a machine word), zeros inside and up to
    three at each end."""
    return st.sampled_from([1, 255, 2 ** 16, 2 ** 32, 2 ** 64, 10 ** 30]).flatmap(
        lambda top: st.builds(
            lambda lead, core, trail: (0,) * lead + tuple(core) + (0,) * trail,
            st.integers(0, 3),
            st.lists(st.one_of(st.just(0), st.integers(0, top)), max_size=74),
            st.integers(0, 3)))


class TestDenseMul:
    @given(a=dense_rows(), b=dense_rows())
    @settings(max_examples=300, deadline=None)
    # One byte at bound 255; two at 256 and at 510, the carry of 255 + 255.
    @example(a=(255,), b=(1,))
    @example(a=(16,), b=(16,))
    @example(a=(255, 255), b=(1, 1))
    @example(a=(2 ** 64 - 1,), b=(1,))
    @example(a=(2 ** 32, 2 ** 32), b=(2 ** 32,))
    def test_matches_the_schoolbook_product(self, a, b):
        want = row_product(a, b)
        assert qcore._dense_mul(a, b) == want
        assert qcore._dense_mul(b, a) == want

    @given(a=dense_rows(), b=dense_rows())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_series_product(self, a, b):
        # The exact QSeries product, a second route that shares no code.
        got = qcore._from_dense(0, qcore._dense_mul(a, b))
        assert got == qcore._from_dense(0, a) * qcore._from_dense(0, b)
        assert got == qcore._from_dense(0, b) * qcore._from_dense(0, a)

    def test_empty_and_zero_rows(self):
        assert qcore._dense_mul((), (1, 2)) == ()
        assert qcore._dense_mul((3,), ()) == ()
        assert qcore._dense_mul((0, 0), (10 ** 30,)) == (0, 0)

    @pytest.mark.parametrize("a,b", [((1, -1), (1,)), ((2,), (0, -(10 ** 30)))])
    def test_negative_entry_raises(self, a, b):
        with pytest.raises(ValueError):
            qcore._dense_mul(a, b)
        with pytest.raises(ValueError):
            qcore._dense_mul(b, a)


class TestQBinomial:
    def test_hand_values(self):
        assert list(q_binomial(4, 2).items()) == [
            (F(0), 1), (F(1), 1), (F(2), 2), (F(3), 1), (F(4), 1)]
        # negative first argument gives Laurent polynomials
        assert list(q_binomial(-1, 2).items()) == [(F(-3), 1)]
        assert list(q_binomial(-2, 1).items()) == [(F(-2), -1), (F(-1), -1)]

    def test_degenerate_cases(self):
        assert q_binomial(3, 5).is_zero()
        assert q_binomial(0, 2).is_zero()
        assert q_binomial(5, -1).is_zero()
        assert q_binomial(0, 0) == QSeries.one(None)

    @given(L=st.integers(-4, 8), a=st.integers(0, 5))
    @settings(max_examples=80)
    def test_pascal_recurrence(self, L, a):
        if a == 0:
            return
        lhs = q_binomial(L, a)
        rhs = q_binomial(L - 1, a) + q_binomial(L - 1, a - 1).shift(L - a)
        assert lhs == rhs, (L, a)

    @given(L=st.integers(0, 10), a=st.integers(0, 10))
    def test_counts_at_q_one(self, L, a):
        assert coeff_sum(q_binomial(L, a)) == math.comb(L, a)

    @given(L=st.integers(-8, 30), a=st.integers(-1, 12))
    @settings(max_examples=120, deadline=None)
    def test_matches_sparse_division_oracle(self, L, a):
        # The dense kernel against the sparse product-plus-exact_div route.
        if a < 0 or 0 <= L < a:
            want = QSeries.zero(None)
        else:
            num = QSeries.one(None)
            for i in range(a):
                num = num * QSeries({0: 1, L - a + 1 + i: -1}, None)
            want = exact_div(num, poch(a))
        assert q_binomial(L, a) == want, (L, a)


def supernomial2(L1: int, L2: int, twice_a: int) -> QSeries:
    """The two-row supernomial at weight twice_a/2, from its descent row."""
    return qcore._from_dense(*qcore._supernomial2_row(L1, L2, twice_a))


class TestSupernomial2:
    def test_hand_values(self):
        assert list(supernomial2(2, 1, 0).items()) == [(F(0), 1), (F(1), 1), (F(2), 2)]
        assert list(supernomial2(0, 2, 0).items()) == [(F(0), 1), (F(1), 1), (F(2), 1)]
        assert supernomial2(0, 0, 0) == QSeries.one(None)

    def test_base_row(self):
        for L1 in (0, 2, 4, 6):
            for a in range(-L1 // 2, L1 // 2 + 1):
                assert supernomial2(L1, 0, 2 * a) == q_binomial(L1, L1 // 2 + a)

    def test_step_recurrence(self):
        # raising the first row by two inserts one q-power shifted copy
        for L1 in (2, 4, 6):
            for L2 in range(0, 4):
                for a in range(-(L1 // 2 + L2), L1 // 2 + L2 + 1):
                    lhs = supernomial2(L1, L2, 2 * a)
                    rhs = (supernomial2(L1 - 2, L2, 2 * a).shift(L1 + L2 - 1)
                           + supernomial2(L1 - 2, L2 + 1, 2 * a))
                    assert lhs == rhs, (L1, L2, a)

    def test_symmetry_in_a(self):
        for m in range(9):
            for a in range(0, m + 1):
                assert supernomial2(0, m, 2 * a) == supernomial2(0, m, -2 * a), (m, a)

    def test_total_dimension(self):
        for L1 in (0, 2, 4):
            for L2 in range(0, 4):
                n = L1 // 2 + L2
                total = sum(coeff_sum(supernomial2(L1, L2, 2 * a))
                            for a in range(-n, n + 1))
                assert total == 2 ** L1 * 3 ** L2, (L1, L2)

    def test_half_odd_weight_vanishes(self):
        for L1, L2, twice_a in ((2, 1, 1), (0, 3, -1), (4, 2, 3)):
            assert supernomial2(L1, L2, twice_a).is_zero(), (L1, L2, twice_a)

    def test_matches_single_sum_oracle(self):
        # The kernel's descent in L2 against the Schilling--Warnaar single
        # sum, on every weight 2a in and just past the support, half-odd a
        # included.
        n = 0
        for L1 in range(11):
            for L2 in range(7):
                top = L1 + 2 * L2
                for twice_a in range(-top - 2, top + 3):
                    got = supernomial2(L1, L2, twice_a)
                    assert got == supernomial2_sum(L1, L2, twice_a), (L1, L2, twice_a)
                    n += 1
        assert n == 2079
