"""Normalized characters, their m-graded decomposition, and path oracles."""

import sys
from fractions import Fraction

import pytest

from qlab import pathweights, vircharacters
from qlab.cli import FIVE_MODELS, run
from qlab.fusionchar import (
    graded_13_char, unitary_params, verify_abf, verify_exact_sequence_chars,
    verify_pi2pi3, verify_pmn,
)
from qlab.pathweights import (
    ModelParams, _walk, b_of, count_paths, make_tau_table, verify_Xandf,
)
from qlab.qcore import QSeries, poch_inv, poch_sum
from qlab.supernomial import string_sum, verify_S_recurrences
from qlab.vircharacters import (
    I_m, I_m_floor, I_m_sum, _end_shifts, path_sides_GEN, rigged_path_gf, rocha_caridi,
    verify_GEN, verify_IandS, verify_poch_inv_expansion, verify_rigged, verify_rocha2,
)

from oracles import (
    coeff_sum, monomial, poch_inv_parts, product, rigged_by_rigging,
    sum_over_m_every_term, tight_chain, wide_window,
)
from test_pathweights import _strips
from test_qcore import partitions

F = Fraction

ISING = ModelParams(3, 4)


def _wide_numerator(params: ModelParams, r: int, s: int, cut) -> QSeries:
    """The theta numerator of chi_{r,s} below ``cut``, summed over |lam| <=
    floor(cut) + 2, a window wider than ``rocha_caridi``'s."""
    p, pp = params
    n, wide = p * pp, int(cut) + 2
    return QSeries([(lam * lam * n + lam * beta + shift, sign)
                    for beta, shift, sign in ((pp * r - p * s, 0, 1),
                                              (pp * r + p * s, r * s, -1))
                    for lam in range(-wide, wide + 1)], cut)


class TestCharacterSeries:
    def test_ising_vacuum_head(self):
        ch = rocha_caridi(ISING, 1, 1, F(8))
        assert [ch.coeff(F(n)) for n in range(7)] == [1, 0, 1, 1, 2, 2, 3]

    def test_constant_term_is_one(self):
        for p, pp in ((3, 4), (4, 5), (5, 7), (5, 8)):
            params = ModelParams(p, pp)
            for r in range(1, p):
                for s in range(1, pp):
                    ch = rocha_caridi(params, r, s, F(6))
                    assert ch.coeff(F(0)) == 1, (p, pp, r, s)
                    assert ch.floor == 0

    def test_lam_window_is_exact(self):
        # Against a window of |lam| <= floor(cutoff) + 2, which holds every
        # lam with an exponent below the cutoff (|beta| < 2n, so |lam| >= 2
        # gives an exponent >= |lam|), on every strip p' <= 16, all (r, s).
        inverse = {cut: poch_inv(cut) for cut in (F(1, 2), 1, 2, 7, F(15, 2), 31, 100)}
        cases = 0
        for p, pp in _strips(16):
            params = ModelParams(p, pp)
            for r in range(1, p):
                for s in range(1, pp):
                    for cut, inv in inverse.items():
                        assert rocha_caridi(params, r, s, cut) == \
                            product(_wide_numerator(params, r, s, cut), inv), (p, pp, r, s, cut)
                        cases += 1
        assert cases == 22582

    @pytest.mark.parametrize("models,cut", [(FIVE_MODELS, 41), (((3, 4),), 2001)])
    def test_division_matches_the_product_route(self, models, cut):
        # The route before the pentagonal division: the cut numerator times
        # 1/(q)_m at m = cut, every part size below it, by the poch_sum fold.
        inverse = poch_sum({cut: QSeries.one()}, cut)
        for p, pp in models:
            params = ModelParams(p, pp)
            for r in range(1, p):
                for s in range(1, pp):
                    assert rocha_caridi(params, r, s, cut) == \
                        product(_wide_numerator(params, r, s, cut), inverse), (p, pp, r, s)

    def test_head_is_partition_like(self):
        # below every correction exponent the coefficients are p(n) - p(n-rs)
        ps = partitions(30)

        def pf(n):
            return ps[n] if n >= 0 else 0

        for p, pp, r, s in ((3, 4, 1, 1), (4, 5, 1, 2), (5, 7, 2, 3), (5, 8, 3, 1)):
            params = ModelParams(p, pp)
            n_pp = p * pp
            bound = min(
                n_pp - abs(pp * r - p * s),
                n_pp - (pp * r + p * s) + r * s,
            )
            ch = rocha_caridi(params, r, s, F(min(bound, 31)))
            for n in range(min(bound, 31)):
                assert ch.coeff(F(n)) == pf(n) - pf(n - r * s), (p, pp, r, s, n)

    def test_reflection_symmetry(self):
        for p, pp in ((3, 4), (5, 7)):
            params = ModelParams(p, pp)
            for r in range(1, p):
                for s in range(1, pp):
                    a = rocha_caridi(params, r, s, F(25))
                    b = rocha_caridi(params, p - r, pp - s, F(25))
                    assert a == b, (p, pp, r, s)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            rocha_caridi(ISING, 0, 1, F(10))
        with pytest.raises(ValueError):
            rocha_caridi(ISING, 1, 4, F(10))


class TestIm:
    def test_m_zero_is_kronecker(self):
        for p, pp in ((3, 4), (4, 5), (5, 8)):
            params = ModelParams(p, pp)
            for r in range(1, p):
                for a in range(1, pp):
                    for b in range(1, pp):
                        if (b - a) % 2:
                            continue
                        poly = I_m(params, r, a, b, 0)
                        if b == a:
                            assert poly.coeff(F(0)) == 1 and len(poly) == 1
                        else:
                            assert poly.is_zero(), (p, pp, r, a, b)

    def test_integer_exponents_and_positivity(self):
        for p, pp in ((3, 4), (4, 5), (5, 7)):
            params = ModelParams(p, pp)
            for r in range(1, p):
                for a in range(1, pp):
                    b = b_of(r, a, params)
                    for m in range(5):
                        poly = I_m(params, r, a, b, m)
                        for e, c in poly.items():
                            assert e.denominator == 1, (p, pp, r, a, m, e)
                            assert c >= 0, (p, pp, r, a, m, e)

    def test_counts_paths_at_q_one(self):
        for p, pp in ((3, 4), (4, 5)):
            params = ModelParams(p, pp)
            for r in range(1, p):
                for a in range(1, pp):
                    b = b_of(r, a, params)
                    for m in range(6):
                        assert (coeff_sum(I_m(params, r, a, b, m))
                                == count_paths(a, b, m, params)), (p, pp, r, a, m)

    def test_orbit_window_is_exact(self, monkeypatch):
        # Over a wider lam window, the terms with S_{m,idx} != 0 (|idx| <= m)
        # are the exact window's terms, in the same order.
        cases = [(ModelParams(p, pp), r, a, b, m) for p, pp in _strips(10)
                 for r in range(1, p) for a in range(1, pp)
                 for b in range(2 - a % 2, pp, 2) for m in range(11)]
        exact = [vircharacters._I_m_terms(*case) for case in cases]
        monkeypatch.setattr(vircharacters, "lattice_range", wide_window)
        for case, want in zip(cases, exact):
            m = case[-1]
            assert [t for t in vircharacters._I_m_terms(*case)
                    if abs(t[1]) <= m] == want, case

    def test_rejects_parity_mismatch(self):
        with pytest.raises(ValueError):
            I_m(ISING, 1, 1, 2, 3)

    def test_cached_pieces_match_a_fresh_build_after_use(self, capsys):
        # ``verify grading`` shifts, scales and multiplies cached pieces; none
        # of them may change under that use.
        assert run(["verify", "grading"]) == 0
        capsys.readouterr()
        for p, pp in _strips(9):
            params = ModelParams(p, pp)
            for r in range(1, p):
                for a in range(1, pp):
                    for b in range(2 - a % 2, pp, 2):
                        for m in range(9):
                            assert (I_m(params, r, a, b, m)
                                    == I_m.__wrapped__(params, r, a, b, m)), (p, pp, r, a, b, m)

    @pytest.mark.parametrize("r,a,b,m", [
        (0, 1, 1, 2), (3, 1, 1, 2), (1, 0, 2, 2), (1, 4, 2, 2), (1, 1, 5, 2),
        (1, 1, 2, 3), (1, 1, 1, -1),
    ])
    def test_bad_arguments_raise_on_every_call(self, r, a, b, m):
        for _ in range(2):
            with pytest.raises(ValueError):
                I_m(ISING, r, a, b, m)


class TestDecomposition:
    @pytest.mark.parametrize("p,pp,r,a,b", [
        (3, 4, 1, 1, 1), (3, 4, 1, 1, 3), (3, 4, 2, 1, 1),
        (4, 5, 2, 3, 3), (4, 5, 2, 3, 1), (5, 8, 2, 2, 4),
    ])
    def test_sums_to_character(self, p, pp, r, a, b):
        res = verify_rocha2(ModelParams(p, pp), r, a, b, F(26))
        assert res.ok, res.detail

    # The quiet-3 stop rule ends these m-sums too early; ROADMAP item 1.
    # Each reads "first mismatch at q^8", "q^5" and "q^10" respectively.
    STOP_RULE_WITNESSES = [(5, 9, 1, 8, 8, 10), (7, 10, 1, 5, 9, 5),
                           (11, 12, 10, 2, 2, 20)]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the quiet-3 m-sum stop rule stops too early")
    @pytest.mark.parametrize("p,pp,r,a,b,qmax", STOP_RULE_WITNESSES)
    def test_stop_rule_witness(self, p, pp, r, a, b, qmax):
        res = verify_rocha2(ModelParams(p, pp), r, a, b, F(qmax + 1))
        assert res.ok, res.detail

    @pytest.mark.parametrize("p,pp,r,a,b,qmax", STOP_RULE_WITNESSES)
    def test_witness_holds_when_every_m_is_summed(self, p, pp, r, a, b, qmax):
        # With every m <= cut + 2 summed and no quiet stop, the identity holds.
        params, cut = ModelParams(p, pp), F(qmax + 1)
        total = poch_sum({m: I_m(params, r, a, b, m) for m in range(int(cut) + 3)}, cut)
        assert total == rocha_caridi(params, r, a, cut)

    def test_detail_names_where_the_sum_stopped(self):
        res = verify_rocha2(ISING, r=1, a=1, b=3, cutoff=41)
        assert res.ok
        assert res.detail == "coefficients agree below q^41; m summed to 11"

    def test_path_side_requires_minimizing_endpoint(self):
        with pytest.raises(ValueError):
            path_sides_GEN(ISING, 1, 1, 3, 2)

    def test_path_sides_reject_negative_m(self):
        with pytest.raises(ValueError):
            path_sides_GEN(ISING, 1, 1, b_of(1, 1, ISING), -1)

    def test_path_sum_equals_Im(self):
        for p, pp in _strips(9):
            params = ModelParams(p, pp)
            for r in range(1, p):
                for a in range(1, pp):
                    for case in verify_GEN(params, r, a, 4):
                        assert case.ok, (p, pp, r, a, case)

    def test_Im_splits_over_last_step(self):
        for p, pp in _strips(9):
            params = ModelParams(p, pp)
            for r in range(1, p):
                for a in range(1, pp):
                    b = b_of(r, a, params)
                    for case in verify_IandS(params, r, a, b, 4):
                        assert case.ok, (p, pp, r, a, case)


def test_strip_kernels_build_no_fraction(monkeypatch):
    # The site tables compare the slope t = p'/p in ints, and config_sum_X,
    # f_sum and the I-and-S rebuild sum int keys over one denominator.
    params = ModelParams(5, 8)
    # cold caches, so every table and every X is built
    make_tau_table.cache_clear()
    pathweights._config_sum.cache_clear()
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    tables = [make_tau_table(ModelParams(p, pp)) for p, pp in _strips(40)]
    cases = verify_Xandf(make_tau_table(params), 4) + [
        case for r in range(1, params.p) for a in range(1, params.pp)
        for case in verify_IandS(params, r, a, b_of(r, a, params), 4)]
    # The m-sums and the rigged oracle keep an int cutoff an int.
    sums = [verify_rocha2(params, 2, 3, 5, 21), *verify_poch_inv_expansion(3, 26),
            *verify_pi2pi3(26), verify_rigged(ISING, 1, 1, 13)]
    # Sums of integer-shifted exact series run in int keys over 1.
    shifted = [*verify_abf(2, 8, 7), *verify_S_recurrences(7), *verify_pmn(6),
               *verify_exact_sequence_chars(4, 4)]
    monkeypatch.undo()
    assert len(tables) == 243
    assert len(cases) == 377 and all(case.ok for case in cases)
    assert len(sums) == 22 and all(case.ok for case in sums)
    assert len(shifted) == 585 and all(case.ok for case in shifted)
    assert built == []


def test_float_cutoff_raises_type_error():
    for call in (lambda: rocha_caridi(ISING, 1, 1, 41.0),
                 lambda: graded_13_char(1, 1, 1, 2, 41.0),
                 lambda: string_sum(0, 41.0),
                 lambda: verify_rocha2(ISING, 1, 1, 1, 41.0)):
        with pytest.raises(TypeError):
            call()


class TestRiggedOracle:
    def test_small_gf_matches_character(self):
        for r in range(1, 3):
            for a in range(1, 4):
                res = verify_rigged(ISING, r, a, F(13))
                assert res.ok, (r, a, res.detail)

    def test_gf_alone_agrees_with_series(self):
        gf = rigged_path_gf(ISING, 1, 1, F(10))
        ch = rocha_caridi(ISING, 1, 1, F(10))
        assert [gf.coeff(F(n)) for n in range(10)] == \
               [ch.coeff(F(n)) for n in range(10)]

    def test_every_strip_matches_character(self):
        # Every coprime strip with p' <= 9, all (r, a), at cuts 6 and 11:
        # the m-range and the path skip rest on proven bounds, no silent-m run.
        cases = [verify_rigged(ModelParams(p, pp), r, a, cut)
                 for p, pp in _strips(9) for r in range(1, p) for a in range(1, pp)
                 for cut in (6, 11)]
        assert len(cases) == 648
        assert [case for case in cases if not case.ok] == []

    def test_tight_chain_is_path_key(self):
        # Lemma: a path's least rigging exponent is 4p times its walker key
        # plus the end shift of path_sides_GEN, at b = b_of(r, a), m <= 6,
        # every length read off one walk per label.
        m_max, paths = 6, 0
        for p, pp in _strips(9):
            params = ModelParams(p, pp)
            table = make_tau_table(params)
            for r in range(1, p):
                for a in range(1, pp):
                    b = b_of(r, a, params)
                    ends = [_end_shifts(params, r, a, b, m) for m in range(m_max + 1)]
                    prefix: list[int] = []
                    keys = [(m, tight_chain(params, table, r, (*prefix, b)),
                             4 * p * key + ends[m][d])
                            for m, d, key in _walk(a, b, m_max, pp, table.weights, prefix)]
                    for m in range(1, m_max + 1):
                        count = sum(n == m for n, _, _ in keys)
                        assert count == count_paths(a, b, m, params), (p, pp, r, a, m)
                    assert all(x == y for _, x, y in keys), (p, pp, r, a)
                    paths += len(keys)
        assert paths == 26856

    def test_runs_match_listing_every_rigging(self):
        # Lemma *n_1 run*: the oracle counts n_1's values by their run from
        # n_2 + w[1]; the lister steps through each.  Every strip p' <= 9,
        # all (r, a), at cuts 6, 11 and 21.
        cases = [(ModelParams(p, pp), r, a, cut)
                 for p, pp in _strips(9) for r in range(1, p) for a in range(1, pp)
                 for cut in (6, 11, 21)]
        assert len(cases) == 972
        assert [case for case in cases
                if rigged_path_gf(*case) != rigged_by_rigging(*case)] == []

    def test_reaches_no_closed_form(self):
        # The oracle lists riggings itself; it must reach none of the kernels
        # of the other routes to the character.  Every cache is cleared
        # first, so that no cache hit hides a call.
        closed_forms = {
            "qlab.qcore.poch_sum", "qlab.qcore.poch_inv", "qlab.supernomial.string_sum",
            "qlab.supernomial._s_row", "qlab.supernomial._s_cell",
            "qlab.supernomial._s_family",
            "qlab.vircharacters.I_m", "qlab.vircharacters.I_m_sum",
            "qlab.vircharacters.path_sides_GEN", "qlab.pathweights.config_sum_X",
        }
        for name, module in list(sys.modules.items()):
            if name == "qlab" or name.startswith("qlab."):
                for obj in vars(module).values():
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()
        reached = set()

        def record(frame, event, arg):
            if event == "call":
                module = frame.f_globals.get("__name__", "")
                if module.startswith("qlab."):
                    reached.add(f"{module}.{frame.f_code.co_name}")

        params, outer = ModelParams(5, 8), sys.getprofile()
        sys.setprofile(record)
        try:
            for r in range(1, 5):
                for a in range(1, 8):
                    rigged_path_gf(params, r, a, 11)
        finally:
            sys.setprofile(outer)
        assert {"qlab.vircharacters.rigged_path_gf", "qlab.pathweights._walk",
                "qlab.pathweights.make_tau_table"} <= reached
        assert reached & closed_forms == set()

    def test_negative_weight_raises(self, monkeypatch):
        # The m-bound needs every weight >= 0; a table breaking that is refused.
        table = make_tau_table(ISING)
        bad = table._replace(weights={**table.weights, next(iter(table.weights)): -1})
        monkeypatch.setattr(vircharacters, "make_tau_table", lambda params: bad)
        with pytest.raises(ArithmeticError):
            rigged_path_gf(ISING, 1, 1, 10)


def test_poch_inv_expansion_identity():
    for case in verify_poch_inv_expansion(3, F(26)):
        assert case.ok, case


class TestFloorBound:
    def test_I_m_floor_bounds_I_m(self):
        # A lower bound on every strip p' <= 10, and None only for a zero I_m.
        for p, pp in _strips(10):
            params = ModelParams(p, pp)
            for r in range(1, p):
                for a in range(1, pp):
                    for b in range(2 - a % 2, pp, 2):
                        for m in range(11):
                            bound = I_m_floor(params, r, a, b, m)
                            poly = I_m(params, r, a, b, m)
                            case = (p, pp, r, a, b, m)
                            if bound is None:
                                assert poly.is_zero(), case
                            elif poly:
                                assert bound <= poly.floor, case

    def test_m_sums_match_building_every_term(self):
        # The bounded sum returns what building every term returns: total,
        # stop m and cap flag, on rocha2 and on the unitary grading sums.
        cases = [(ModelParams(p, pp), r, a, b, F(qmax))
                 for p, pp in _strips(9) for r in range(1, p) for a in range(1, pp)
                 for b in range(2 - a % 2, pp, 2) for qmax in (10, 20)]
        cases += [(unitary_params(k), r, s, r + (r - s) % 2, F(15))
                  for k in (1, 2, 3) for r in range(1, k + 2) for s in range(1, k + 3)]
        for *args, cut in cases:
            assert I_m_sum(*args, cut) == sum_over_m_every_term(
                lambda m: I_m(*args, m), cut), args


def floor_or_none(s: QSeries):
    """The exact floor of a series as an m-sum bound: None for zero."""
    return s.floor if s else None


class TestImSumStopRule:
    """The stop rule of ``I_m_sum``, on synthetic I_m and bounds patched in
    by name."""

    @staticmethod
    def m_sum(monkeypatch, poly_of, floor_of, cut=10):
        monkeypatch.setattr(vircharacters, "I_m", lambda params, r, a, b, m: poly_of(m))
        monkeypatch.setattr(vircharacters, "I_m_floor",
                            lambda params, r, a, b, m: floor_of(m))
        return I_m_sum(ISING, 1, 1, 1, cut)

    def test_leading_zero_terms_are_skipped(self, monkeypatch):
        # Five leading zeros, then 1 at m = 5: the zeros never stop the sum.
        def poly_of(m):
            return QSeries.one(None) if m == 5 else QSeries.zero(None)

        total, m, capped = self.m_sum(monkeypatch, poly_of,
                                      lambda m: floor_or_none(poly_of(m)))
        assert total == poch_inv_parts(5, 10)
        assert (m, capped) == (8, False)

    def test_stops_after_three_silent_terms(self, monkeypatch):
        seen = []

        def poly_of(m):
            seen.append(m)
            return monomial(0 if m in (0, 2) else 10)  # q^10 is at the cut

        # A bound of 0 proves nothing silent, so every term is built.
        total, m, capped = self.m_sum(monkeypatch, poly_of, lambda m: 0)
        assert seen == [0, 1, 2, 3, 4, 5]
        assert (m, capped) == (5, False)
        assert total == poch_inv_parts(0, 10) + poch_inv_parts(2, 10)

    def test_leading_terms_above_the_cut_count(self, monkeypatch):
        total, m, capped = self.m_sum(monkeypatch, lambda m: monomial(50), lambda m: 50)
        assert (m, capped, total) == (2, False, QSeries.zero(10))

    def test_cap_sets_capped(self, monkeypatch):
        # Every term is live, so only the cap int(cut) + 2 = 12 stops the sum.
        total, m, capped = self.m_sum(monkeypatch, lambda m: QSeries.one(None), lambda m: 0)
        assert (m, capped) == (13, True)
        assert total == QSeries.sum(poch_inv_parts(m, 10) for m in range(13))

    def test_provably_silent_terms_are_not_built(self, monkeypatch):
        # A leading zero, live at m = 1, then a zero and two terms at or above
        # the cut, and one at m = 5 that the rule never reaches: the bounds
        # prove every term but m = 1 zero or silent, so only m = 1 is built.
        polys = {0: QSeries.zero(None), 1: QSeries.one(None), 2: QSeries.zero(None),
                 3: monomial(10), 4: monomial(12), 5: QSeries.one(None)}
        built = []

        def poly_of(m):
            built.append(m)
            return polys[m]

        got = self.m_sum(monkeypatch, poly_of, lambda m: floor_or_none(polys[m]))
        assert built == [1]
        assert got == sum_over_m_every_term(polys.__getitem__, 10) == (
            poch_inv_parts(1, 10), 4, False)

    def test_term_below_its_bound_raises(self, monkeypatch):
        with pytest.raises(ArithmeticError, match="below its bound"):
            self.m_sum(monkeypatch, lambda m: monomial(3), lambda m: 4)
