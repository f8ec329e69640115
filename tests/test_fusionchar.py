"""Fused string characters, the level-one identity, finitized sums, grading."""

import math
from fractions import Fraction

import pytest

from qlab import fusionchar, pathweights, qcore, supernomial, vircharacters
from qlab.qcore import QSeries, compare, poch_inv, poch_sum, q_binomial
from qlab.report import first_failure
from qlab.supernomial import S, string_sum
from qlab.fusionchar import (
    abf_finitized, euler_multiplicity, graded_13_char, unitary_params,
    verify_abf, verify_exact_sequence_chars, verify_grading, verify_i1_sector,
    verify_pi2pi3, verify_pmn,
)
from qlab.vircharacters import I_m, rocha_caridi

from oracles import (
    coeff_sum, convolve, poch_inv_parts, support, supernomial2_row, supernomial2_sum,
    weight_string, wide_window,
)

F = Fraction


def ch_pi1_fused(m: int) -> dict[int, QSeries]:
    """Character of a fused string of m two-dimensional factors: the
    weight-l component is the Gaussian binomial [m, (m+l)/2]_q."""
    return {l: q_binomial(m, (m + l) // 2) for l in range(-m, m + 1, 2)}


def dimension(ch: dict) -> int:
    """Total coefficient sum of a weight-graded character (q=1, weight forgotten)."""
    return sum(coeff_sum(s) for s in ch.values())


class TestFusedStrings:
    def test_dimensions(self):
        for m in range(7):
            assert dimension(ch_pi1_fused(m)) == 2 ** m
            assert dimension({2 * l: S(m, l) for l in range(-m, m + 1)}) == 3 ** m

    def test_components(self):
        assert ch_pi1_fused(2)[0] == q_binomial(2, 1)
        assert 3 not in ch_pi1_fused(2)

    def test_weight_string(self):
        ws = weight_string(2)
        assert sorted(ws) == [-2, 0, 2]
        assert dimension(ws) == 3

    def test_convolve_multiplies_dimension(self):
        x = {1: QSeries.one(None), -1: QSeries.one(None)}
        y = convolve(x, x)
        assert dimension(y) == 4
        assert coeff_sum(y[0]) == 2


class TestLevelOne:
    def test_vacuum_component_is_partition_series(self):
        # the weight-0 component, counted one part size at a time
        assert compare(string_sum(0, F(15)), poch_inv_parts(15, F(15))).ok

    def test_string_sum_identity(self):
        # 16 and 41/4 put some l^2 at and just past the cut
        for cut in (F(21), 16, F(41, 4)):
            for case in verify_pi2pi3(cut):
                assert case.ok, case

    def test_finite_refinement(self):
        for case in verify_pmn(5):
            assert case.ok, case

    # [4, 2] is read at N = 4, m = 2; [6, 2] = [6, 4] at N = 6, m = 2 and 4.
    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2)])
    def test_fails_exactly_where_a_product_is_bumped(self, monkeypatch, n, k):
        # One more in the middle coefficient of every product by the row
        # [n, k]: the cases N = n with |l| <= max(k, n - k) read it, and
        # each must fail with the right side one or two too high there.
        row, mul = qcore._gauss_coeffs(n, k), qcore._dense_mul

        def bumped(a, b):
            c = mul(a, b)
            if a != row:
                return c
            i = len(c) // 2
            return c[:i] + (c[i] + 1,) + c[i + 1:]

        monkeypatch.setattr(fusionchar, "_dense_mul", bumped)
        cases = verify_pmn(7)
        top = max(k, n - k)
        assert {c.case_id for c in cases if not c.ok} == {
            f"pmn N={n} l={l}" for l in range(-top, top + 1)}
        for case in cases:
            if not case.ok:
                lhs, rhs = map(int, case.detail.split(": ")[1].split(" != "))
                assert 0 < rhs - lhs <= 2, case


@pytest.fixture
def cold_row_caches():
    # A patched row kernel must leave no row built on it for later tests.
    caches = (qcore._gauss_coeffs, qcore._supernomial2_int)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


class TestExactSequence:
    def test_character_identity(self):
        for case in verify_exact_sequence_chars(3, 3):
            assert case.ok, case

    def test_a_bumped_row_fails_as_on_the_series_route(self, monkeypatch, cold_row_caches):
        # B^{lo+1} added to the packed node T(0, 2; a=0), whose lowest term
        # is B^lo: the polynomial gains q^{lo+1}.  The descent carries the
        # bump into every node that descends through it, so a case fails
        # only where a side reads the bumped node directly and the other
        # side does not carry it: k1 = 1, k2 = 1, as T(0, 2) is its first
        # right node.  The suite must report that case as the series route
        # it replaced does, series of the unpacked nodes and sum_shifted
        # through compare.
        node = qcore._supernomial2_int

        def bumped(L1, L2, twice_a, w):
            x = node(L1, L2, twice_a, w)
            if (L1, L2, twice_a) == (0, 2, 0):
                lo = ((x & -x).bit_length() - 1) // (8 * w)
                return x + (1 << 8 * w * (lo + 1))
            return x

        monkeypatch.setattr(qcore, "_supernomial2_int", bumped)
        monkeypatch.setattr(fusionchar, "_supernomial2_int", bumped)

        def supernomial2(L1, L2, a):  # at 2-byte digits, the suite's at k1, k2 <= 3
            x = qcore._supernomial2_int(L1, L2, 2 * a, 2)
            return qcore._from_dense(0, qcore._unpack(x, 2))

        def series_route(k1, k2):
            return first_failure(f"exactseq k1={k1} k2={k2}", (
                (f"a={a}", supernomial2(2 * k1, k2, a), QSeries.sum_shifted(
                    ((1, supernomial2(2 * k1 - 2, k2 + 1, a), 0),
                     (1, supernomial2(2 * k1 - 2, k2, a), 2 * k1 + k2 - 1)), 1))
                for a in range(-(k1 + k2), k1 + k2 + 1)), "exact for all weights")

        cases = verify_exact_sequence_chars(3, 3)
        assert cases == [series_route(k1, k2) for k1 in range(1, 4) for k2 in range(4)]
        (bad,) = [c for c in cases if not c.ok]
        assert bad.case_id == "exactseq k1=1 k2=1"
        assert bad.detail.startswith("a=0: first mismatch at q^")

    @pytest.mark.parametrize("k1_max,k2_max", [(1, 1), (2, 3), (4, 3), (3, 8), (1, 8), (8, 1),
                                               (8, 8)])
    def test_digit_width_is_the_least_word_above_the_bound(
            self, monkeypatch, cold_row_caches, k1_max, k2_max):
        # Every node of one call is read at the least width of 1, 2, 4 or 8
        # bytes with 256^w > 2^N, N = 2 k1_max + 2 k2_max + 2 (README,
        # *Packed descent digit width*), and the cases pass.
        N = 2 * k1_max + 2 * k2_max + 2
        want = min(w for w in (1, 2, 4, 8) if 256 ** w > 2 ** N)
        node, widths = qcore._supernomial2_int, set()

        def spy(L1, L2, twice_a, w):
            widths.add(w)
            return node(L1, L2, twice_a, w)

        monkeypatch.setattr(fusionchar, "_supernomial2_int", spy)
        assert all(case.ok for case in verify_exact_sequence_chars(k1_max, k2_max))
        assert widths == {want}

    def test_every_node_read_fits_its_digit(self):
        # The lemma's bound on the nodes themselves, on the row descent the
        # packed kernel replaced: at k1, k2 <= 6 every coefficient of the
        # left node, of the right side's two nodes and their sum, and of the
        # leaf the right side descends to, is below 2^{2 k1 + 2 k2 + 2}.
        for k1 in range(1, 7):
            for k2 in range(7):
                cap = 2 ** (2 * k1 + 2 * k2 + 2)
                for a in range(-(k1 + k2), k1 + k2 + 1):
                    first, second = (supernomial2_row(2 * k1 - 2, k2 + 1, 2 * a),
                                     supernomial2_row(2 * k1 - 2, k2, 2 * a))
                    rhs = qcore._dense_sum(((1, *first), (1, second[0] + 2 * k1 + k2 - 1,
                                                          second[1])))
                    for lo, row in (supernomial2_row(2 * k1, k2, 2 * a), first, second, rhs,
                                    supernomial2_row(2 * k1 + 2 * k2, 0, 2 * a)):
                        assert max(row, default=0) < cap, (k1, k2, a)

    def test_identity_holds_on_the_single_sum(self):
        # The suite's identity is the kernel's own descent in L2 at
        # (L1, L2) = (2k1 - 2, k2 + 1), rearranged, so the suite cannot fail
        # while that descent computes the two-row supernomial.  Here the same
        # identity on the Schilling--Warnaar single sum, which shares no code
        # with it.
        n = 0
        for k1 in range(1, 5):
            for k2 in range(5):
                for a in range(-(k1 + k2), k1 + k2 + 1):
                    lhs = supernomial2_sum(2 * k1, k2, 2 * a)
                    rhs = (supernomial2_sum(2 * k1 - 2, k2 + 1, 2 * a)
                           + supernomial2_sum(2 * k1 - 2, k2, 2 * a).shift(2 * k1 + k2 - 1))
                    assert lhs == rhs, (k1, k2, a)
                    n += 1
        assert n == 200


def string_pairs(j: int) -> list[tuple[int, QSeries]]:
    """(weight, series) pairs of a single (j+1)-dimensional factor."""
    return [(w, QSeries.one(None)) for w in range(-j, j + 1, 2)]


class TestEulerMultiplicity:
    def test_m_zero_reduces_to_kronecker(self):
        # on the integrable range 0 <= l, j <= k the alternation collapses
        for k in (1, 2):
            for j in range(0, k + 1):
                for l in range(0, k + 1):
                    got = euler_multiplicity(string_pairs(j), k, l)
                    want = QSeries.one(None) if l == j else QSeries.zero(None)
                    assert got == want, (k, j, l)

    def test_boundary_label_cancels(self):
        # just past the integrable range the two families annihilate
        assert euler_multiplicity(iter(string_pairs(2)), 1, 2).is_zero()

    def test_repeated_weights_add(self):
        # k = l = 1: weight -1 is the + term of lam = 0, weight 3 the - term
        # of lam = 1 at q^{-3 + 2}; weight 1 is neither.
        pairs = [(-1, QSeries({0: 1})), (1, QSeries({5: 7})), (-1, QSeries({2: 3})),
                 (3, QSeries({0: 1}))]
        assert euler_multiplicity(pairs, 1, 1) == QSeries({-1: -1, 0: 1, 2: 3})
        assert euler_multiplicity([(0, QSeries({0: 1})), (0, QSeries({0: -1}))], 1, 0).is_zero()

    def test_non_integer_exponent_raises(self):
        with pytest.raises(ValueError):
            euler_multiplicity([(0, QSeries({F(1, 2): 1}))], 1, 0)

    def test_pairs_match_convolved_character(self):
        # the grading route's pairs against the whole convolved character
        for k in (1, 2, 3):
            for r in range(1, k + 2):
                for s in range(1, k + 3):
                    if (r - s) % 2:
                        continue
                    for m in range(7):
                        pairs = ((2 * l + j, S(m, l)) for l in range(-m, m + 1)
                                 for j in range(1 - r, r, 2))
                        V = convolve({2 * l: S(m, l) for l in range(-m, m + 1)},
                                     weight_string(r - 1))
                        assert euler_multiplicity(pairs, k + 1, s - 1) == \
                            euler_multiplicity(V.items(), k + 1, s - 1), (k, r, s, m)


def test_euler_and_string_routes_sum_nothing_through_qseries_sum(monkeypatch):
    # The i = 0 grading route and pi2pi3 pass their terms to one signed sum;
    # QSeries.sum, the per-weight sum of a whole character, stays unused.
    want = [verify_grading(3, 6, 41), verify_pi2pi3(31)]

    def raises(*args, **kwargs):
        raise AssertionError("QSeries.sum called")

    # Cold caches, so every cached factor under the two checks is rebuilt.
    for cached in (qcore._gauss_coeffs, qcore._supernomial2_int,
                   supernomial._s_family, supernomial._s_row,
                   vircharacters.I_m, pathweights._x_int):
        cached.cache_clear()
    monkeypatch.setattr(qcore.QSeries, "sum", staticmethod(raises))
    assert [verify_grading(3, 6, 41), verify_pi2pi3(31)] == want
    assert all(case.ok for cases in want for case in cases)


class TestFinitizedSums:
    def test_parity_mismatch_vanishes(self):
        assert abf_finitized(8, 1, 0, 1).is_zero()
        assert abf_finitized(8, 1, 1, 2).is_zero()

    def test_stabilizes_in_system_size(self):
        for (j, l) in ((0, 0), (1, 1), (0, 2)):
            lo = abf_finitized(10, 1, j, l)
            hi = abf_finitized(11, 1, j, l)
            off = F((l - j) ** 2, 4)
            for n in range(9):
                assert lo.coeff(off + n) == hi.coeff(off + n), (j, l, n)

    def test_matches_character(self):
        for case in verify_abf(1, 12, 10):
            assert case.ok, case

    def test_lam_window_is_exact(self, monkeypatch):
        # A wider lam window adds only zero binomials [2N, x], x outside
        # 0..2N: the finitized sums agree.  A Gaussian row is defined only
        # for 0 <= x <= n, so the spy checks each row the exact window reads
        # and gives the wide window the zero row outside that range.
        reads = []

        def rows(n, x):
            reads.append((n, x))
            return gauss(n, x) if 0 <= x <= n else ()

        gauss = qcore._gauss_coeffs
        monkeypatch.setattr(fusionchar, "_gauss_coeffs", rows)
        cases = [(N, k, j, l) for N in range(13) for k in range(4)
                 for j in range(k + 1) for l in range(k + 2)]
        exact = [abf_finitized(*case) for case in cases]
        assert reads and all(0 <= x <= n for n, x in reads)
        monkeypatch.setattr(fusionchar, "lattice_range", wide_window)
        for case, want in zip(cases, exact):
            assert abf_finitized(*case) == want, case

    def test_k2_spot_check(self):
        for case in verify_abf(2, 10, 8):
            assert case.ok, case


class TestGrading:
    def test_unitary_params(self):
        assert unitary_params(1).pp == 4
        assert unitary_params(3).p == 5

    def test_pieces_start_at_conformal_weight(self):
        from qlab.pathweights import delta
        params = unitary_params(2)
        for r in range(1, 4):
            for s in range(1, 5):
                g0 = graded_13_char(2, r, s, 0, F(10))
                assert g0.floor >= delta(params, r, s), (r, s)

    def test_nonnegative_pieces(self):
        for k in (1, 2):
            for r in range(1, k + 2):
                for s in range(1, k + 3):
                    for m in range(4):
                        g = graded_13_char(k, r, s, m, F(15))
                        for _, c in g.items():
                            assert c >= 0, (k, r, s, m)

    def test_full_suite_small(self):
        for k in (1, 2):
            for case in verify_grading(k, 3, F(21)):
                assert case.ok, (k, case)

    def test_odd_sector_reflection(self):
        for k in (1, 2):
            for case in verify_i1_sector(k):
                assert case.ok, (k, case)

    def test_reflection_keeps_delta(self):
        # delta_key = (r p' - s p)^2 - (p' - p)^2 only changes sign inside
        # the square under (r, s) -> (p - r, p' - s).
        from qlab.pathweights import ModelParams, delta
        for pp in range(4, 17):
            for p in range(pp // 2 + 1, pp):
                if p < 3 or math.gcd(p, pp) != 1:
                    continue
                params = ModelParams(p, pp)
                for r in range(1, p):
                    for s in range(1, pp):
                        assert delta(params, r, s) == delta(params, p - r, pp - s), \
                            (p, pp, r, s)

    def test_reflected_pieces_agree_truncated(self):
        # The truncated route i1 used to take: both graded pieces built and
        # compared below a cutoff.  It must agree with i1's exact numerator
        # check at small and large cutoffs.
        for k in range(1, 5):
            p, pp = unitary_params(k)
            for r in range(1, p):
                for s in range(1, pp):
                    if (r - s) % 2 == 0:
                        continue
                    for m in range(9):
                        for c in (10, 41):
                            assert graded_13_char(k, r, s, m, c) == \
                                graded_13_char(k, p - r, pp - s, m, c), (k, r, s, m, c)

    def test_i1_fails_on_a_wrong_reflected_numerator(self, monkeypatch):
        # The reflected side is the call with b = a (i = 0); off by one
        # coefficient at m = 3, every odd sector fails there.
        def off_by_one(params, a, s, b, m):
            out = I_m(params, a, s, b, m)
            if b == a and m == 3:
                out = out + QSeries({out.floor: 1})
            return out

        monkeypatch.setattr(fusionchar, "I_m", off_by_one)
        params = unitary_params(2)
        cases = verify_i1_sector(2)
        assert len(cases) == 6
        for case in cases:
            r, s = (int(part[2:]) for part in case.case_id.split()[2:])
            ref = I_m(params, params.p - r, params.pp - s, params.p - r, 3)
            c = ref.coeff(ref.floor)
            assert not case.ok
            assert case.detail == f"m=3: first mismatch at q^{ref.floor}: {c} != {c + 1}"

    def test_nonneg_names_the_shifted_exponents(self, monkeypatch):
        # On (3,4) the sector (1, 2) has delta = 1/16.  A numerator -1 at
        # m = 0 is the piece -q^{1/16}; at m = 1 it is -q^{1/16}/(1 - q),
        # negative at every exponent 1/16 + n.  The detail keeps four.
        def negative(params, r, s, b, m):
            if (r, s) == (1, 2) and m in (0, 1):
                return QSeries({0: -1})
            return I_m(params, r, s, b, m)

        monkeypatch.setattr(fusionchar, "I_m", negative)
        cases = {case.case_id: case for case in verify_grading(1, 3, 21)}
        case = cases["grading-nonneg k=1 r=1 s=2"]
        assert not case.ok
        assert case.detail == ("negative at m=0 q^1/16, m=1 q^1/16, "
                               "m=1 q^17/16, m=1 q^33/16")
        assert all(other.ok for case_id, other in cases.items()
                   if case_id.startswith("grading-nonneg") and "r=1 s=2" not in case_id)


def test_exponents_come_out_as_int_when_integral():
    from qlab.pathweights import ModelParams
    params = ModelParams(3, 4)
    for series in (q_binomial(9, 4), q_binomial(-3, 2), poch_sum({5: QSeries.one()}, 20),
                   poch_inv(F(41, 4)), S(4, 1), I_m(params, 1, 1, 1, 4),
                   rocha_caridi(params, 1, 2, 15)):
        exps = [e for e, _ in series.items()] + support(series) + [series.floor]
        assert exps and all(type(e) is int for e in exps), series
    # On (3,4) the sector (1, 2) has delta = 1/16: its graded pieces sit at
    # half-integral exponents, which stay Fractions.
    piece = graded_13_char(1, 1, 2, 1, 10)
    assert piece.floor == F(17, 16) and type(piece.floor) is F
    assert all(type(e) is F and e.denominator == 16 for e in support(piece))


def test_finitized_head_is_ising_vacuum():
    # the (0,0) cell at large size opens with the vacuum character head
    fin = abf_finitized(14, 1, 0, 0)
    ch = rocha_caridi(unitary_params(1), 1, 1, F(8))
    for n in range(8):
        assert fin.coeff(F(n)) == ch.coeff(F(n)), n
