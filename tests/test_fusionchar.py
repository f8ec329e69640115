"""Fused string characters, the level-one identity, finitized sums, grading."""

from fractions import Fraction

import pytest

from qlab.qcore import QSeries, compare, poch_inv, poch_sum, q_binomial
from qlab.supernomial import S
from qlab.fusionchar import (
    abf_finitized, convolve, euler_multiplicity,
    graded_13_char, level1_char, unitary_params, verify_abf,
    verify_exact_sequence_chars, verify_grading, verify_i1_sector,
    verify_pi2pi3, verify_pmn, weight_string,
)
from qlab.vircharacters import rocha_caridi

from oracles import coeff_sum, support

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
        ch = level1_char(0, F(15))
        assert compare(ch[0], poch_inv(F(15))).ok

    def test_weight_parity(self):
        for i in (0, 1):
            ch = level1_char(i, F(12))
            for w in ch:
                assert w % 2 == i

    def test_string_sum_identity(self):
        for case in verify_pi2pi3(F(21)):
            assert case.ok, case

    def test_finite_refinement(self):
        for case in verify_pmn(5):
            assert case.ok, case


class TestExactSequence:
    def test_character_identity(self):
        for case in verify_exact_sequence_chars(3, 3):
            assert case.ok, case


class TestEulerMultiplicity:
    def test_m_zero_reduces_to_kronecker(self):
        # on the integrable range 0 <= l, j <= k the alternation collapses
        for k in (1, 2):
            for j in range(0, k + 1):
                ch = weight_string(j)
                for l in range(0, k + 1):
                    got = euler_multiplicity(ch, k, l)
                    want = QSeries.one(None) if l == j else QSeries.zero(None)
                    assert got == want, (k, j, l)

    def test_boundary_label_cancels(self):
        # just past the integrable range the two families annihilate
        assert euler_multiplicity(weight_string(2), 1, 2).is_zero()


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
            for case in verify_i1_sector(k, F(26)):
                assert case.ok, (k, case)


def test_exponents_come_out_as_int_when_integral():
    from qlab.pathweights import ModelParams
    from qlab.vircharacters import I_m
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
