"""The S / S~ polynomial family: values, support, shift recurrences."""

from fractions import Fraction

import pytest

from qlab.qcore import QSeries, supernomial2
from qlab.supernomial import (
    S, S_floor, S_table, S_tilde, string_sum, verify_S_recurrences,
)

from oracles import monomial, sum_over_m_every_term

F = Fraction


def test_hand_values():
    assert list(S(2, 0).items()) == [(F(-2), 1), (F(-1), 1), (F(0), 1)]
    assert list(S(2, 1).items()) == [(F(-1), 1), (F(0), 1)]
    assert list(S_tilde(2, 0).items()) == [(F(-1), 1), (F(0), 2)]
    assert list(S_tilde(1, 1).items()) == [(F(0), 1)]
    assert list(S_tilde(1, -1).items()) == [(F(1), 1)]


def test_diagonal_is_one():
    for m in range(7):
        assert S(m, m) == QSeries.one(None)


def test_vanishing_beyond_strip():
    for m in range(6):
        for l in (m + 1, -m - 1, m + 3):
            assert S(m, l).is_zero(), (m, l)
            assert S_tilde(m, l).is_zero(), (m, l)


def test_support_and_positivity():
    # support lives in [-(m^2-l^2), 0] with positive coefficients; the mirror
    # symmetry S~(m,-l) = q^l S~(m,l) shifts that window up by |l| for l < 0
    for m in range(9):
        for l in range(-m, m + 1):
            for fam in (S, S_tilde):
                poly = fam(m, l)
                assert not poly.is_zero()
                lo, hi = -(m * m - l * l), 0
                if fam is S_tilde and l < 0:
                    lo, hi = lo - l, -l
                for e, c in poly.items():
                    assert c > 0, (fam.__name__, m, l, e)
                    assert lo <= e <= hi, (fam.__name__, m, l, e)


def test_floor_is_exact():
    # S_floor is the least exponent of S without building it, and None
    # exactly where S vanishes.
    for m in range(15):
        for l in range(-(m + 2), m + 3):
            poly = S(m, l)
            want = poly.floor if poly else None
            assert S_floor(m, l) == want, (m, l)


def test_string_sum_matches_building_every_term():
    # One string sum serves both frames: pi2pi3 sums q^{m^2} S_{m,l}, and
    # pochsum the same terms divided by q^{l^2}, below a cut raised by l^2.
    for l in range(-6, 7):
        for c in range(41):
            cap = c + abs(l) + 4
            want = sum_over_m_every_term(lambda m: S(m, l).shift(m * m), c,
                                         abs(l), cap)[0]
            assert string_sum(l, c) == want, (l, c)
            want = sum_over_m_every_term(lambda m: S(m, l).shift(m * m - l * l), c,
                                         abs(l), cap)[0]
            assert string_sum(l, c + l * l).shift(-l * l) == want, (l, c)


def test_matches_two_row_supernomial():
    # the L1=0 two-row family is this family in 1/q
    for m in range(9):
        for l in range(-m, m + 1):
            assert supernomial2(0, m, l) == S(m, l).flip(), (m, l)


def test_recurrences_all_pass():
    checks = verify_S_recurrences(7)
    assert checks
    bad = [c for c in checks if not c.ok]
    assert not bad, bad[:5]


def _bumped(family, at):
    """``family`` with q^-1 added to its value at (m, l) = ``at``."""
    def impl(m, l):
        poly = family(m, l)
        return poly + monomial(F(-1)) if (m, l) == at else poly
    return impl


@pytest.mark.parametrize("s_tilde_impl,rec1_m3_l1", [
    (S_tilde, None),
    # S~(3,0) enters rec1 at m=3, l=1 only as a right-hand term times q^-3
    (_bumped(S_tilde, (3, 0)), "first mismatch at q^-4: 3 != 4"),
], ids=["S-only", "S-and-S_tilde"])
def test_recurrences_catch_perturbation(s_tilde_impl, rec1_m3_l1):
    # corrupt one value of S, and in the second input one of S~ too; the
    # suite must notice each
    checks = verify_S_recurrences(5, s_impl=_bumped(S, (3, 0)),
                                  s_tilde_impl=s_tilde_impl)
    first = next(c for c in checks if not c.ok)
    assert first.case_id == "relS rec1 m=2 l=0"
    assert first.detail == "first mismatch at q^-1: 2 != 1"
    (case,) = [c for c in checks if c.case_id == "relS rec1 m=3 l=1"]
    assert (None if case.ok else case.detail) == rec1_m3_l1


def test_table_export():
    table = S_table(3)
    assert table["m_max"] == 3 and table["l_max"] == 3
    seen = {(cell["m"], cell["l"]) for cell in table["cells"]}
    assert seen == {(m, l) for m in range(4) for l in range(-3, 4)}
    for cell in table["cells"]:
        assert cell["S"] == S(cell["m"], cell["l"])
        assert cell["S_tilde"] == S_tilde(cell["m"], cell["l"])


def test_rejects_negative_m():
    with pytest.raises(ValueError):
        S(-1, 0)
