"""The S / S~ polynomial family: values, support, shift recurrences."""

from fractions import Fraction

import pytest

from qlab.qcore import QSeries, supernomial2
from qlab.supernomial import S, S_floor, S_table, S_tilde, verify_S_recurrences

from oracles import monomial

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


def test_recurrences_catch_perturbation():
    # corrupt one value; the suite must notice
    def s_bad(m, l):
        poly = S(m, l)
        if (m, l) == (3, 0):
            return poly + monomial(F(-1))
        return poly

    checks = verify_S_recurrences(5, s_impl=s_bad, s_tilde_impl=S_tilde)
    first = next(c for c in checks if not c.ok)
    assert first.case_id == "relS rec1 m=2 l=0"
    assert first.detail == "first mismatch at q^-1: 2 != 1"


def test_table_export():
    table = S_table(3)
    assert table["m_max"] == 3 and table["l_max"] == 3
    seen = {(cell["m"], cell["l"]) for cell in table["cells"]}
    assert seen == {(m, l) for m in range(4) for l in range(-3, 4)}
    for cell in table["cells"]:
        assert QSeries.from_json_obj(cell["S"]) == S(cell["m"], cell["l"])


def test_rejects_negative_m():
    with pytest.raises(ValueError):
        S(-1, 0)
