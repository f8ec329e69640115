"""Decompose a unitary-model character into its graded filtration pieces.

Each piece is indexed by a nonnegative integer m; pieces have nonnegative
coefficients and their sum telescopes back to the full character.  The piece
series carry the conformal weight of the module as their leading exponent.
"""

from fractions import Fraction

from qlab import graded_13_char, rocha_caridi, unitary_params


def main():
    k = 1
    params = unitary_params(k)
    r, s, qmax = 1, 1, 12

    print(f"grading the ({r},{s}) module of the (p,p')=({params.p},{params.pp}) model\n")

    total = None
    for m in range(0, 9):
        piece = graded_13_char(k, r, s, m, Fraction(qmax + 1))
        head = [piece.coeff(Fraction(n)) for n in range(qmax + 1)]
        if any(head):
            print(f"  m={m}: {head}")
        total = piece if total is None else total + piece

    ch = rocha_caridi(params, r, s, Fraction(qmax + 1))
    want = [ch.coeff(Fraction(n)) for n in range(qmax + 1)]
    got = [total.coeff(Fraction(n)) for n in range(qmax + 1)]
    print("\nsum of pieces:", got)
    print("full character:", want)
    print("telescoped exactly:", got == want)


if __name__ == "__main__":
    main()
