"""Walk through the normalized character series of a few small models.

Each character is an exact truncated q-series: big-integer coefficients,
fractional exponents, and a cutoff below which every coefficient is final.
The head of each series counts states level by level, starting from 1 at
the conformal weight itself.
"""

from fractions import Fraction

from qlab import ModelParams, delta, rocha_caridi


def show(params, r, s, qmax=12):
    ch = rocha_caridi(params, r, s, Fraction(qmax + 1))
    head = [ch.coeff(Fraction(n)) for n in range(qmax + 1)]
    d = delta(params, r, s)
    print(f"  (r,s)=({r},{s})  weight {d}:  {head}")


def main():
    for p, pp in ((3, 4), (4, 5), (5, 7)):
        params = ModelParams(p, pp)
        print(f"strip (p,p') = ({p},{pp}), t = {Fraction(pp, p)}")
        for r in range(1, p):
            for s in range(1, pp):
                show(params, r, s)
        print()

    # The strip has a reflection symmetry: (r,s) and (p-r,p'-s) label the
    # same module, so their normalized series coincide exactly.
    params = ModelParams(5, 7)
    a = rocha_caridi(params, 2, 3, Fraction(30))
    b = rocha_caridi(params, 3, 4, Fraction(30))
    print("reflection (2,3) vs (3,4) on (5,7):", "equal" if a == b else "DIFFER")


if __name__ == "__main__":
    main()
