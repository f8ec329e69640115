"""Count and weigh restricted paths on a strip.

Paths live on sites 1..p'-1, move by 0 or +-2 per step, and may not rest on
either wall.  Each interior visit contributes its site weight times the step
index to the energy; the energy generating function of all paths with fixed
endpoints is the configuration sum X.
"""

from fractions import Fraction

from qlab import (
    ModelParams, brute_config_sum_X, config_sum_X, count_paths,
    enumerate_paths, make_tau_table,
)


def main():
    params = ModelParams(4, 5)
    table = make_tau_table(params)
    print("site labels on (4,5):",
          {b: table.label(b) for b in range(1, 5)})

    # The table holds each weight as an integer in units of 1/p'.
    print("\nweights around the middle site:")
    for a, b, c in ((2, 2, 2), (2, 2, 4), (4, 2, 2), (2, 4, 2), (3, 3, 3)):
        print(f"  w({a},{b},{c}) = {Fraction(table.weights[a, b, c], params.pp)}")

    print("\npaths from 1 to 3 in 4 steps:")
    for path in enumerate_paths(1, 3, 4, params):
        units = sum(i * table.weights[path[i - 1:i + 2]] for i in range(1, len(path) - 1))
        print(f"  {path}  energy {Fraction(units, params.pp)}")
    print("count:", count_paths(1, 3, 4, params))

    # The transfer recurrence and the brute-force census agree exactly.
    x_rec = config_sum_X(1, 3, 3, 5, table)
    x_brute = brute_config_sum_X(1, 3, 3, 5, table)
    print("\nconfiguration sum X(1,3,3,5):", x_rec)
    print("recurrence equals enumeration:", x_rec == x_brute)


if __name__ == "__main__":
    main()
