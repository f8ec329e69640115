"""Run a handful of verification suites programmatically and summarize.

Everything the command line exposes is callable as a library; each check
returns ``qlab.report.CaseResult`` values (a case id, ``ok`` and a detail)
instead of printing, so the caller decides how to render them.
"""

from fractions import Fraction

from qlab import (
    ModelParams, make_tau_table, verify_S_recurrences, verify_Xandf,
    verify_pi2pi3, verify_pmn, verify_rocha2,
)


def summarize(name, cases):
    ok = [c for c in cases if c.ok]
    print(f"  {name:34s} {len(ok)}/{len(cases)} pass")
    return len(ok) == len(cases)


def main():
    print("identity tour (small parameters):\n")
    all_ok = True

    checks = verify_S_recurrences(6)
    all_ok &= summarize("shift recurrences", checks)

    table = make_tau_table(ModelParams(4, 7))
    all_ok &= summarize("config sums vs closed form", verify_Xandf(table, 4))

    res = verify_rocha2(ModelParams(3, 4), 1, 1, 1, Fraction(31))
    all_ok &= summarize("character decomposition", [res])

    all_ok &= summarize("level-one string sum", verify_pi2pi3(Fraction(21)))
    all_ok &= summarize("finite refinement", verify_pmn(4))

    print("\nall identities verified" if all_ok else "\nSOME CHECKS FAILED")


if __name__ == "__main__":
    main()
