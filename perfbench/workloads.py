"""The three benchmark workloads as lists of ``qlab`` command lines ("ops").

Each workload is a fixed op list, holding the acceptance criteria that stress
its layers at full scale, plus a few extra instances drawn from a stated
space by the run's seed.  The program only ever sees the generated argv.
The extras are kept small next to the fixed ops, so that a change of seed
moves a workload's time by a few percent at most.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 0

# Exact dense integer-exponent polynomials, no cutoff.  q_binomial ->
# exact_div and QSeries.__mul__ take nearly all the time; pathweights is
# never called.  The abf op is criterion 9 at N=14 rather than N=20: at
# N=20 the op alone takes 12-16 s, so a 30-second run held two repetitions
# and its median followed the host's speed swings.
FINITIZED = (
    "verify abf --k 1 --m 14 --qmax 14",  # criterion 9, scaled down
    "verify exactseq",
    "verify pmn",            # criterion 7
    "stable --mmax 9",
)

# Truncated series and m-summations: QSeries.__mul__ against a cutoff,
# poch_inv, I_m and the rigged-path oracle.  One op, the three i1 sectors,
# runs its chunks on two worker threads, so a runner change shows here and
# nowhere else.  The other ops run serially: on two vCPUs a pooled op's time
# swings by 15 % with the hand-over of the interpreter lock between CPUs,
# which the calibration kernel cannot track.
CHARACTERS = (
    "verify rocha2",   # criterion 3
    "verify rigged",   # criterion 5
    "verify pi2pi3",   # criterion 6
    "verify grading",  # criterion 8
    "verify pochsum",
    "verify i1 --jobs 2",
    "char --p 5 --pp 8 --r 2 --s 3 --qmax 300",
    "grading --k 2 --r 1 --s 1 --qmax 60",
)

# Strip combinatorics over many tiny sparse series with rational exponents:
# weight/energy/path_side_GEN and QSeries add/shift.
PATHS = (
    "verify relS --mmax 9",  # criterion 1
    "verify xandf",          # criterion 2
    "verify gen",            # criterion 4
    "verify tau",            # criterion 10
    "verify iands",
    "paths --p 5 --pp 8 --a 1 --b 1 --m 10 --gf",
    "paths --p 5 --pp 8 --a 1 --b 1 --m 40 --count",
)


def strips(pp_max: int) -> list[tuple[int, int]]:
    """Coprime (p, p') with 3 <= p < p' < 2p and p' <= pp_max."""
    return [(p, pp) for pp in range(4, pp_max + 1) for p in range(3, pp)
            if pp < 2 * p and math.gcd(p, pp) == 1]


def _finitized_extras(rng: random.Random) -> list[str]:
    # The finitized sum is only claimed through q^N, so deg <= N.
    ops = []
    for k in (1, 2, 3):
        n = rng.randint(6, 8)
        deg = rng.randint(n // 2, n)
        ops.append(f"verify abf --k {k} --m {n} --qmax {deg}")
    return ops


def _characters_extras(rng: random.Random) -> list[str]:
    # Strips with p' <= 8: from p' = 9 up one instance can cost 0.2-0.3 s
    # where the others cost 0.02 s, and the seed would move the workload's
    # time by 10 %.
    ops = []
    for p, pp in rng.sample(strips(8), 4):
        r = rng.randint(1, p - 1)
        a = rng.randint(1, pp - 1)
        b = rng.choice([b for b in range(1, pp) if (b - a) % 2 == 0])
        ops.append(f"verify rocha2 --p {p} --pp {pp} --r {r} --a {a} --b {b}")
    return ops


def _paths_extras(rng: random.Random) -> list[str]:
    models = rng.sample(strips(9), 4)
    return ([f"verify gen --p {p} --pp {pp} --mmax 4" for p, pp in models[:2]]
            + [f"verify xandf --p {p} --pp {pp} --mmax 4" for p, pp in models[2:]])


WORKLOADS = {
    "finitized": (FINITIZED, _finitized_extras),
    "characters": (CHARACTERS, _characters_extras),
    "paths": (PATHS, _paths_extras),
}


def ops_for(workload: str, seed: int) -> list[list[str]]:
    """The argv list of every op of ``workload`` under ``seed``."""
    fixed, extras = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [line.split() for line in (*fixed, *extras(rng))]
