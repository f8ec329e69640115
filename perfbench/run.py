"""qlab benchmark: run one workload's qlab command lines and report metrics.

    python3 perfbench/run.py --workload finitized --seed 0 --seconds 30 --trace 0

Each repetition runs the workload's ops (see ``workloads.py``) in a fresh
interpreter through ``qlab.cli.run(argv)``, so caches start cold as they do
for every CLI invocation.  Repetitions continue until ``--seconds`` have
passed; metrics are medians over them.  Every op is checked: exit status 0,
a report with ``"ok": true``, no exception, and, where one was recorded at
the seed commit, the SHA-256 of its stdout.

Times are reported in reference seconds: each op's time is scaled by
``REF_CAL_S`` over the time of a fixed calibration kernel run just before
and just after it (``worker.calibrate``).  The host's speed drifts by up to
1.85x over seconds to minutes; the scaled times do not.  Raw medians go to
stderr.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics taken from the traced ones.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Workers keep compiled bytecode here, as an installed package has it, so
# set-up time is import time rather than compile time.
PYCACHE = os.path.join(ROOT, ".bench_build", "pycache")
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS, ops_for  # noqa: E402

# Set-up is sampled by spawn-only probes besides the repetitions, so that
# even a workload with two repetitions per run reports a median of several.
SETUP_PROBES = 10
REP_TIMEOUT_S = 170
# The unit of the reported times: a reference second is the time in which
# the calibration kernel runs in REF_CAL_S seconds.  The value is about the
# kernel's time on a 2-vCPU Xeon VM at its faster phases, so reference
# seconds there are close to wall seconds.
REF_CAL_S = 0.03

END_TO_END = {"wall_ref_s": "s", "op_max_ref_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

_VERIFY = ("supernomial.verify_S_recurrences", "pathweights.verify_Xandf",
           "vircharacters.verify_rocha2", "vircharacters.verify_GEN",
           "vircharacters.verify_IandS", "vircharacters.verify_rigged",
           "vircharacters.verify_poch_inv_expansion",
           "fusionchar.verify_exact_sequence_chars", "fusionchar.verify_pi2pi3",
           "fusionchar.verify_pmn", "fusionchar.verify_grading",
           "fusionchar.verify_i1_sector", "fusionchar.verify_abf")

# Span name -> the per-layer figures read from it ("work" is the span's
# work counter under the given metric suffix).
_SPAN_METRICS = {
    "qcore.exact_div": ("calls", "self_s", "work:quotient_terms"),
    "qcore.q_binomial": ("calls", "self_s"),
    "qcore.mul": ("calls", "self_s", "work:term_pairs"),
    "qcore.add": ("calls", "self_s", "work:terms"),
    "qcore.shift": ("self_s",),
    "qcore.poch_inv": ("calls", "self_s"),
    "qcore.compare": ("self_s",),
    "qcore.supernomial2": ("self_s",),
    "supernomial.S": ("calls", "self_s"),
    "pathweights.weight": ("calls", "self_s"),
    "pathweights.energy": ("calls", "self_s"),
    "pathweights.enumerate_paths": ("calls", "self_s", "work:paths"),
    "pathweights.config_sum_X": ("calls", "self_s"),
    "pathweights.f_sum": ("calls", "self_s"),
    "pathweights.make_tau_table": ("calls", "self_s"),
    "vircharacters.I_m": ("calls", "self_s"),
    "vircharacters.rocha_caridi": ("calls", "self_s"),
    "vircharacters.path_side_GEN": ("calls", "self_s"),
    "vircharacters.rigged_path_gf": ("calls", "self_s"),
    "fusionchar.abf_finitized": ("self_s",),
    "fusionchar.graded_13_char": ("self_s",),
    "fusionchar.euler_multiplicity": ("self_s",),
    **{name: ("self_s",) for name in _VERIFY},
    "cli.runner": ("self_s",),
    "report.emit": ("self_s",),
}


def _unit(metric: str) -> str:
    suffix = metric.rpartition(".")[2]
    if suffix.endswith("_s"):
        return "s"
    if suffix in ("hit_ratio", "parallel_eff", "overhead_share"):
        return "ratio"
    if suffix == "stdout_bytes":
        return "bytes"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_figures(rep: dict) -> dict[str, float]:
    """Per-layer figures of one traced repetition."""
    totals = rep["trace"]["totals"]
    caches = defaultdict(lambda: [0, 0, 0], rep["trace"]["caches"])
    out: dict[str, float] = {}
    for span, fields in _SPAN_METRICS.items():
        row = totals.get(span, {})
        for field in fields:
            key, _, label = field.partition(":")
            out[f"{span}.{label or key}"] = row.get(key, 0)
    hits, misses, entries = caches["q_binomial"]
    out["qcore.q_binomial.hit_ratio"] = _ratio(hits, hits + misses)
    out["qcore.q_binomial.dup_misses"] = misses - entries
    hits, misses, _ = caches["supernomial2"]
    out["qcore.supernomial2.hit_ratio"] = _ratio(hits, hits + misses)
    s_hits, s_misses, s_entries = (a + b for a, b in zip(caches["S"],
                                                         caches["S_tilde"]))
    out["supernomial.S.hit_ratio"] = _ratio(s_hits, s_hits + s_misses)
    out["supernomial.S.entries"] = s_entries
    out["pathweights.config_sum_X.entries"] = caches["X"][2]
    out["vircharacters.tau_tables.entries"] = caches["tau_tables"][2]
    runners = rep["trace"]["runners"]
    out["cli.runner.chunks"] = sum(r["chunks"] for r in runners)
    out["cli.runner.cpu_s"] = sum(r["cpu_s"] for r in runners)
    out["cli.runner.parallel_eff"] = _ratio(
        totals.get("cli.chunk", {}).get("total_s", 0.0),
        sum(r["wall_s"] * r["workers"] for r in runners))
    out["report.stdout_bytes"] = sum(op["bytes"] for op in rep["ops"])
    out["trace.uncovered_s"] = sum(totals.get(name, {}).get("self_s", 0.0)
                                   for name in ("op", "cli.chunk"))
    return out


def spawn(ops: list[list[str]], digests: dict, trace: bool) -> dict:
    """Run ``ops`` in a fresh worker process; adds its set-up time."""
    spec = json.dumps({"ops": ops, "digests": digests, "trace": trace})
    env = {k: v for k, v in os.environ.items()
           if k not in ("QLAB_JOBS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), SRC],
                          input=spec, stdout=subprocess.PIPE, text=True,
                          env=env, timeout=REP_TIMEOUT_S, check=True)
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["setup_s"] = rep["ready"] - start
    cals = rep["cals"]
    rep["ref_ops"] = [op["seconds"] * 2 * REF_CAL_S / (before + after)
                      for op, before, after in zip(rep["ops"], cals, cals[1:])]
    rep["setup_ref_s"] = rep["setup_s"] * REF_CAL_S / cals[0]
    return rep


def measure(ops: list[list[str]], digests: dict, seconds: float,
            trace: bool) -> tuple[dict[str, float], list[dict]]:
    """Repeat the workload for ``seconds``; return metrics and every rep."""
    spawn([], digests, False)  # writes bytecode on a first run; not measured
    probes = [] if trace else [spawn([], digests, False)
                               for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(spawn(ops, digests, False))
        if trace:
            traced.append(spawn(ops, digests, True))

    med = statistics.median
    print(f"raw medians: wall {med(r['wall_s'] for r in plain):.4f} s, "
          f"set-up {med(r['setup_s'] for r in probes + plain):.4f} s, "
          f"calibration {med(c for r in plain for c in r['cals']):.5f} s; "
          f"{len(plain)} repetitions", file=sys.stderr)
    if not trace:
        metrics = {
            "wall_ref_s": med(sum(r["ref_ops"]) for r in plain),
            "op_max_ref_s": med(max(r["ref_ops"]) for r in plain),
            "setup_s": med(r["setup_ref_s"] for r in probes + plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        }
        return metrics, plain
    figures = [layer_figures(r) for r in traced]
    metrics = {name: med(f[name] for f in figures) for name in figures[0]}
    metrics["trace.overhead_share"] = (
        med(sum(r["ref_ops"]) for r in traced)
        / med(sum(r["ref_ops"]) for r in plain) - 1)
    return metrics, plain + traced


def tally(reps: list[dict]) -> tuple[int, int]:
    """(attempted, failed) op counts over ``reps``; reports each failure."""
    ops = [op for rep in reps for op in rep["ops"]]
    for op in ops:
        if op["failure"]:
            print(f"FAIL {' '.join(op['argv'])}: {op['failure']}",
                  file=sys.stderr)
    return len(ops), sum(1 for op in ops if op["failure"])


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    empty = {"ops": [], "trace": {"totals": {}, "caches": {}, "runners": []}}
    return [*layer_figures(empty), "trace.overhead_share"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qlab", "cli.py")):
        print(f"no qlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)
    ops = ops_for(args.workload, args.seed)
    metrics, reps = measure(ops, digests, args.seconds, bool(args.trace))

    attempted, failed = tally(reps)
    names = per_layer_names() if args.trace else list(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name],
                           "unit": END_TO_END.get(name) or _unit(name)}
                    for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
