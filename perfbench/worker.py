"""One benchmark repetition, run in a fresh interpreter so caches start cold.

Usage: ``python3 worker.py SRC_DIR`` with a JSON spec on stdin::

    {"ops": [[argv, ...], ...], "digests": {op: sha256}, "trace": false}

The worker imports qlab from SRC_DIR and builds the CLI parser, then stamps
the monotonic clock ("ready"): process start to ready is the set-up time the
parent measures.  It then runs every op through ``qlab.cli.run(argv)`` with
stdout captured, checks each op after the last one ends, and prints one JSON
result line.  Ops inside one repetition share caches, as they do in
``qlab all``.

Before every op and after the last one the worker times ``calibrate()``, a
fixed pure-Python kernel that does not touch qlab.  The parent divides each
op's time by the kernel times on either side of it, which cancels the phases
in which the whole machine runs slower or faster.
"""

import sys
import time
from fractions import Fraction

# Two sparse series with rational exponents, multiplied term by term into a
# dict: the inner loop of qlab's QSeries product, in code qlab cannot change.
_CAL_A = {Fraction(i, 5): (i * 7919) % 1009 - 500 for i in range(60)}
_CAL_B = {Fraction(i, 3): (i * 104729) % 997 - 498 for i in range(60)}
CAL_ROUNDS = 2


def calibrate() -> float:
    """Seconds this process takes for the fixed calibration kernel now."""
    start = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        acc = {}
        for e1, c1 in _CAL_A.items():
            for e2, c2 in _CAL_B.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
    return time.perf_counter() - start


def main() -> int:
    src = sys.argv[1]
    sys.path.insert(0, src)
    import qlab.cli
    qlab.cli.build_parser()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import contextlib
    import hashlib
    import io
    import json
    import os
    import resource

    if os.path.dirname(os.path.dirname(os.path.realpath(qlab.cli.__file__))) \
            != os.path.realpath(src):
        print(f"qlab imported from {qlab.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    runs = []
    cals = []
    for argv in spec["ops"]:
        cals.append(calibrate())
        buf = io.StringIO()
        error = None
        scope = tracer.span("op") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope, contextlib.redirect_stdout(buf):
                status = qlab.cli.run(argv)
        except SystemExit as exc:
            status, error = exc.code, f"SystemExit({exc.code!r})"
        except Exception as exc:  # a crashed op is a failed op
            status, error = None, f"{type(exc).__name__}: {exc}"
        runs.append((argv, start, time.perf_counter(), status, error,
                     buf.getvalue()))
    cals.append(calibrate())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ops = []
    for argv, start, end, status, error, out in runs:
        data = out.encode()
        digest = hashlib.sha256(data).hexdigest()
        failure = error or _check(argv, status, out, digest,
                                  spec["digests"].get(" ".join(argv)))
        ops.append({"argv": argv, "seconds": end - start, "bytes": len(data),
                    "sha256": digest, "failure": failure})
    result = {
        "ready": ready,
        "ops": ops,
        "cals": cals,
        "wall_s": runs[-1][2] - runs[0][1] if runs else 0.0,
        "peak_rss_mb": peak_kib / 1024,
    }
    if tracer:
        from tracer import cache_stats
        result["trace"] = {"totals": tracer.totals(), "caches": cache_stats(),
                           "runners": tracer.runner_calls}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _check(argv, status, out: str, digest: str, want) -> "str | None":
    """Why an op's result is wrong, or None when it is right.  ``want`` is
    the stdout digest recorded at the seed commit, if one was recorded."""
    import json

    if status != 0:
        return f"exit status {status}"
    if want is not None and digest != want:
        return f"stdout sha256 {digest} differs from the recorded {want}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if payload.get("ok", argv[0] != "verify") is not True:
        return "report is not ok"
    return None


if __name__ == "__main__":
    sys.exit(main())
