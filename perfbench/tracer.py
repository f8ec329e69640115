"""Spans around calls into each qlab layer, recorded from outside ``src/``.

The tracer wraps each layer's public functions and rebinds the wrapper under
every qlab module name bound to the same object, because modules import
functions by name (``supernomial`` and ``fusionchar`` both hold their own
``q_binomial``).  ``QSeries`` methods are wrapped on the class.  Spans stay in
memory as ``[name, start, end, parent, work]`` lists with a link to the span
that caused them; a span's self time is its duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

Span = list  # [name, start, end, parent span or None, work count or None]


def _result_len(args, result) -> int:
    return len(result)


def _terms(x) -> int:
    return len(x) if hasattr(x, "__len__") else 1  # an int factor is one term


def _term_pairs(args, result) -> int:
    return _terms(args[0]) * _terms(args[1])


def _input_terms(args, result) -> int:
    return sum(_terms(x) for x in args[:2])


# (span name, module, attribute, work counter).  Every public verify_*
# function is added by name under "<module>.<function>".
FUNCTIONS = (
    ("qcore.exact_div", "qcore", "exact_div", _result_len),
    ("qcore.q_binomial", "qcore", "q_binomial", None),
    ("qcore.poch_inv", "qcore", "poch_inv", None),
    ("qcore.supernomial2", "qcore", "supernomial2", None),
    ("qcore.compare", "qcore", "compare", None),
    ("supernomial.S", "supernomial", "S", None),
    ("supernomial.S", "supernomial", "S_tilde", None),
    ("pathweights.weight", "pathweights", "weight", None),
    ("pathweights.energy", "pathweights", "energy", None),
    ("pathweights.enumerate_paths", "pathweights", "enumerate_paths", _result_len),
    ("pathweights.config_sum_X", "pathweights", "config_sum_X", None),
    ("pathweights.f_sum", "pathweights", "f_sum", None),
    ("pathweights.make_tau_table", "pathweights", "make_tau_table", None),
    ("vircharacters.I_m", "vircharacters", "I_m", None),
    ("vircharacters.rocha_caridi", "vircharacters", "rocha_caridi", None),
    ("vircharacters.path_side_GEN", "vircharacters", "path_side_GEN", None),
    ("vircharacters.rigged_path_gf", "vircharacters", "rigged_path_gf", None),
    ("fusionchar.abf_finitized", "fusionchar", "abf_finitized", None),
    ("fusionchar.graded_13_char", "fusionchar", "graded_13_char", None),
    ("fusionchar.euler_multiplicity", "fusionchar", "euler_multiplicity", None),
    ("report.emit", "cli", "_emit", None),
    ("report.emit", "cli", "_report_exit", None),
)

# (span name, class module, class, method, work counter).  A call whose
# caller is a span of the same name joins its caller's span instead of
# opening one: a - b is one "qcore.add" op however __sub__ is written.
METHODS = (
    ("qcore.mul", "qcore", "QSeries", "__mul__", _term_pairs),
    ("qcore.add", "qcore", "QSeries", "__add__", _input_terms),
    ("qcore.add", "qcore", "QSeries", "__sub__", _input_terms),
    ("qcore.add", "qcore", "QSeries", "__neg__", _input_terms),
    ("qcore.shift", "qcore", "QSeries", "shift", None),
    ("report.emit", "qcore", "QSeries", "to_json_obj", None),
    ("report.emit", "report", "SuiteReport", "to_json_obj", None),
    ("report.emit", "report", "SuiteReport", "to_json", None),
    ("report.emit", "report", "SuiteReport", "to_csv", None),
)

VERIFY_MODULES = ("supernomial", "pathweights", "vircharacters", "fusionchar")


def _qlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "qlab" or name.startswith("qlab.")]


def _rebind(namespaces, old, new) -> None:
    """Point every name bound to ``old`` in ``namespaces`` at ``new``; a class
    can hold one function twice (``__rmul__ = __mul__``)."""
    for ns in namespaces:
        for attr, val in list(vars(ns).items()):
            if val is old:
                setattr(ns, attr, new)


class Tracer:
    """Records spans at each qlab layer boundary for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.runner_calls: list[dict] = []
        self._local = threading.local()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, work=None) -> Callable:
        spans, clock, get_stack = self.spans, time.perf_counter, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = get_stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == name:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, parent, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                spans.append(span)
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[Span] = None):
        """A span the harness itself opens.  Spans inside it link to it; its
        parent is ``parent``, or by default the innermost open span."""
        stack = self._stack()
        saved = stack[:]
        if parent is None and stack:
            parent = stack[-1]
        span = [name, time.perf_counter(), 0.0, parent, None]
        stack[:] = [span]
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            stack[:] = saved
            self.spans.append(span)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function in the imported qlab package."""
        import qlab.cli  # noqa: F401  (imports every layer module)

        mods = {m.__name__.rpartition(".")[2]: m for m in _qlab_modules()}
        targets = [(name, getattr(mods[mod], attr, None), work)
                   for name, mod, attr, work in FUNCTIONS]
        for short in VERIFY_MODULES:
            mod = mods[short]
            targets += [(f"{short}.{attr}", fn, None)
                        for attr, fn in sorted(vars(mod).items())
                        if attr.startswith("verify_") and callable(fn)
                        and fn.__module__ == mod.__name__]
        wrappers = [(fn, self.wrap(name, fn, work))
                    for name, fn, work in targets if fn is not None]
        run_chunks = getattr(mods["cli"], "_run_chunks", None)
        if run_chunks is not None:
            wrappers.append((run_chunks, self._wrap_runner(run_chunks)))
        for fn, wrapper in wrappers:
            _rebind(mods.values(), fn, wrapper)
        for name, mod, cls_name, meth, work in METHODS:
            cls = getattr(mods[mod], cls_name)
            fn = cls.__dict__.get(meth)
            if fn is not None:
                _rebind([cls], fn, self.wrap(name, fn, work))

    def _wrap_runner(self, run_chunks: Callable) -> Callable:
        """Chunks run on pool threads, so their spans link to the runner span
        explicitly; the runner's self time is what no chunk covers."""
        from qlab import report

        @functools.wraps(run_chunks)
        def traced(chunks, jobs):
            cpu = time.process_time()
            with self.span("cli.runner") as span:
                result = run_chunks([(name, self._wrap_chunk(thunk, span))
                                     for name, thunk in chunks], jobs)
            n = report.default_jobs() if jobs is None else max(1, jobs)
            self.runner_calls.append({
                "wall_s": span[2] - span[1],
                "cpu_s": time.process_time() - cpu,
                "chunks": len(chunks),
                "workers": max(1, min(n, len(chunks))),
            })
            return result

        return traced

    def _wrap_chunk(self, thunk: Callable, runner: Span) -> Callable:
        def traced():
            with self.span("cli.chunk", runner):
                return thunk()
        return traced

    # -- aggregation ------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and work, each summed."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s[3] is not None:
                children[id(s[3])].append((s[1], s[2]))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        for s in self.spans:
            row = out[s[0]]
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += (s[2] - s[1]) - _covered(children.get(id(s), ()))
            if s[4] is not None:
                row["work"] += s[4]
        return out


def cache_stats() -> dict[str, list[int]]:
    """[hits, misses, entries] of each qlab cache; absent caches read 0."""
    from qlab import pathweights, qcore, supernomial, vircharacters

    out = {}
    for key, mod, attr in (("q_binomial", qcore, "q_binomial"),
                           ("supernomial2", qcore, "_supernomial2"),
                           ("S", supernomial, "S"),
                           ("S_tilde", supernomial, "S_tilde")):
        fn = getattr(mod, attr, None)
        info = getattr(getattr(fn, "__wrapped__", fn), "cache_info", None)
        if info is None:
            out[key] = [0, 0, 0]
        else:
            hits, misses, _, entries = info()
            out[key] = [hits, misses, entries]
    out["X"] = [0, 0, len(getattr(pathweights, "_X_CACHE", ()))]
    out["tau_tables"] = [0, 0, len(getattr(vircharacters, "_TABLES", ()))]
    return out


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
