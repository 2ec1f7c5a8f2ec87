"""Run one ``effectmeasures`` command in process with spans recorded around
the calls into each layer, and write the spans out as JSON.

    PYTHONPATH=src python3 perfbench/tracing.py TRACE_JSON CLI_ARG...

The wrappers replace the public functions in the modules that call them
(``simbench.run_scenario`` as ``cli`` looks it up, ``transport``'s
estimators as ``simbench`` and ``cli`` look them up, and so on); the
program's files are not touched. A span records its name, thread, start,
end, parent and self time (its duration minus the part its child spans
cover). Worker threads of ``run_scenario`` have no span of their own, so
their spans take the main thread's innermost open span as parent.

``compute_measure`` and ``all_measures`` run hundreds of thousands of
times on the grid; for them the trace keeps a call count and a summed
duration per thread instead of spans. All of it stays in memory until
the command returns.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import Counter

# Per-layer metrics, in the order BENCHMARK.json lists them:
# name -> (unit, better). ``<name>_s`` sums the durations of a span or
# hot leaf, ``<name>_self_s`` a span's self times, ``<name>_calls`` counts
# calls; other names are counters.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.main_self_s": ("s", "lower"),
    "simbench.sample_trial_s": ("s", "lower"),
    "simbench.sample_target_s": ("s", "lower"),
    "simbench.run_scenario_self_s": ("s", "lower"),
    "simbench.write_report_csv_s": ("s", "lower"),
    "simbench.replications": ("count", "higher"),
    "simbench.estimates": ("count", "higher"),
    "simbench.estimates_failed": ("count", "lower"),
    "transport.sample_validate_s": ("s", "lower"),
    "transport.gformula_cell_means_s": ("s", "lower"),
    "transport.ipsw_s": ("s", "lower"),
    "transport.local_cell_means_s": ("s", "lower"),
    "transport.gformula_least_squares_s": ("s", "lower"),
    "transport.local_least_squares_s": ("s", "lower"),
    "transport.density_ratio_s": ("s", "lower"),
    "transport.least_squares_fit_s": ("s", "lower"),
    "transport.estimator_calls": ("count", "higher"),
    "transport.estimator_failures": ("count", "lower"),
    "measures.compute_measure_s": ("s", "lower"),
    "measures.compute_measure_calls": ("count", "lower"),
    "measures.all_measures_s": ("s", "lower"),
    "measures.all_measures_calls": ("count", "lower"),
    "genmodel.population_measures_binary_s": ("s", "lower"),
    "genmodel.population_measures_binary_calls": ("count", "lower"),
    "dataio.load_trial_s": ("s", "lower"),
    "dataio.load_target_s": ("s", "lower"),
    "dataio.rows_parsed": ("count", "higher"),
    "dataio.emit_grid_self_s": ("s", "lower"),
    "dataio.bytes_written": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
}


class _Frame:
    __slots__ = ("id", "children", "hot_child_s")

    def __init__(self, span_id: int | None) -> None:
        self.id = span_id
        self.children: list[tuple[float, float]] = []  # intervals of child spans
        self.hot_child_s = 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children on several threads overlap)."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._stacks: dict[int, list[_Frame]] = {}
        self._hot: dict[int, dict[str, list]] = {}

    def _stack(self) -> tuple[int, list[_Frame]]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            with self._lock:
                stack = self._stacks[tid] = []
                self._hot[tid] = {}
        return tid, stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def fail(self, kind: str) -> None:
        with self._lock:
            self.failures[kind] += 1

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result, exc)``
        runs once the call has ended."""

        def wrapper(*args, **kwargs):
            tid, stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main) if tid != self._main else None
                parent = main[-1] if main else None
            with self._lock:
                span_id = len(self.spans)
                self.spans.append({})
            frame = _Frame(span_id)
            stack.append(frame)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    with self._lock:
                        parent.children.append((start, end))
                self.spans[span_id] = {
                    "name": name,
                    "thread": tid,
                    "start": start,
                    "end": end,
                    "parent": None if parent is None else parent.id,
                    "self": end - start - _covered(frame.children) - frame.hot_child_s,
                }
                if after is not None:
                    after(args, result, error)

        return wrapper

    def hot(self, name: str, fn):
        """Wrap a leaf called too often for spans: count and sum per thread."""

        def wrapper(*args, **kwargs):
            tid, stack = self._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent.hot_child_s += elapsed
                entry = self._hot[tid].setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed

        return wrapper

    def to_json(self, import_s: float) -> dict:
        hot: dict[str, list] = {}
        for per_thread in self._hot.values():
            for name, (calls, total) in per_thread.items():
                entry = hot.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += total
        return {
            "import_s": import_s,
            "spans": self.spans,
            "hot": hot,
            "counts": dict(self.counts),
            "failures": dict(self.failures),
        }


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from effectmeasures import cli, dataio, measures, simbench, transport

    def count_report(args, report, error):
        if report is not None:
            tracer.count("simbench.replications", len(report.results))
            tracer.count("simbench.estimates", sum(len(r.estimates) for r in report.results))
            tracer.count("simbench.estimates_failed", sum(len(r.failures) for r in report.results))

    simbench.run_scenario = tracer.span(
        "simbench.run_scenario", simbench.run_scenario, count_report
    )
    simbench.write_report_csv = tracer.span("simbench.write_report_csv", simbench.write_report_csv)
    builtin_scenario = simbench.builtin_scenario

    def traced_scenario(name):
        scenario = builtin_scenario(name)
        scenario.sample_trial = tracer.span("simbench.sample_trial", scenario.sample_trial)
        scenario.sample_target = tracer.span("simbench.sample_target", scenario.sample_target)
        return scenario

    simbench.builtin_scenario = traced_scenario
    simbench.population_measures_binary = tracer.span(
        "genmodel.population_measures_binary", simbench.population_measures_binary
    )
    for module in (simbench, dataio):
        module.TrialSample = tracer.span("transport.sample_validate", transport.TrialSample)
        module.TargetSample = tracer.span("transport.sample_validate", transport.TargetSample)

    def count_estimate(args, result, error):
        tracer.count("transport.estimator_calls")
        if error is not None:
            tracer.count("transport.estimator_failures")
            tracer.fail(type(error).__name__)

    def estimator(strategy: str, fn, learner_position: int | None):
        """One span name per learner, e.g. ``transport.gformula_least_squares``;
        IPSW takes no learner."""
        by_learner = {}
        for learner in transport.Learner:
            suffix = "" if learner_position is None else "_" + learner.value.replace("-", "_")
            by_learner[learner] = tracer.span(f"transport.{strategy}{suffix}", fn, count_estimate)

        def wrapper(*args, **kwargs):
            learner = kwargs.get("learner", transport.Learner.CELL_MEANS)
            if learner_position is not None and len(args) > learner_position:
                learner = args[learner_position]
            return by_learner[learner](*args, **kwargs)

        return wrapper

    for module in (simbench, cli):
        module.gformula_conditional = estimator("gformula", transport.gformula_conditional, 4)
        module.ipsw_conditional = estimator("ipsw", transport.ipsw_conditional, None)
        module.generalize_local = estimator("local", transport.generalize_local, 4)
    transport.estimate_density_ratio = tracer.span(
        "transport.density_ratio", transport.estimate_density_ratio
    )
    transport.least_squares_fit = tracer.span(
        "transport.least_squares_fit", transport.least_squares_fit
    )

    compute_measure = tracer.hot("measures.compute_measure", measures.compute_measure)
    for module in (measures, transport, cli):
        module.compute_measure = compute_measure
    all_measures = tracer.hot("measures.all_measures", measures.all_measures)
    for module in (dataio, cli):
        module.all_measures = all_measures

    def count_rows(args, sample, error):
        if sample is not None:
            tracer.count("dataio.rows_parsed", sample.n)

    dataio.load_trial = tracer.span("dataio.load_trial", dataio.load_trial, count_rows)
    dataio.load_target = tracer.span("dataio.load_target", dataio.load_target, count_rows)

    def count_bytes(args, result, error):
        if error is None:
            tracer.count("dataio.bytes_written", os.path.getsize(args[1]))

    dataio.emit_grid = tracer.span("dataio.emit_grid", dataio.emit_grid, count_bytes)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traces of one round (``trace.wall_s``
    is measured outside the traced process and left at 0 here)."""
    out = dict.fromkeys(PER_LAYER, 0)

    def add(name: str, value) -> None:
        if name in out:
            out[name] += value

    for trace in traces:
        add("cli.import_s", trace["import_s"])
        for span in trace["spans"]:
            add(span["name"] + "_s", span["end"] - span["start"])
            add(span["name"] + "_self_s", span["self"])
            add(span["name"] + "_calls", 1)
        for name, (calls, total) in trace["hot"].items():
            add(name + "_s", total)
            add(name + "_calls", calls)
        for name, n in trace["counts"].items():
            add(name, n)
    return out


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    from effectmeasures import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = tracer.span("cli.main", cli.main)(cli_args)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
