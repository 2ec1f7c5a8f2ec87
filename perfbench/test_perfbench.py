"""Tests of the benchmark itself: its oracle constants, its metric lists,
its span accounting, and that each workload's check rejects a planted
wrong output on a copy of a real one (made by the program at reduced
sizes)."""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spawn  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

STRESS, BOTH = ("stress",), ("lifestyle", "stress")


def test_roulette_oracle_constants():
    assert oracles.roulette_truth("rd") == F(4021, 30000)
    # stress alone leaves out lifestyle, a shifted modifier of the RD
    assert oracles.roulette_limit("rd", "ipsw", STRESS) == F(8333, 60000)
    assert oracles.roulette_limit("rd", "gformula", STRESS) == F(8333, 60000)
    consistent = (("rd", "ipsw"), ("rd", "gformula"), ("sr", "local"), ("rr", "gformula"),
                  ("or", "gformula"))
    for measure, strategy in consistent:
        assert oracles.roulette_limit(measure, strategy, BOTH) == oracles.roulette_truth(measure)
    # the full set reproduces the truth, so local RD equals the g-formula
    assert oracles.roulette_limit("rd", "local", oracles.ROULETTE_COVARIATES) == F(4021, 30000)
    for population in ("source", "target"):
        cells = oracles.ROULETTE_CELLS
        assert sum(oracles.roulette_cell_probability(c, population) for c in cells) == 1


def test_continuous_oracle_constants():
    assert oracles.continuous_truth("rd") == F("37.3")
    assert oracles.continuous_truth("rr") == 1 + F("37.3") / F("14.93")
    for covariates in (("X1", "X2"), ("X1", "X2", "X3", "X4")):
        assert oracles.continuous_limit("rd", "gformula", covariates) == F("37.3")
        assert oracles.continuous_limit("rd", "local", covariates) == F("37.3")
    # X1, X2 alone: the source projection of X3 on them and the source
    # rate of X4 give a target control mean of 21.23 instead of 14.93
    assert oracles.continuous_limit("rr", "gformula", ("X1", "X2")) == 1 + F("37.3") / F("21.23")
    full = ("X1", "X2", "X3", "X4")
    assert oracles.continuous_limit("rr", "gformula", full) == oracles.continuous_truth("rr")


def test_grid_closed_forms():
    got = oracles.grid_measures(np.array([0.2, 0.3]), np.array([0.12, 0.3]))
    want = {"rd": -0.08, "rr": 0.6, "sr": 1.1, "err": -0.4, "rs": -0.1, "nnt": -12.5,
            "or": 0.12 * 0.8 / (0.2 * 0.88), "log_or": math.log(0.12 * 0.8 / (0.2 * 0.88))}
    for name, value in want.items():
        assert got[name][0] == pytest.approx(value, rel=1e-12)
    assert math.isnan(got["nnt"][1])
    null = {"rd": 0, "rr": 1, "sr": 1, "err": 0, "rs": 0, "or": 1, "log_or": 0}
    assert {name: got[name][1] for name in null} == null


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.workloads())


def test_self_time_excludes_child_spans_and_hot_calls():
    tracer = tracing.Tracer()
    leaf = tracer.hot("leaf", lambda: time.sleep(0.01))
    child = tracer.span("child", lambda: time.sleep(0.02))

    def parent():
        time.sleep(0.02)
        child()
        leaf()
        leaf()

    tracer.span("parent", parent)()
    spans = {s["name"]: s for s in tracer.spans}
    assert spans["child"]["parent"] == tracer.spans.index(spans["parent"])
    calls, leaf_s = tracer.to_json(0.0)["hot"]["leaf"]
    assert calls == 2
    duration = lambda s: s["end"] - s["start"]
    assert spans["parent"]["self"] == pytest.approx(
        duration(spans["parent"]) - duration(spans["child"]) - leaf_s, abs=1e-9
    )
    assert spans["parent"]["self"] >= 0.02


def test_worker_thread_spans_hang_under_the_open_main_thread_span():
    tracer = tracing.Tracer()
    work = tracer.span("work", lambda: time.sleep(0.02))

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: work(), range(4)))

    tracer.span("parent", parent)()
    top = tracer.spans[0]
    children = [s for s in tracer.spans if s["name"] == "work"]
    assert top["name"] == "parent" and all(s["parent"] == 0 for s in children)
    # overlapping children are subtracted once: self = duration - union
    union = tracing._covered([(s["start"], s["end"]) for s in children])
    assert union < sum(s["end"] - s["start"] for s in children)
    assert top["self"] == pytest.approx(top["end"] - top["start"] - union, abs=1e-9)


def _cli(tmp_path: Path, args: list[str]) -> str:
    out = tmp_path / "stdout.txt"
    child = spawn.run_child(run.CLI + args, run.child_env(), str(out), 120.0)
    assert child["code"] == 0, out.with_suffix(".stderr").read_text()
    return out.read_text()


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_grid_check_rejects_planted_errors(tmp_path):
    out = tmp_path / "grid.csv"
    _cli(tmp_path, ["grid", "--resolution", "12", "--out", str(out)])
    assert checks.check_grid(out, 12) == []
    rows = _rows(out)
    planted = [r[:] for r in rows]
    planted[30][3] = repr(float(planted[30][3]) * (1 + 1e-6))  # rr
    _write_rows(out, planted)
    assert any("rr differs" in e for e in checks.check_grid(out, 12))
    planted = [r[:] for r in rows]
    planted[1][7], planted[2][7] = planted[2][7], planted[1][7]  # NNT NA moves off the diagonal
    _write_rows(out, planted)
    assert any("NA on" in e for e in checks.check_grid(out, 12))
    _write_rows(out, rows[:-1])
    assert checks.check_grid(out, 12) != []


def test_roulette_check_rejects_planted_errors(tmp_path):
    out = tmp_path / "report.csv"
    args = ["simulate", "--scenario", "roulette-heterogeneous", "--seed", "3", "--reps", "6",
            "--n", "3000", "--m", "6000", "--out", str(out), "--json"]
    stdout = _cli(tmp_path, args)

    def errors(text=stdout):
        return checks.check_simulate("roulette-heterogeneous", 6, out, text)

    assert errors() == []
    rows = _rows(out)
    planted = [r[:] for r in rows]
    planted[5][6] = repr(float(planted[5][6]) * (1 + 1e-9))  # a ground_truth off by 1e-9
    _write_rows(out, planted)
    assert any("ground_truth" in e for e in errors())
    planted = [r[:] for r in rows]
    planted[9][5] = "NA"
    _write_rows(out, planted)
    assert any("NA" in e for e in errors())
    _write_rows(out, rows[:-1])
    assert any("rows" in e for e in errors())
    _write_rows(out, rows)
    assert any("parse" in e for e in errors(stdout.replace('"sd": ', '"sd": NaN, "was": ', 1)))


def test_continuous_check_rejects_a_median_moved_onto_the_truth(tmp_path):
    out = tmp_path / "report.csv"
    args = ["simulate", "--scenario", "continuous-linear", "--seed", "4", "--reps", "10",
            "--out", str(out), "--json"]
    stdout = _cli(tmp_path, args)
    assert checks.check_simulate("continuous-linear", 10, out, stdout) == []
    # rr/gformula/X1+X2 converges to 1 + 37.3/21.23, not to the truth:
    # shift its estimates (and the printed summary) onto the truth
    rows = _rows(out)
    key = ["rr", "gformula", "X1+X2"]
    values = [float(r[5]) for r in rows[1:] if r[2:5] == key]
    shift = float(oracles.continuous_truth("rr")) - float(np.median(values))
    for r in rows[1:]:
        if r[2:5] == key:
            r[5] = repr(float(r[5]) + shift)
    _write_rows(out, rows)
    summaries = json.loads(stdout)
    for s in summaries:
        if [s["measure"], s["strategy"], "+".join(s["covariates"])] == key:
            for stat in ("median", "q1", "q3", "mean"):
                s[stat] += shift
    errors = checks.check_simulate("continuous-linear", 10, out, json.dumps(summaries))
    assert any("rr/gformula/X1+X2 median" in e and "standard errors" in e for e in errors), errors


def test_transport_check_rejects_planted_errors(tmp_path):
    trial, target = tmp_path / "trial.csv", tmp_path / "target.csv"
    workloads.write_roulette_files(5, 20000, 20000, trial, target)
    expected = checks.recompute_transport(trial, target)
    for run_spec in checks.TRANSPORT_RUNS:
        measure, strategy, covariates = run_spec
        stdout = _cli(tmp_path, ["transport", "--trial", str(trial), "--target", str(target),
                                 "--measure", measure, "--strategy", strategy,
                                 "--covariates", ",".join(covariates), "--json"])
        assert checks.check_transport(run_spec, stdout, expected[run_spec], 20000, 20000) == []
        record = json.loads(stdout)
        record["value"] *= 1 + 1e-8
        errors = checks.check_transport(
            run_spec, json.dumps(record), expected[run_spec], 20000, 20000
        )
        assert any("re-computed" in e for e in errors)
    # the re-computation itself is held to the exact limit: a value moved
    # far from it is rejected even when it matches the files
    run_spec = checks.TRANSPORT_RUNS[0]
    value, se = expected[run_spec]
    moved = json.dumps({"measure": "rd", "strategy": "gformula", "covariates": list(BOTH),
                        "value": value + 10 * se, "n_source": 20000, "n_target": 20000})
    errors = checks.check_transport(run_spec, moved, (value + 10 * se, se), 20000, 20000)
    assert any("standard errors" in e for e in errors)


def test_benchmark_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "continuous-grid", "--seed", "1", "--seconds", "1"]) == 2


class _Drifting(workloads.Workload):
    """A grid whose resolution grows every round: the first round passes its
    (empty) check, and every later one writes a different file."""

    name = "drifting"
    help_args = ["grid", "--help"]

    def prepare(self, workdir, seed):
        self.out, self.rounds = workdir / "grid.csv", 0

    def commands(self):
        self.rounds += 1
        return [["grid", "--resolution", str(1 + self.rounds), "--out", str(self.out)]]

    def outputs(self, index):
        return [self.out]

    def check(self, index, stdout_text):
        return []


def test_later_rounds_must_reproduce_the_checked_output(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUNS", tmp_path)
    monkeypatch.setattr(run, "SETUP_PER_ROUND", 1)
    with spawn.Launcher() as launcher:
        result = run.run_workload(_Drifting(), 1, 1.5, False, launcher)
    assert result["attempted"] >= 2 and result["failed"] == 0
    assert result["correct"] is False
    record = json.loads((tmp_path / "drifting-seed1-trace0" / "result.json").read_text())
    assert len(record["errors"]) == result["attempted"] - 1
    assert all("differs from the checked first one" in e for e in record["errors"])


def test_launcher_pins_a_command_to_the_processor_asked_for(tmp_path):
    cpu = max(os.sched_getaffinity(0))
    out = tmp_path / "affinity.out"
    argv = [sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"]
    with spawn.Launcher() as launcher:
        assert launcher.run(argv, run.child_env(), out, 30.0, cpu)["code"] == 0
        assert out.read_text().strip() == f"[{cpu}]"
        assert launcher.run(argv, run.child_env(), out, 30.0)["code"] == 0
    assert out.read_text().strip() == str(sorted(os.sched_getaffinity(0)))
