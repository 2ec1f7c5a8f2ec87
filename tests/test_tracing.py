"""The benchmark's tracer sees every estimator call.

``perfbench/tracing.py`` times the estimators by wrapping them under the
names ``simbench`` and ``cli`` call them by. A dispatch that reached the
estimators any other way would leave its calls out of the per-layer
metrics. The tracer patches modules globally, so each command runs
traced in its own process, as the benchmark runs it. Every hook the
tracer installs must also still be reached under its name.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from effectmeasures.simbench import builtin_scenario, default_config, estimators

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("_traced_layers", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def run_traced(tmp_path: Path, *cli_args: str) -> dict:
    """The trace of one command, run under the tracer in its own process."""
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(trace_path), *cli_args],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(trace_path.read_text())


def traced_metrics(tmp_path: Path, *cli_args: str) -> dict:
    return tracing.layer_metrics([run_traced(tmp_path, *cli_args)])


def traced_span_names(tmp_path: Path, *cli_args: str) -> set[str]:
    return {span["name"] for span in run_traced(tmp_path, *cli_args)["spans"]}


def span_metric(name: str, learner_value: str) -> str:
    """The per-layer metric timing estimator ``name`` under a learner; an
    estimator with one learner has one span name."""
    suffixed = f"transport.{name}_{learner_value.replace('-', '_')}_s"
    return suffixed if suffixed in tracing.PER_LAYER else f"transport.{name}_s"


@pytest.mark.parametrize(
    "scenario, sizes",
    [
        ("roulette-heterogeneous", ["--n", "400", "--m", "600"]),
        ("continuous-linear", ["--n", "200", "--m", "300"]),
    ],
)
def test_simulate_counts_and_times_every_estimator(tmp_path, scenario, sizes):
    reps = 2
    metrics = traced_metrics(
        tmp_path, "simulate", "--scenario", scenario, "--seed", "7", "--reps", str(reps),
        *sizes, "--out", str(tmp_path / "report.csv"),
    )
    study = builtin_scenario(scenario)
    config = default_config(study)
    assert metrics["transport.estimator_calls"] == reps * len(config)
    assert metrics["simbench.estimates"] + metrics["simbench.estimates_failed"] == reps * len(config)
    for entry in config:
        assert metrics[span_metric(entry.strategy, study.learner.value)] > 0, entry
    assert metrics["simbench.sample_trial_s"] > 0
    assert metrics["simbench.sample_target_s"] > 0


@pytest.mark.parametrize("name", list(estimators()))
def test_transport_counts_and_times_its_estimator(tmp_path, name):
    (tmp_path / "trial.csv").write_text(
        "x,a,y\n" + "0,0,0\n0,0,1\n0,1,1\n0,1,1\n1,0,0\n1,0,1\n1,1,0\n1,1,1\n"
    )
    (tmp_path / "target.csv").write_text("x,y0\n0,0\n1,1\n1,0\n")
    metrics = traced_metrics(
        tmp_path, "transport", "--trial", "trial.csv", "--target", "target.csv",
        "--measure", "rd", "--strategy", name, "--covariates", "x", "--json",
    )
    assert metrics["transport.estimator_calls"] == 1
    assert metrics["transport.estimator_failures"] == 0
    assert metrics[span_metric(name, "cell-means")] > 0


def test_every_hook_of_the_tracer_is_reached(tmp_path, monkeypatch):
    """The tracer wraps the program's functions by module and name, and a
    wrapper whose name no caller looks up any more records nothing. Each
    benchmark command must therefore still reach the spans it is timed by,
    ``genmodel.population_measures_binary`` (simbench's name for the
    roulette truth) included."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    spans = traced_span_names(
        tmp_path, "simulate", "--scenario", "roulette-heterogeneous", "--seed", "1",
        "--reps", "2", "--n", "400", "--m", "400", "--out", "report.csv",
    )
    assert spans >= {
        "cli.main", "simbench.run_scenario", "simbench.sample_trial", "simbench.sample_target",
        "simbench.write_report_csv", "genmodel.population_measures_binary",
        "transport.sample_validate", "transport.gformula_cell_means", "transport.ipsw",
        "transport.local_cell_means", "transport.density_ratio",
    }
    assert traced_span_names(tmp_path, "grid", "--resolution", "3", "--out", "grid.csv") >= {
        "cli.main", "dataio.emit_grid",
    }
    workloads.write_roulette_files(1, 300, 300, tmp_path / "trial.csv", tmp_path / "target.csv")
    spans = traced_span_names(
        tmp_path, "transport", "--trial", "trial.csv", "--target", "target.csv",
        "--measure", "rr", "--strategy", "ipsw", "--covariates", "lifestyle,stress", "--json",
    )
    assert spans >= {
        "cli.main", "dataio.load_trial", "dataio.load_target", "transport.sample_validate",
        "transport.ipsw", "transport.density_ratio",
    }
