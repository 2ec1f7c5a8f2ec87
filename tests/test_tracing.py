"""The benchmark's tracer sees every estimator call.

``perfbench/tracing.py`` times the estimators by wrapping them under the
names ``simbench`` and ``cli`` call them by. A dispatch that reached the
estimators any other way would leave its calls out of the per-layer
metrics. The tracer patches modules globally, so each command runs
traced in its own process, as the benchmark runs it.
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


def traced_metrics(tmp_path: Path, *cli_args: str) -> dict:
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(trace_path), *cli_args],
        check=True, cwd=tmp_path, env=env, capture_output=True,
    )
    return tracing.layer_metrics([json.loads(trace_path.read_text())])


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
