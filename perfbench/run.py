"""Benchmark for effectmeasures: runs one workload, checks its outputs and
prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. The program is imported from the
tree's ``src/``; nothing needs to be installed or built. Each command runs
in a fresh interpreter, as a user runs it, and repeats in whole rounds
for as long as they fit in ``--seconds`` seconds (at least one round).
The first round's outputs are checked against the oracles; every later
round must reproduce them byte for byte, since its inputs are the same.

With ``--trace 0`` it prints the end-to-end metrics, each the median over
the run's rounds (``setup_s`` over its own start-ups, taken before each
round so that they spread over the run as the rounds do):

* ``setup_s``: wall time of the workload's first command with ``--help``;
* ``wall_s``: wall time of one round of commands;
* ``cpu_s``: user plus system CPU time of those processes, from each
  child's own resource usage;
* ``peak_rss_mb``: the largest resident set of any process of the round.

With ``--trace 1`` each command runs under ``perfbench/tracing.py`` and
it prints the per-layer metrics instead. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(commands run, and those that exited non-zero) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUP_PER_ROUND = 2
CPUS = sorted(os.sched_getaffinity(0))
TIME_LIMIT_S = 170.0  # a run must end within 180 s

sys.path.insert(0, str(HERE))
import spawn  # noqa: E402
import tracing  # noqa: E402

CLI = [sys.executable, "-c", "import sys; from effectmeasures.cli import main; sys.exit(main())"]
TRACED_CLI = [sys.executable, str(HERE / "tracing.py")]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    """The caller's environment with only this tree's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def digest(paths: list[Path]) -> list[str]:
    return [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths]


def run_workload(
    workload, seed: int, seconds: float, trace: bool, launcher: spawn.Launcher
) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    workdir = RUNS / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()

    def start(argv: list[str], stdout: Path, cpu: int | None = None) -> dict:
        return launcher.run(argv, env, stdout, deadline - time.perf_counter(), cpu)

    errors: list[str] = []
    checked: dict[int, list[str]] = {}  # command -> digests of its checked outputs
    attempted = failed = 0
    try:
        workload.prepare(workdir, seed)
        help_out = workdir / "help.out"
        # the first start-up compiles the package's bytecode; users pay that once
        first = start(CLI + workload.help_args, help_out)
        if first["code"] != 0:
            raise RuntimeError(f"{' '.join(workload.help_args)} exited {first['code']}")
        setup: list[float] = []
        rounds: list[dict] = []
        end = min(time.perf_counter() + seconds, deadline)
        # another round starts only if, as long as the last one, it ends in time
        while not rounds or time.perf_counter() + rounds[-1]["elapsed"] <= end:
            round_start = time.perf_counter()
            for _ in range(0 if trace else SETUP_PER_ROUND):
                setup.append(start(CLI + workload.help_args, help_out)["wall_s"])
            children, traces = [], []
            for i, args in enumerate(workload.commands()):
                out = workdir / f"cmd{i}.out"
                trace_path = workdir / f"cmd{i}.trace.json"
                for path in workload.outputs(i):  # so a stale file cannot pass for this one
                    path.unlink(missing_ok=True)
                # A one-thread command stays on the processor it starts on, and
                # the processors of a shared virtual machine change speed
                # independently of each other: such commands take the
                # processors in turn, shifted by one each round, so that every
                # round and every command sees each of them.
                cpu = CPUS[(len(rounds) + i) % len(CPUS)] if workload.single_threaded(i) else None
                argv = TRACED_CLI + [str(trace_path)] + args if trace else CLI + args
                child = start(argv, out, cpu)
                attempted += 1
                children.append(child)
                if child["code"] != 0:
                    failed += 1
                    stderr = out.with_suffix(".stderr").read_text()[-2000:]
                    print(f"{' '.join(args)}: exited {child['code']}: {stderr}", file=sys.stderr)
                    continue
                outputs = [out] + workload.outputs(i)
                if i not in checked:
                    errors += workload.check(i, out.read_text(encoding="utf-8"))
                    checked[i] = digest(outputs)
                elif digest(outputs) != checked[i]:
                    errors.append(f"{' '.join(args)}: output differs from the checked first one")
                if trace:
                    with open(trace_path, encoding="utf-8") as fh:
                        traces.append(json.load(fh))
            wall = sum(c["wall_s"] for c in children)
            rounds.append({
                "elapsed": time.perf_counter() - round_start,
                "wall_s": wall,
                "cpu_s": sum(c["cpu_s"] for c in children),
                "peak_rss_mb": max(c["rss_mb"] for c in children),
                "layers": dict(tracing.layer_metrics(traces), **{"trace.wall_s": wall}),
            })
    finally:
        for pattern in ("*.csv", "*.out"):
            for path in workdir.glob(pattern):
                path.unlink()

    if trace:
        per_round = [r["layers"] for r in rounds]
        metrics = {
            name: {"value": statistics.median(r[name] for r in per_round), "unit": unit}
            for name, (unit, _) in tracing.PER_LAYER.items()
        }
    else:
        per_round = [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")} for r in rounds]
        values = {"setup_s": statistics.median(setup)}
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[name] = statistics.median(r[name] for r in per_round)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for message in errors[:50]:
        print(f"INCORRECT: {message}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, rounds=per_round, setup_s=setup, errors=errors), fh, indent=1)
    return result


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "effectmeasures" / "cli.py").is_file():
        print(f"no effectmeasures sources under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    # started while this process is small: commands inherit its memory high-water mark
    with spawn.Launcher() as launcher:
        import workloads

        table = workloads.workloads()
        parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        parser.add_argument("--workload", choices=sorted(table), required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        workload = table[args.workload]
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), launcher)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
