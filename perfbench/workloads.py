"""The benchmark's workloads: their inputs, commands and output checks.

A workload runs in rounds. One round is the same fixed list of
``effectmeasures`` commands, each run as a user runs it; every command
is one operation. ``prepare`` makes the inputs from the seed once per
benchmark run, so every round of a run repeats identical work. A
workload is a :class:`Round` of parts; each part is one kind of command
(a study, the grid, transport on files) with its own inputs and checks.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks
import oracles


class Workload:
    name: str
    help_args: list[str]  # the command whose ``--help`` start-up is ``setup_s``

    def prepare(self, workdir: Path, seed: int) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        """CLI arguments of each command of one round."""
        raise NotImplementedError

    def outputs(self, index: int) -> list[Path]:
        """The files command ``index`` writes, besides its standard output."""
        raise NotImplementedError

    def single_threaded(self, index: int) -> bool:
        """Whether command ``index`` computes on one thread only."""
        return True

    def check(self, index: int, stdout_text: str) -> list[str]:
        """Errors in the outputs of command ``index`` of the last round."""
        raise NotImplementedError


class Simulate(Workload):
    """One ``simulate`` study; the seed is the study's ``--seed``."""

    help_args = ["simulate", "--help"]

    def __init__(self, name: str, scenario: str, workers: int, reps: int, n: int, m: int) -> None:
        self.name, self.scenario, self.workers = name, scenario, workers
        self.reps, self.n, self.m = reps, n, m

    def prepare(self, workdir: Path, seed: int) -> None:
        self.seed, self.report = seed, workdir / f"{self.name}.csv"

    def commands(self) -> list[list[str]]:
        return [[
            "simulate", "--scenario", self.scenario, "--seed", str(self.seed),
            "--reps", str(self.reps), "--n", str(self.n), "--m", str(self.m),
            "--workers", str(self.workers), "--out", str(self.report), "--json",
        ]]

    def outputs(self, index: int) -> list[Path]:
        return [self.report]

    def single_threaded(self, index: int) -> bool:
        return self.workers == 1

    def check(self, index: int, stdout_text: str) -> list[str]:
        return checks.check_simulate(self.scenario, self.reps, self.report, stdout_text)


class Grid(Workload):
    """The measure lattice; it has no random input, so the seed is unused."""

    name = "grid"
    help_args = ["grid", "--help"]

    def __init__(self, resolution: int) -> None:
        self.resolution = resolution

    def prepare(self, workdir: Path, seed: int) -> None:
        self.out = workdir / "grid.csv"

    def commands(self) -> list[list[str]]:
        return [["grid", "--resolution", str(self.resolution), "--out", str(self.out)]]

    def outputs(self, index: int) -> list[Path]:
        return [self.out]

    def check(self, index: int, stdout_text: str) -> list[str]:
        return checks.check_grid(self.out, self.resolution)


def write_roulette_files(seed: int, n: int, m: int, trial_path: Path, target_path: Path) -> None:
    """A trial of ``n`` rows (covariates, Bernoulli(0.5) arm, outcome) and a
    target of ``m`` rows (covariates, control outcome ``y0``), drawn from
    the roulette model."""
    rng = np.random.default_rng(seed)
    risk = np.array(
        [[float(oracles.roulette_risk(c, a)) for c in oracles.ROULETTE_CELLS] for a in (0, 1)]
    )

    def covariates(size: int, population: str) -> np.ndarray:
        rates = oracles.ROULETTE_RATES[population]
        return np.column_stack([rng.binomial(1, float(r), size) for r in rates])

    def cell(x: np.ndarray) -> np.ndarray:  # index into ROULETTE_CELLS
        return 4 * x[:, 0] + 2 * x[:, 1] + x[:, 2]

    x = covariates(n, "source")
    a = rng.binomial(1, 0.5, n)
    y = rng.binomial(1, risk[a, cell(x)])
    header = ",".join(oracles.ROULETTE_COVARIATES)
    np.savetxt(trial_path, np.column_stack([x, a, y]), fmt="%d", delimiter=",",
               header=header + ",a,y", comments="")
    x = covariates(m, "target")
    y0 = rng.binomial(1, risk[0, cell(x)])
    np.savetxt(target_path, np.column_stack([x, y0]), fmt="%d", delimiter=",",
               header=header + ",y0", comments="")


class TransportFiles(Workload):
    """``transport`` once per strategy on one trial CSV and one target CSV."""

    name = "transport-files"
    help_args = ["transport", "--help"]

    def __init__(self, n: int, m: int) -> None:
        self.n, self.m = n, m

    def prepare(self, workdir: Path, seed: int) -> None:
        self.trial, self.target = workdir / "trial.csv", workdir / "target.csv"
        write_roulette_files(seed, self.n, self.m, self.trial, self.target)
        self.expected = checks.recompute_transport(self.trial, self.target)

    def commands(self) -> list[list[str]]:
        return [
            ["transport", "--trial", str(self.trial), "--target", str(self.target),
             "--measure", measure, "--strategy", strategy, "--covariates", ",".join(covariates),
             "--json"]
            for measure, strategy, covariates in checks.TRANSPORT_RUNS
        ]

    def outputs(self, index: int) -> list[Path]:
        return []

    def check(self, index: int, stdout_text: str) -> list[str]:
        run = checks.TRANSPORT_RUNS[index]
        return checks.check_transport(run, stdout_text, self.expected[run], self.n, self.m)


class Round(Workload):
    """Parts run one after another in each round; ``setup_s`` is the first
    part's start-up."""

    def __init__(self, name: str, *parts: Workload) -> None:
        self.name, self.parts = name, parts
        self.help_args = parts[0].help_args

    def _part(self, index: int) -> tuple[Workload, int]:
        for part in self.parts:
            n = len(part.commands())
            if index < n:
                return part, index
            index -= n
        raise IndexError(index)

    def prepare(self, workdir: Path, seed: int) -> None:
        for part in self.parts:
            part.prepare(workdir, seed)

    def commands(self) -> list[list[str]]:
        return [args for part in self.parts for args in part.commands()]

    def outputs(self, index: int) -> list[Path]:
        part, i = self._part(index)
        return part.outputs(i)

    def single_threaded(self, index: int) -> bool:
        part, i = self._part(index)
        return part.single_threaded(i)

    def check(self, index: int, stdout_text: str) -> list[str]:
        part, i = self._part(index)
        return part.check(i, stdout_text)


def workloads() -> dict[str, Workload]:
    """The benchmark's workloads at their benchmark sizes.

    Each pairs a study with a file command. ``roulette`` holds everything
    that codes cells; ``continuous-grid`` codes none, so a cell-coding
    change should leave it unchanged, while a measure-kernel or
    least-squares change shows only there.
    """
    return {
        w.name: w
        for w in (
            Round(
                "roulette",
                Simulate("simulate-roulette", "roulette-heterogeneous",
                         workers=2, reps=20, n=10000, m=20000),
                TransportFiles(n=100000, m=100000),
            ),
            Round(
                "continuous-grid",
                Simulate("simulate-continuous", "continuous-linear",
                         workers=1, reps=100, n=2000, m=5000),
                Grid(300),
            ),
        )
    }
