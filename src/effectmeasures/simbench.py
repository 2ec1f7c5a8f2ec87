"""Deterministic replication engine for the two built-in simulation
studies, with exact ground-truth oracles.

Each replication draws a fresh trial and target sample from counter-based
RNG streams keyed by (seed, replication index), runs the configured
estimators from :mod:`effectmeasures.transport`, and records estimates.
Streams are independent per replication, and aggregation is
order-independent, so identical inputs produce bit-identical reports at
any worker count.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import EffectMeasureError, InvariantViolation, UnknownScenario
from .genmodel import DiscreteCovariateSpace, EntanglementModel, potential_mean

# The benchmark's tracer times the roulette truth by wrapping this name in
# this module; renaming it is a change to the benchmark as well.
from .genmodel import population_measures as population_measures_binary
from .measures import (
    MeasureKind, MeasureValue, OutcomeKind, OutcomePair, UndefinedAnnotation, UndefinedMeasure,
    all_measures,
)
from .transport import (
    GeneralizedEstimate,
    Learner,
    Strategy,
    TargetSample,
    TrialSample,
    generalize_local,
    gformula_conditional,
    ipsw_conditional,
)
from .vocab import ESTIMATOR_NAMES

__all__ = [
    "Scenario",
    "Estimator",
    "estimators",
    "estimator",
    "EstimatorConfig",
    "ReplicationResult",
    "ConfigSummary",
    "AggregateReport",
    "builtin_scenario",
    "ground_truth",
    "run_scenario",
    "default_config",
    "write_report_csv",
]


class Estimator(NamedTuple):
    """A row of :func:`estimators`: a function of ``(trial, target,
    measure, covariates, learner)``, the strategy it generalizes by, and
    the learners it accepts."""

    function: Callable[..., GeneralizedEstimate]
    strategy: Strategy
    learners: tuple[Learner, ...]


def estimators() -> dict[str, Estimator]:
    """The estimators by the names study configurations and ``transport
    --strategy`` use; built on each call from this module's bindings, so a
    wrapper installed over one of them (as perfbench's tracer does) is run."""
    rows = (
        Estimator(gformula_conditional, Strategy.CONDITIONAL_OUTCOME, tuple(Learner)),
        Estimator(ipsw_conditional, Strategy.CONDITIONAL_OUTCOME, (Learner.CELL_MEANS,)),
        Estimator(generalize_local, Strategy.LOCAL_EFFECT, tuple(Learner)),
    )
    return dict(zip(ESTIMATOR_NAMES, rows, strict=True))


def estimator(name: str, learner: Learner) -> Callable[..., GeneralizedEstimate]:
    """The table's function ``name``, checked to accept ``learner``."""
    table = estimators()
    if name not in table:
        raise InvariantViolation(f"unknown strategy {name!r}; choose from {list(table)}")
    if learner not in table[name].learners:
        accepted = [l.value for l in table[name].learners]
        raise InvariantViolation(f"{name} accepts the learners {accepted}, not {learner.value!r}")
    return table[name].function


@dataclass(frozen=True)
class EstimatorConfig:
    measure: MeasureKind
    strategy: str  # an estimator name, a key of estimators()
    covariates: tuple[str, ...]

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.measure.value, self.strategy, "+".join(self.covariates))


@dataclass(frozen=True)
class ReplicationResult:
    rep_index: int
    estimates: dict[tuple, float]
    failures: dict[tuple, str]


@dataclass(frozen=True)
class ConfigSummary:
    config: EstimatorConfig
    ground_truth: float
    median: float
    q1: float
    q3: float
    mean: float
    sd: float
    n_ok: int
    n_failed: int


@dataclass(frozen=True)
class AggregateReport:
    scenario: str
    seed: int
    reps: int
    results: tuple[ReplicationResult, ...]
    summaries: tuple[ConfigSummary, ...]


class Scenario:
    """A fully specified generative study: covariate distributions per
    population (``_sample_x``), an outcome model (``_outcome``),
    Bernoulli(0.5) treatment assignment, the estimator configurations the
    study compares, and default sample sizes."""

    name: str
    covariates: tuple[str, ...]
    learner: Learner  # how its estimators fit conditional means
    config: tuple[EstimatorConfig, ...]  # the covariate-set comparison the study is about
    target_y0: bool  # whether target samples carry control outcomes
    default_n: int
    default_m: int
    default_reps: int

    def _sample_x(self, rng: np.random.Generator, size: int, population: str) -> np.ndarray:
        raise NotImplementedError

    def _outcome(self, rng: np.random.Generator, x: np.ndarray, a) -> np.ndarray:
        """Outcomes drawn for the rows ``x`` under arm(s) ``a``."""
        raise NotImplementedError

    def sample_trial(self, rng: np.random.Generator, n: int) -> TrialSample:
        x = self._sample_x(rng, n, "source")
        a = rng.binomial(1, 0.5, n)
        return TrialSample(self.covariates, x, a, self._outcome(rng, x, a))

    def sample_target(self, rng: np.random.Generator, m: int) -> TargetSample:
        x = self._sample_x(rng, m, "target")
        y0 = self._outcome(rng, x, 0) if self.target_y0 else None
        return TargetSample(self.covariates, x, y0)

    def truths(self, population: str) -> list[MeasureValue | UndefinedAnnotation]:
        """Every measure of the population's outcome pair, from the
        measure kernel, undefined ones in-band."""
        raise NotImplementedError

    def ground_truths(
        self, measures: Sequence[MeasureKind], population: str = "target"
    ) -> list[float]:
        """The truth of each of ``measures``, from one reading of the
        population's truths; a measure without one raises
        ``UndefinedMeasure``."""
        truths = self.truths(population)
        values = {e.measure: e.value for e in truths if isinstance(e, MeasureValue)}
        for measure in measures:
            if measure not in values:
                raise UndefinedMeasure(f"{measure.value} has no ground truth for this scenario")
        return [values[measure] for measure in measures]


class _ContinuousLinear(Scenario):
    """Six covariates; linear baseline and modulation, Gaussian noise.

    (X1, X2, X3) are jointly Gaussian with unit variances and
    correlations (12: 0, 13: 0.5, 23: 0.2); their means shift from
    (6, 5, 8) in the source to (15, 7, 10) in the target, as does the
    Bernoulli rate of X4 (0.8 -> 0.3). X5 ~ Bernoulli(0.8) and
    X6 ~ Normal(4, 1) are non-shifted.
    """

    name = "continuous-linear"
    covariates = ("X1", "X2", "X3", "X4", "X5", "X6")
    learner = Learner.LEAST_SQUARES
    config = (
        EstimatorConfig(MeasureKind.RD, "gformula", ("X1", "X2")),
        EstimatorConfig(MeasureKind.RD, "local", ("X1", "X2")),
        EstimatorConfig(MeasureKind.RD, "gformula", ("X1", "X2", "X3", "X4")),
        EstimatorConfig(MeasureKind.RR, "gformula", ("X1", "X2")),
        EstimatorConfig(MeasureKind.RR, "gformula", ("X1", "X2", "X3", "X4")),
    )
    target_y0 = False
    default_n = 2000
    default_m = 5000
    default_reps = 50

    _COV = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.2], [0.5, 0.2, 1.0]])
    _CHOL = np.linalg.cholesky(_COV)  # positive definiteness checked at import
    _MEANS = {"source": np.array([6.0, 5.0, 8.0]), "target": np.array([15.0, 7.0, 10.0])}
    _P4 = {"source": 0.8, "target": 0.3}
    _P5 = 0.8
    _X6_MEAN = 4.0
    _NOISE_SD = math.sqrt(2.0)

    @staticmethod
    def _b(x: np.ndarray) -> np.ndarray:
        return (
            0.05 * x[:, 0] + 0.04 * x[:, 1] + 2.0 * x[:, 2]
            + x[:, 3] + 2.0 * x[:, 4] - 2.0 * x[:, 5]
        )

    @staticmethod
    def _m(x: np.ndarray) -> np.ndarray:
        return 1.5 * x[:, 0] + 2.0 * x[:, 1] + x[:, 4]

    def _sample_x(self, rng: np.random.Generator, size: int, population: str) -> np.ndarray:
        z = rng.standard_normal((size, 3))
        x123 = self._MEANS[population] + z @ self._CHOL.T
        x4 = rng.binomial(1, self._P4[population], size)
        x5 = rng.binomial(1, self._P5, size)
        x6 = rng.normal(self._X6_MEAN, 1.0, size)
        return np.column_stack([x123, x4, x5, x6])

    def _outcome(self, rng: np.random.Generator, x: np.ndarray, a) -> np.ndarray:
        eps = rng.normal(0.0, self._NOISE_SD, len(x))
        return self._b(x) + a * self._m(x) + eps

    def _moments(self, population: str) -> tuple[float, float]:
        # b and m are linear, so their means are their values at the covariate means
        population_means = [*self._MEANS[population], self._P4[population], self._P5, self._X6_MEAN]
        means = np.array([population_means])
        return float(self._b(means)[0]), float(self._m(means)[0])

    def truths(self, population: str) -> list[MeasureValue | UndefinedAnnotation]:
        e_b, e_m = self._moments(population)  # the outcome pair is (E[b], E[b] + E[m])
        return all_measures(OutcomePair(e_b, e_b + e_m, OutcomeKind.CONTINUOUS))


class _RouletteHeterogeneous(Scenario):
    """Binary outcome with a harmful, heterogeneous effect.

    Baseline risk b depends on all three covariates, the switch-on
    probability m_b only on stress and gender, and the switch-off
    probability is identically zero. Lifestyle and stress shift between
    populations; gender does not. The covariates are independent
    Bernoulli draws, so the model is a ``genmodel`` space and
    entanglement model over the eight cells, built once per instance.
    """

    name = "roulette-heterogeneous"
    covariates = ("lifestyle", "stress", "gender")
    learner = Learner.CELL_MEANS
    config = (
        EstimatorConfig(MeasureKind.SR, "local", ("stress",)),
        EstimatorConfig(MeasureKind.RD, "ipsw", ("stress",)),
        EstimatorConfig(MeasureKind.RD, "gformula", ("stress",)),
        EstimatorConfig(MeasureKind.SR, "local", ("lifestyle", "stress")),
        EstimatorConfig(MeasureKind.RD, "ipsw", ("lifestyle", "stress")),
        EstimatorConfig(MeasureKind.RR, "gformula", ("lifestyle", "stress")),
        EstimatorConfig(MeasureKind.OR, "gformula", ("lifestyle", "stress")),
    )
    target_y0 = True
    default_n = 10000
    default_m = 20000
    default_reps = 20

    _RATES = {"source": (0.4, 0.8, 0.5), "target": (0.6, 0.2, 0.5)}

    def __init__(self) -> None:
        cells = tuple(itertools.product((0, 1), repeat=3))  # (lifestyle, stress, gender)
        probabilities = {
            pop: tuple(math.prod(r if v else 1.0 - r for v, r in zip(c, rates)) for c in cells)
            for pop, rates in self._RATES.items()
        }
        self.space = DiscreteCovariateSpace(self.covariates, cells, probabilities)
        self.model = EntanglementModel(
            b={
                (l, s, g): (0.2 if l else 0.05) * (2.0 if s else 1.0) * (0.5 if g else 1.0)
                for l, s, g in cells
            },
            m_b={(l, s, g): 0.25 if s else (0.1 if g else 1.0 / 6.0) for l, s, g in cells},
            m_g={c: 0.0 for c in cells},
        )
        # outcome risk by (arm, cell)
        self.risk = np.array([[potential_mean(self.model, a, c) for c in cells] for a in (0, 1)])

    def _sample_x(self, rng: np.random.Generator, size: int, population: str) -> np.ndarray:
        return np.column_stack([rng.binomial(1, rate, size) for rate in self._RATES[population]])

    def _outcome(self, rng: np.random.Generator, x: np.ndarray, a) -> np.ndarray:
        l, s, g = x.T
        return rng.binomial(1, self.risk[a, 4 * l + 2 * s + g])

    def truths(self, population: str) -> list[MeasureValue | UndefinedAnnotation]:
        return population_measures_binary(self.model, self.space, population)


_SCENARIOS = {
    _ContinuousLinear.name: _ContinuousLinear,
    _RouletteHeterogeneous.name: _RouletteHeterogeneous,
}


def builtin_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]()
    except KeyError:
        raise UnknownScenario(
            f"unknown scenario {name!r}; available: {sorted(_SCENARIOS)}"
        ) from None


def ground_truth(scenario: Scenario, measure: MeasureKind, population: str = "target") -> float:
    return scenario.ground_truths((measure,), population)[0]


def default_config(scenario: Scenario) -> tuple[EstimatorConfig, ...]:
    """The covariate-set comparison each study is about."""
    return scenario.config


def _validate_config(scenario: Scenario, config: tuple[EstimatorConfig, ...]) -> None:
    for entry in config:
        if not set(entry.covariates) <= set(scenario.covariates):
            raise InvariantViolation(
                f"covariates {entry.covariates!r} not in scenario {scenario.name!r}"
            )
        estimator(entry.strategy, scenario.learner)


def _rep_rng(seed: int, rep_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(rep_index,)))
    )


def _run_one(
    scenario: Scenario,
    seed: int,
    rep_index: int,
    n: int,
    m: int,
    config: tuple[EstimatorConfig, ...],
) -> ReplicationResult:
    rng = _rep_rng(seed, rep_index)
    try:
        trial = scenario.sample_trial(rng, n)
        target = scenario.sample_target(rng, m)
    except EffectMeasureError as exc:
        reason = f"{type(exc).__name__}: {exc}"
        return ReplicationResult(rep_index, {}, {entry.key: reason for entry in config})
    estimates: dict[tuple, float] = {}
    failures: dict[tuple, str] = {}
    for entry in config:
        try:
            est = estimator(entry.strategy, scenario.learner)(
                trial, target, entry.measure, entry.covariates, scenario.learner
            )
            estimates[entry.key] = est.value
        except EffectMeasureError as exc:
            failures[entry.key] = f"{type(exc).__name__}: {exc}"
    return ReplicationResult(rep_index, estimates, failures)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _quantile(sorted_values: list[float], q: float) -> float:
    # linear interpolation between closest ranks (same as numpy default)
    if not sorted_values:
        return math.nan
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def run_scenario(
    scenario: Scenario,
    seed: int,
    reps: int | None = None,
    config: tuple[EstimatorConfig, ...] | None = None,
    n: int | None = None,
    m: int | None = None,
    workers: int = 1,
) -> AggregateReport:
    """Run ``reps`` independent replications and aggregate.

    Deterministic in (scenario, seed, reps, config, n, m) regardless of
    ``workers``: each replication owns a counter-based stream keyed by
    (seed, rep_index), and results are aggregated in rep order. At most
    ``min(workers, reps, usable CPUs)`` threads run the replications: the
    calling thread runs one share of them, and one started thread runs
    each other share. An exception other than an ``EffectMeasureError``
    (which counts as a failed estimate) reaches the caller once every
    started thread has ended.
    """
    reps = scenario.default_reps if reps is None else reps
    n = scenario.default_n if n is None else n
    m = scenario.default_m if m is None else m
    config = default_config(scenario) if config is None else tuple(config)
    for name, value in (("reps", reps), ("n", n), ("m", m), ("workers", workers)):
        if value < 1:
            raise InvariantViolation(f"{name} must be >= 1, got {value}")
    if seed < 0:
        raise InvariantViolation(f"seed must be >= 0, got {seed}")
    _validate_config(scenario, config)
    truths = scenario.ground_truths([entry.measure for entry in config])

    # share k holds replications k, k + threads, ...; the calling thread runs
    # share 0, as each thread started costs peak RSS (its own malloc arena)
    threads = min(workers, reps, _usable_cpus())
    results: list = [None] * reps
    errors: list[BaseException] = []

    def run_share(k: int) -> None:
        try:
            for r in range(k, reps, threads):
                results[r] = _run_one(scenario, seed, r, n, m, config)
        except BaseException as exc:  # raised in the calling thread once all have ended
            errors.append(exc)

    others = [threading.Thread(target=run_share, args=(k,)) for k in range(1, threads)]
    for thread in others:
        thread.start()
    run_share(0)
    for thread in others:
        thread.join()
    if errors:
        raise errors[0]

    summaries = []
    for entry, truth in zip(config, truths):
        values = sorted(
            r.estimates[entry.key] for r in results if entry.key in r.estimates
        )
        n_ok = len(values)
        mean = math.fsum(values) / n_ok if n_ok else math.nan
        sd = (
            math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n_ok - 1))
            if n_ok > 1
            else math.nan
        )
        summaries.append(
            ConfigSummary(
                config=entry,
                ground_truth=truth,
                median=_quantile(values, 0.5),
                q1=_quantile(values, 0.25),
                q3=_quantile(values, 0.75),
                mean=mean,
                sd=sd,
                n_ok=n_ok,
                n_failed=reps - n_ok,
            )
        )
    return AggregateReport(scenario.name, seed, reps, tuple(results), tuple(summaries))


def write_report_csv(report: AggregateReport, path) -> None:
    """Plot-ready long-format CSV, one row per (replication, estimator
    configuration of the report's summaries); floats in shortest-roundtrip form."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scenario,rep,measure,strategy,covariate_set,estimate,ground_truth\n")
        for result in report.results:
            for summary in report.summaries:
                entry = summary.config
                est = result.estimates.get(entry.key)
                row = (
                    report.scenario, result.rep_index, entry.measure.value, entry.strategy,
                    "+".join(entry.covariates), "NA" if est is None else repr(est),
                    repr(summary.ground_truth),
                )
                fh.write(",".join(str(v) for v in row) + "\n")
