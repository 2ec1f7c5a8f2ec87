"""Stratified distributions and collapsibility.

A population is split into finitely many covariate strata, each carrying
its proportion and outcome pair. Collapsible measures (RD, RR, SR, ERR,
RS) admit nonnegative normalized weights whose weighted stratum average
recovers the marginal measure; NNT, OR and log-OR do not.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import InvariantViolation, NonCollapsible, UndefinedMeasure
from .genmodel import expit
from .measures import (
    MeasureKind,
    MeasureValue,
    OutcomeKind,
    OutcomePair,
    compute_measure,
    measure_values,
    pair_arrays,
)

__all__ = [
    "Stratum",
    "StratifiedDistribution",
    "CollapseWeights",
    "LogicReport",
    "marginal_pair",
    "collapsibility_weights",
    "collapse",
    "naive_average",
    "check_logic_respecting",
    "is_homogeneous",
    "find_or_noncollapsibility_example",
    "COLLAPSIBLE_MEASURES",
]

COLLAPSIBLE_MEASURES = frozenset(
    {MeasureKind.RD, MeasureKind.RR, MeasureKind.SR, MeasureKind.ERR, MeasureKind.RS}
)

_COUNT_TOL = 1e-12


@dataclass(frozen=True)
class Stratum:
    """One covariate stratum: its population share and outcome pair.

    ``counts`` optionally carries the underlying 2x2 table as
    ((n_a1_y1, n_a1_y0), (n_a0_y1, n_a0_y0)); when present the pair must
    be exactly the count-derived risks.
    """

    label: str
    proportion: float
    pair: OutcomePair
    counts: tuple[tuple[int, int], tuple[int, int]] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.proportion <= 1.0:
            raise InvariantViolation(
                f"stratum {self.label!r}: proportion must lie in (0, 1], got {self.proportion!r}"
            )
        if self.counts is not None:
            (n11, n10), (n01, n00) = self.counts
            for n in (n11, n10, n01, n00):
                if n < 0 or n != int(n):
                    raise InvariantViolation(
                        f"stratum {self.label!r}: counts must be nonnegative integers"
                    )
            if n11 + n10 == 0 or n01 + n00 == 0:
                raise InvariantViolation(
                    f"stratum {self.label!r}: both treatment arms need observations"
                )
            mu1 = n11 / (n11 + n10)
            mu0 = n01 / (n01 + n00)
            if abs(mu1 - self.pair.mu1) > _COUNT_TOL or abs(mu0 - self.pair.mu0) > _COUNT_TOL:
                raise InvariantViolation(
                    f"stratum {self.label!r}: pair ({self.pair.mu0}, {self.pair.mu1}) "
                    f"does not match counts-derived ({mu0}, {mu1})"
                )

    @classmethod
    def from_counts(
        cls,
        label: str,
        proportion: float,
        counts: tuple[tuple[int, int], tuple[int, int]],
    ) -> "Stratum":
        (n11, n10), (n01, n00) = counts
        pair = OutcomePair(n01 / (n01 + n00), n11 / (n11 + n10), OutcomeKind.BINARY)
        return cls(label, proportion, pair, counts)


@dataclass(frozen=True)
class StratifiedDistribution:
    strata: tuple[Stratum, ...]
    kind: OutcomeKind

    def __post_init__(self) -> None:
        if not self.strata:
            raise InvariantViolation("distribution needs at least one stratum")
        total = math.fsum(s.proportion for s in self.strata)
        if abs(total - 1.0) > 1e-10:
            raise InvariantViolation(f"stratum proportions sum to {total!r}, expected 1")
        for s in self.strata:
            if s.pair.kind is not self.kind:
                raise InvariantViolation(
                    f"stratum {s.label!r} has kind {s.pair.kind}, distribution is {self.kind}"
                )


@dataclass(frozen=True)
class CollapseWeights:
    """Per-stratum collapsibility weights; nonnegative and summing to 1."""

    measure: MeasureKind
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(w < 0.0 for w in self.weights):
            raise InvariantViolation("collapse weights must be nonnegative")
        if abs(math.fsum(self.weights) - 1.0) > 1e-10:
            raise InvariantViolation("collapse weights must sum to 1")


@dataclass(frozen=True)
class LogicReport:
    respected: bool
    marginal: float
    low: float
    high: float


def marginal_pair(dist: StratifiedDistribution) -> OutcomePair:
    """Pool strata by the law of total expectation."""
    mu0 = math.fsum(s.proportion * s.pair.mu0 for s in dist.strata)
    mu1 = math.fsum(s.proportion * s.pair.mu1 for s in dist.strata)
    if dist.kind is OutcomeKind.BINARY:
        # fsum roundoff can overshoot the closed interval by one ulp
        mu0 = min(max(mu0, 0.0), 1.0)
        mu1 = min(max(mu1, 0.0), 1.0)
    return OutcomePair(mu0, mu1, dist.kind)


def _stratum_values(measure: MeasureKind, dist: StratifiedDistribution) -> list[float]:
    return measure_values(measure, *pair_arrays([s.pair for s in dist.strata])).tolist()


def collapsibility_weights(
    measure: MeasureKind, dist: StratifiedDistribution
) -> CollapseWeights:
    """Weights under which the stratum measures average to the marginal.

    RD collapses directly (weights = proportions); RR/ERR weight by the
    control mean, SR/RS by the control survival. NNT, OR and log-OR admit
    no such weights.
    """
    return _weighted_values(measure, dist)[0]


def _weighted_values(
    measure: MeasureKind, dist: StratifiedDistribution
) -> tuple[CollapseWeights, list[float]]:
    """The collapsibility weights and the stratum values they weight."""
    if measure not in COLLAPSIBLE_MEASURES:
        raise NonCollapsible(measure)
    values = _stratum_values(measure, dist)  # a stratum outside the domain raises first
    if measure is MeasureKind.RD:
        raw = [s.proportion for s in dist.strata]
    else:
        marg = marginal_pair(dist)
        if measure in (MeasureKind.RR, MeasureKind.ERR):
            if marg.mu0 == 0.0:
                raise UndefinedMeasure("RR weights need a nonzero marginal control mean")
            raw = [s.proportion * s.pair.mu0 / marg.mu0 for s in dist.strata]
        else:  # SR, RS
            if marg.mu0 == 1.0:
                raise UndefinedMeasure("SR weights need marginal control mean != 1")
            raw = [
                s.proportion * (1.0 - s.pair.mu0) / (1.0 - marg.mu0) for s in dist.strata
            ]
    total = math.fsum(raw)
    return CollapseWeights(measure, tuple(w / total for w in raw)), values


def collapse(measure: MeasureKind, dist: StratifiedDistribution) -> MeasureValue:
    """Weighted stratum average; equals the marginal measure by
    collapsibility."""
    weights, values = _weighted_values(measure, dist)
    value = math.fsum(w * v for w, v in zip(weights.weights, values))
    reference = compute_measure(measure, marginal_pair(dist))
    return MeasureValue(measure, value, reference.null_reference)


def naive_average(measure: MeasureKind, dist: StratifiedDistribution) -> float:
    """Proportion-weighted stratum average, regardless of collapsibility.

    For non-collapsible measures this generally disagrees with the
    marginal; it exists to exhibit exactly that failure.
    """
    values = _stratum_values(measure, dist)
    return math.fsum(s.proportion * v for s, v in zip(dist.strata, values))


def check_logic_respecting(
    measure: MeasureKind, dist: StratifiedDistribution
) -> LogicReport:
    """Whether the marginal measure lies within the stratum range."""
    values = _stratum_values(measure, dist)
    marginal = compute_measure(measure, marginal_pair(dist)).value
    low, high = min(values), max(values)
    slack = 1e-12
    return LogicReport(low - slack <= marginal <= high + slack, marginal, low, high)


def is_homogeneous(
    measure: MeasureKind, dist: StratifiedDistribution, tol: float
) -> bool:
    values = _stratum_values(measure, dist)
    return max(values) - min(values) <= tol


def find_or_noncollapsibility_example(seed: int) -> StratifiedDistribution:
    """A two-stratum distribution whose OR is not logic-respecting.

    Construction: a logit model with a constant treatment log-odds shift
    m > 0 and two distinct baselines. Each stratum then has log-OR
    exactly m, while Jensen's inequality pushes the marginal log-OR
    strictly below m. Deterministic in ``seed``.
    """
    rng = random.Random(seed)
    m = rng.uniform(0.8, 1.8)
    b_low = rng.uniform(-2.5, -0.4)
    b_high = b_low + rng.uniform(0.8, 2.5)  # spread >= 0.2 in logit units
    p = rng.uniform(0.3, 0.7)
    strata = (
        Stratum(
            "low-baseline",
            p,
            OutcomePair(expit(b_low), expit(b_low + m), OutcomeKind.BINARY),
        ),
        Stratum(
            "high-baseline",
            1.0 - p,
            OutcomePair(expit(b_high), expit(b_high + m), OutcomeKind.BINARY),
        ),
    )
    return StratifiedDistribution(strata, OutcomeKind.BINARY)
