"""Stratified distributions and collapsibility.

A population is split into finitely many covariate strata, each carrying
its proportion and outcome pair. Collapsible measures (RD, RR, SR, ERR,
RS) admit nonnegative normalized weights whose weighted stratum average
recovers the marginal measure; NNT, OR and log-OR do not.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    "StratifiedMeasure",
    "marginal_pair",
    "collapse_weights",
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


def _count_risks(label: str, counts) -> tuple[float, float]:
    """The risks ``(mu0, mu1)`` of a 2x2 table ((n_a1_y1, n_a1_y0),
    (n_a0_y1, n_a0_y0)). An empty arm has no risk, so the table is
    refused as invalid whatever measure is asked of it."""
    (n11, n10), (n01, n00) = counts
    for n in (n11, n10, n01, n00):
        if n < 0 or n != int(n):
            raise InvariantViolation(f"stratum {label!r}: counts must be nonnegative integers")
    if n11 + n10 == 0 or n01 + n00 == 0:
        raise InvariantViolation(f"stratum {label!r}: both treatment arms need observations")
    return n01 / (n01 + n00), n11 / (n11 + n10)


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
            mu0, mu1 = _count_risks(self.label, self.counts)
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
        pair = OutcomePair(*_count_risks(label, counts), OutcomeKind.BINARY)
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
        duplicates = sorted(
            label for label, k in Counter(s.label for s in self.strata).items() if k > 1
        )
        if duplicates:
            raise InvariantViolation(f"duplicate stratum labels: {duplicates}")
        for s in self.strata:
            if s.pair.kind is not self.kind:
                raise InvariantViolation(
                    f"stratum {s.label!r} has kind {s.pair.kind.value}, "
                    f"distribution is {self.kind.value}"
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


def collapse_weights(
    measure: MeasureKind, proportions: np.ndarray, control_means: np.ndarray | None
) -> np.ndarray:
    """Weights under which stratum values of ``measure`` average to its
    marginal: the proportions as given for RD (``control_means`` may then
    be None); for RR/ERR the proportions times the control means, for
    SR/RS times the control survivals, normalized to sum to one.
    Collapsibility asks for finite, nonnegative weights: control outcomes
    beyond the float range or of mixed sign raise UndefinedMeasure; all
    negative ones normalize to positive weights and are accepted."""
    if measure not in COLLAPSIBLE_MEASURES:
        raise NonCollapsible(measure)
    if measure is MeasureKind.RD:
        return proportions
    if measure in (MeasureKind.RR, MeasureKind.ERR):
        raw = proportions * control_means
    else:  # SR, RS
        raw = proportions * (1.0 - control_means)
    if not np.isfinite(raw).all():
        raise UndefinedMeasure(
            f"{measure.value} weights are not finite: control outcomes beyond the float range"
        )
    total = math.fsum(raw.tolist())
    if total == 0.0:
        raise UndefinedMeasure(f"{measure.value} weights sum to zero: degenerate control outcomes")
    weights = raw / total
    if (weights < 0.0).any():
        raise UndefinedMeasure(
            f"{measure.value} weights change sign across strata: control outcomes of mixed sign"
        )
    return weights


def marginal_pair(dist: StratifiedDistribution) -> OutcomePair:
    """Pool strata by the law of total expectation."""
    mu0 = math.fsum(s.proportion * s.pair.mu0 for s in dist.strata)
    mu1 = math.fsum(s.proportion * s.pair.mu1 for s in dist.strata)
    if dist.kind is OutcomeKind.BINARY:
        # fsum roundoff can overshoot the closed interval by one ulp
        mu0 = min(max(mu0, 0.0), 1.0)
        mu1 = min(max(mu1, 0.0), 1.0)
    return OutcomePair(mu0, mu1, dist.kind)


class StratifiedMeasure:
    """``measure`` on ``dist``: its value in each stratum and its marginal
    value, each evaluated once, on first use, and what collapsibility
    derives from them. The module's functions each build one; a caller
    that needs several of them reads one object."""

    def __init__(self, measure: MeasureKind, dist: StratifiedDistribution) -> None:
        self.measure, self.dist = measure, dist

    @cached_property
    def values(self) -> list[float]:
        """The measure in each stratum; one outside its domain raises
        UndefinedMeasure."""
        pairs = [s.pair for s in self.dist.strata]
        return measure_values(self.measure, *pair_arrays(pairs)).tolist()

    @cached_property
    def marginal(self) -> MeasureValue:
        return compute_measure(self.measure, marginal_pair(self.dist))

    def weights(self) -> CollapseWeights:
        """See :func:`collapsibility_weights`."""
        measure, strata = self.measure, self.dist.strata
        if measure not in COLLAPSIBLE_MEASURES:
            raise NonCollapsible(measure)
        self.values  # a stratum outside the domain raises first
        proportions = np.array([s.proportion for s in strata])
        weights = collapse_weights(measure, proportions, np.array([s.pair.mu0 for s in strata]))
        return CollapseWeights(measure, tuple(weights.tolist()))

    def collapse(self) -> MeasureValue:
        """See :func:`collapse`."""
        weights = self.weights()
        value = math.fsum(w * v for w, v in zip(weights.weights, self.values))
        return MeasureValue(self.measure, value, self.marginal.null_reference)

    def naive_average(self) -> float:
        """See :func:`naive_average`."""
        return math.fsum(s.proportion * v for s, v in zip(self.dist.strata, self.values))

    def logic(self) -> LogicReport:
        """See :func:`check_logic_respecting`."""
        values = self.values
        marginal = self.marginal.value
        low, high = min(values), max(values)
        slack = 1e-12
        return LogicReport(low - slack <= marginal <= high + slack, marginal, low, high)


def collapsibility_weights(
    measure: MeasureKind, dist: StratifiedDistribution
) -> CollapseWeights:
    """:func:`collapse_weights` of ``dist``'s strata; a stratum where
    ``measure`` is undefined raises UndefinedMeasure."""
    return StratifiedMeasure(measure, dist).weights()


def collapse(measure: MeasureKind, dist: StratifiedDistribution) -> MeasureValue:
    """Weighted stratum average; equals the marginal measure by
    collapsibility."""
    return StratifiedMeasure(measure, dist).collapse()


def naive_average(measure: MeasureKind, dist: StratifiedDistribution) -> float:
    """Proportion-weighted stratum average, regardless of collapsibility.

    For non-collapsible measures this generally disagrees with the
    marginal; it exists to exhibit exactly that failure.
    """
    return StratifiedMeasure(measure, dist).naive_average()


def check_logic_respecting(
    measure: MeasureKind, dist: StratifiedDistribution
) -> LogicReport:
    """Whether the marginal measure lies within the stratum range."""
    return StratifiedMeasure(measure, dist).logic()


def is_homogeneous(
    measure: MeasureKind, dist: StratifiedDistribution, tol: float
) -> bool:
    values = StratifiedMeasure(measure, dist).values
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
