"""Non-parametric outcome models over a finite covariate space.

Three model families share the interface ``E[Y(a) | X = cell]``:

* ContinuousOutcomeModel — additive: b(x) + a*m(x) + noise.
* EntanglementModel — binary, parameterized by the baseline event
  probability b(x), the switch-on probability m_b(x) = P[Y(1)=1 | Y(0)=0, x]
  and the switch-off probability m_g(x) = P[Y(1)=0 | Y(0)=1, x].
* LogitOutcomeModel — binary with log-odds b(x) + a*m(x).

All population-level quantities are exact enumerations over the discrete
cells, so they serve as oracles for the sample-based estimators. A
model's truth for every measure is the measure kernel on its pooled pair
(E[Y(0)], E[Y(1)]): :func:`population_measures`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Mapping

from .errors import (
    DirectionViolated,
    InvariantViolation,
    NotIdentifiable,
    UndefinedMeasure,
    UnknownCell,
)
from .measures import (
    MeasureKind,
    MeasureValue,
    OutcomeKind,
    OutcomePair,
    UndefinedAnnotation,
    all_measures,
)
from .vocab import MonotonicityDirection

__all__ = [
    "Cell",
    "DiscreteCovariateSpace",
    "ContinuousOutcomeModel",
    "EntanglementModel",
    "LogitOutcomeModel",
    "MODEL_TYPES",
    "MonotonicityDirection",
    "potential_mean",
    "pooled_pair",
    "population_measures",
    "monotone_ratio",
    "local_ratio",
    "identify_modulation",
    "logit_conditional_logor",
    "entanglement_to_logit",
    "expit",
    "logit",
]

Cell = tuple


def expit(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise UndefinedMeasure(f"logit needs p in (0, 1), got {p!r}")
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class DiscreteCovariateSpace:
    """Finite covariate cells plus per-population cell probabilities."""

    covariates: tuple[str, ...]
    cells: tuple[Cell, ...]
    populations: Mapping[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        if len(set(self.cells)) != len(self.cells):
            raise InvariantViolation("covariate cells must be distinct")
        for cell in self.cells:
            if len(cell) != len(self.covariates):
                raise InvariantViolation(
                    f"cell {cell!r} arity differs from covariate list {self.covariates!r}"
                )
        for pop, probs in self.populations.items():
            if len(probs) != len(self.cells):
                raise InvariantViolation(
                    f"population {pop!r}: {len(probs)} probabilities for {len(self.cells)} cells"
                )
            if not all(0.0 <= p <= 1.0 for p in probs):  # NaN fails too
                raise InvariantViolation(
                    f"population {pop!r}: cell probabilities must lie in [0, 1]"
                )
            if abs(math.fsum(probs) - 1.0) > 1e-10:
                raise InvariantViolation(f"population {pop!r}: probabilities must sum to 1")

    def probabilities(self, population: str) -> tuple[float, ...]:
        try:
            return tuple(self.populations[population])
        except KeyError:
            raise UnknownCell(f"unknown population {population!r}") from None

    def expectation(self, population: str, f) -> float:
        probs = self.probabilities(population)
        return math.fsum(p * f(cell) for p, cell in zip(probs, self.cells))


@dataclass(frozen=True)
class ContinuousOutcomeModel:
    """Y(a) = b(X) + a*m(X) + eps, eps mean-zero with sd ``noise_sd``.

    The noise family is Gaussian by choice; only mean-zero is required
    for any population quantity computed here.
    """

    tag: ClassVar[str] = "continuous"
    kind: ClassVar[OutcomeKind] = OutcomeKind.CONTINUOUS
    b: Mapping[Cell, float]
    m: Mapping[Cell, float]
    noise_sd: float = 0.0

    def __post_init__(self) -> None:
        if self.noise_sd < 0.0:
            raise InvariantViolation("noise_sd must be >= 0")


@dataclass(frozen=True)
class EntanglementModel:
    """Binary potential outcomes coupled through switch probabilities.

    Induces p_a(x) = b(x) + a*((1 - b(x))*m_b(x) - b(x)*m_g(x)).
    """

    tag: ClassVar[str] = "entanglement"
    kind: ClassVar[OutcomeKind] = OutcomeKind.BINARY
    b: Mapping[Cell, float]
    m_b: Mapping[Cell, float]
    m_g: Mapping[Cell, float]

    def __post_init__(self) -> None:
        for cell, bx in self.b.items():
            if not 0.0 < bx < 1.0:
                raise InvariantViolation(f"b{cell!r} = {bx!r} must lie in (0, 1)")
            mb = _cell_value(self.m_b, cell, "switch-on probability")
            mg = _cell_value(self.m_g, cell, "switch-off probability")
            if not 0.0 <= mb <= 1.0 or not 0.0 <= mg <= 1.0:
                raise InvariantViolation(f"switch probabilities at {cell!r} must lie in [0, 1]")
            p1 = potential_mean(self, 1, cell)
            if not 0.0 < p1 < 1.0:
                raise InvariantViolation(f"induced p1{cell!r} = {p1!r} must lie in (0, 1)")


@dataclass(frozen=True)
class LogitOutcomeModel:
    """logit P[Y(a)=1 | x] = b(x) + a*m(x)."""

    tag: ClassVar[str] = "logit"
    kind: ClassVar[OutcomeKind] = OutcomeKind.BINARY
    b: Mapping[Cell, float]
    m: Mapping[Cell, float]


Model = ContinuousOutcomeModel | EntanglementModel | LogitOutcomeModel
MODEL_TYPES = {f.tag: f for f in (ContinuousOutcomeModel, EntanglementModel, LogitOutcomeModel)}


def _cell_value(fn: Mapping[Cell, float], cell: Cell, what: str) -> float:
    try:
        return fn[cell]
    except KeyError:
        raise UnknownCell(f"cell {cell!r} is not in the model's {what}") from None


def potential_mean(model: Model, a: int, cell: Cell) -> float:
    """E[Y(a) | X = cell] under the model."""
    if a not in (0, 1):
        raise InvariantViolation(f"treatment arm must be 0 or 1, got {a!r}")
    if isinstance(model, ContinuousOutcomeModel):
        base = _cell_value(model.b, cell, "baseline")
        return base + a * _cell_value(model.m, cell, "modulation")
    if isinstance(model, EntanglementModel):
        bx = _cell_value(model.b, cell, "baseline")
        if a == 0:
            return bx
        mb = _cell_value(model.m_b, cell, "switch-on probability")
        mg = _cell_value(model.m_g, cell, "switch-off probability")
        return bx + (1.0 - bx) * mb - bx * mg
    base = _cell_value(model.b, cell, "baseline")
    return expit(base + a * _cell_value(model.m, cell, "modulation"))


def pooled_pair(
    model: Model, space: DiscreteCovariateSpace, population: str
) -> OutcomePair:
    """Marginal (E[Y(0)], E[Y(1)]) over the population's cells."""
    mu0 = space.expectation(population, lambda c: potential_mean(model, 0, c))
    mu1 = space.expectation(population, lambda c: potential_mean(model, 1, c))
    if model.kind is OutcomeKind.BINARY:
        mu0 = min(max(mu0, 0.0), 1.0)
        mu1 = min(max(mu1, 0.0), 1.0)
    return OutcomePair(mu0, mu1, model.kind)


def population_measures(
    model: Model, space: DiscreteCovariateSpace, population: str
) -> list[MeasureValue | UndefinedAnnotation]:
    """The population truth: every measure of the model's outcome kind on
    its pooled pair, as the kernel computes it, undefined ones in-band."""
    return all_measures(pooled_pair(model, space, population))


def _entanglement_moments(
    model: EntanglementModel, space: DiscreteCovariateSpace, population: str
) -> tuple[float, float, float]:
    """(E[b], E[(1-b)*m_b], E[b*m_g]), the moments of the paper's closed
    forms for the marginal measures of the entanglement model."""
    e_b = space.expectation(population, lambda c: model.b[c])
    gain = space.expectation(population, lambda c: (1.0 - model.b[c]) * model.m_b[c])
    loss = space.expectation(population, lambda c: model.b[c] * model.m_g[c])
    return e_b, gain, loss


def _check_direction(
    model: EntanglementModel, direction: MonotonicityDirection
) -> None:
    if direction is MonotonicityDirection.NON_MONOTONE:
        raise DirectionViolated("a monotone direction is required")
    # a beneficial effect never switches on, a harmful one never switches off
    name = "m_b" if direction is MonotonicityDirection.BENEFICIAL else "m_g"
    bad = [c for c, v in getattr(model, name).items() if v != 0.0]
    if bad:
        raise DirectionViolated(f"{direction.value} direction asserted but {name} != 0 on {bad!r}")


def monotone_ratio(
    model: EntanglementModel,
    space: DiscreteCovariateSpace,
    population: str,
    direction: MonotonicityDirection,
) -> MeasureValue:
    """The ratio measure that simplifies under a monotone effect:
    RR = 1 - E[b*m_g]/E[b] when beneficial, SR = 1 - E[(1-b)*m_b]/E[1-b]
    when harmful."""
    _check_direction(model, direction)
    e_b, gain, loss = _entanglement_moments(model, space, population)
    if direction is MonotonicityDirection.BENEFICIAL:
        if e_b == 0.0:
            raise UndefinedMeasure("RR needs a nonzero marginal control probability")
        return MeasureValue(MeasureKind.RR, 1.0 - loss / e_b, 1.0)
    if e_b == 1.0:
        raise UndefinedMeasure("SR needs marginal control probability != 1")
    return MeasureValue(MeasureKind.SR, 1.0 - gain / (1.0 - e_b), 1.0)


def local_ratio(
    model: EntanglementModel, cell: Cell, direction: MonotonicityDirection
) -> float:
    """Conditional ratio at one cell: RR(x) = 1 - m_g(x) under a
    beneficial effect, SR(x) = 1 - m_b(x) under a harmful one."""
    _check_direction(model, direction)
    if direction is MonotonicityDirection.BENEFICIAL:
        return 1.0 - _cell_value(model.m_g, cell, "switch-off probability")
    return 1.0 - _cell_value(model.m_b, cell, "switch-on probability")


def identify_modulation(
    p0: float, p1: float, direction: MonotonicityDirection
) -> float:
    """Recover the nonzero switch probability from the two conditional
    event probabilities; impossible without a monotone direction."""
    if direction is MonotonicityDirection.NON_MONOTONE:
        raise NotIdentifiable(
            "switch probabilities are not identifiable without monotonicity"
        )
    if not 0.0 < p0 < 1.0:
        raise UndefinedMeasure(f"p0 must lie in (0, 1), got {p0!r}")
    if direction is MonotonicityDirection.BENEFICIAL:
        if p1 > p0:
            raise DirectionViolated("beneficial direction needs p1 <= p0")
        return (p0 - p1) / p0
    if p1 < p0:
        raise DirectionViolated("harmful direction needs p1 >= p0")
    return (p1 - p0) / (1.0 - p0)


def logit_conditional_logor(model: LogitOutcomeModel, cell: Cell) -> float:
    """Conditional log odds ratio; the baseline cancels, leaving m(cell)."""
    _cell_value(model.b, cell, "baseline")
    return _cell_value(model.m, cell, "modulation")


def entanglement_to_logit(model: EntanglementModel) -> LogitOutcomeModel:
    """Re-express an entanglement model on the log-odds scale; the two
    parameterizations induce identical conditional means."""
    b2 = {cell: logit(bx) for cell, bx in model.b.items()}
    m2 = {}
    for cell in model.b:
        p1 = potential_mean(model, 1, cell)
        m2[cell] = logit(p1) - b2[cell]
    return LogitOutcomeModel(b2, m2)
