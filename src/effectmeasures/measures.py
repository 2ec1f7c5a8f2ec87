"""Effect measures as total-or-error functions of an outcome pair.

A measure contrasts the two counterfactual population summaries
mu0 = E[Y(0)] and mu1 = E[Y(1)]. One array kernel, :func:`measure_table`,
computes all eight closed forms and marks each value outside a measure's
domain with a code instead of producing NaN or infinities; the scalar
functions are views over it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, UndefinedMeasure

__all__ = [
    "OutcomeKind",
    "OutcomePair",
    "MeasureKind",
    "MeasureValue",
    "UndefinedAnnotation",
    "UNDEFINED_REASONS",
    "BINARY_ONLY_MEASURES",
    "measure_table",
    "measure_values",
    "pair_arrays",
    "compute_measure",
    "all_measures",
    "swap_labels",
    "rr_feasible_baseline",
    "FeasibleBaseline",
]


class OutcomeKind(enum.Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


@dataclass(frozen=True)
class OutcomePair:
    """The pair (E[Y(0)], E[Y(1)]) every measure contrasts.

    A binary pair made by :func:`swap_labels` also keeps ``nonevent``: the
    probabilities it was swapped from, which are the exact probabilities
    of its non-event label, while ``mu0``/``mu1`` are their rounded
    complements. Measures are then taken on the exact side, so relabelling
    never loses a difference to rounding. ``nonevent`` takes no part in
    equality.
    """

    mu0: float
    mu1: float
    kind: OutcomeKind
    nonevent: tuple[float, float] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name, v in (("mu0", self.mu0), ("mu1", self.mu1)):
            if not math.isfinite(v):
                raise InvariantViolation(f"{name} must be finite, got {v!r}")
            if self.kind is OutcomeKind.BINARY and not 0.0 <= v <= 1.0:
                raise InvariantViolation(
                    f"binary {name} must lie in [0, 1], got {v!r}"
                )
        if self.nonevent is not None and (
            self.kind is not OutcomeKind.BINARY
            or not all(0.0 <= v <= 1.0 for v in self.nonevent)
            or tuple(1.0 - v for v in self.nonevent) != (self.mu0, self.mu1)
        ):
            raise InvariantViolation(
                f"nonevent {self.nonevent!r} must be binary probabilities "
                f"whose complements are ({self.mu0!r}, {self.mu1!r})"
            )


class MeasureKind(enum.Enum):
    RD = "rd"
    RR = "rr"
    SR = "sr"
    ERR = "err"
    RS = "rs"
    NNT = "nnt"
    OR = "or"
    LOG_OR = "log_or"


#: Measures that only make sense for event probabilities.
BINARY_ONLY_MEASURES = frozenset(
    {MeasureKind.SR, MeasureKind.RS, MeasureKind.NNT, MeasureKind.OR, MeasureKind.LOG_OR}
)

# Value of each measure under a null effect (mu1 == mu0). NNT diverges at
# the null; math.inf is the documented sentinel (compute_measure itself
# raises UndefinedMeasure there and never returns the sentinel).
_NULL_REFERENCE = {
    MeasureKind.RD: 0.0,
    MeasureKind.RR: 1.0,
    MeasureKind.SR: 1.0,
    MeasureKind.ERR: 0.0,
    MeasureKind.RS: 0.0,
    MeasureKind.NNT: math.inf,
    MeasureKind.OR: 1.0,
    MeasureKind.LOG_OR: 0.0,
}


@dataclass(frozen=True)
class MeasureValue:
    measure: MeasureKind
    value: float
    null_reference: float


@dataclass(frozen=True)
class UndefinedAnnotation:
    """In-band record of a measure that is undefined for a given pair."""

    measure: MeasureKind
    reason: str


# Codes of measure_table's undefined values; 0 marks a defined value.
NULL_EFFECT, ZERO_CONTROL, CERTAIN_CONTROL, NOT_INTERIOR, NOT_FINITE = range(1, 6)

#: Why a value is undefined, indexed by its code.
UNDEFINED_REASONS = (
    None,
    "NNT diverges at a null effect (mu1 == mu0)",
    "RR requires mu0 != 0",
    "SR requires mu0 != 1",
    "OR requires both probabilities strictly inside (0, 1)",
    # the closed form overflows, or an OR that underflowed to 0 has no log
    "{measure} is not finite for {pair}",
)


def measure_table(mu0, mu1, kind: OutcomeKind, nonevent=None) -> dict[MeasureKind, tuple]:
    """Every measure applicable to ``kind``, in catalogue order, over the
    pairs (mu0[i], mu1[i]) of two 1-D float arrays: for each, its values
    (NaN where undefined) and a code per pair that indexes
    :data:`UNDEFINED_REASONS` (0 where defined).

    ``nonevent``, if given, is two more such arrays: the exact non-event
    probabilities that pairs made by :func:`swap_labels` keep (see
    :class:`OutcomePair`), NaN for a pair without them. The first pair
    that breaks OutcomePair's invariants raises its InvariantViolation.
    NNT is the signed reciprocal 1/RD (negative when treatment lowers the
    event probability). For continuous outcomes RR/ERR only need mu0 != 0:
    the caller owns the outcome's sign, which two summaries cannot show.
    """
    mu0, mu1 = np.asarray(mu0, dtype=np.float64), np.asarray(mu1, dtype=np.float64)
    if nonevent is None:
        nonevent = np.full((2,) + mu0.shape, np.nan)
    ne0, ne1 = np.asarray(nonevent, dtype=np.float64)
    binary = kind is OutcomeKind.BINARY
    exact = ~(np.isnan(ne0) & np.isnan(ne1))
    ok = np.isfinite(mu0) & np.isfinite(mu1)
    if binary:
        ok &= (0.0 <= mu0) & (mu0 <= 1.0) & (0.0 <= mu1) & (mu1 <= 1.0)
    ok &= ~exact | (binary & (1.0 - ne0 == mu0) & (1.0 - ne1 == mu1)
                    & (0.0 <= ne0) & (ne0 <= 1.0) & (0.0 <= ne1) & (ne1 <= 1.0))
    bad = np.flatnonzero(~ok)
    if bad.size:  # OutcomePair words the error
        i = bad[0]
        OutcomePair(mu0[i].item(), mu1[i].item(), kind,
                    (ne0[i].item(), ne1[i].item()) if exact[i] else None)
    # x/0 and 0/0 are marked undefined below, so their warnings are noise
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s0, s1 = np.where(exact, ne0, 1.0 - mu0), np.where(exact, ne1, 1.0 - mu1)
        # the difference on the exactly stored side: relabelling negates it exactly
        rd = np.where(exact, ne0 - ne1, mu1 - mu0)
        rr, sr, odds = mu1 / mu0, s1 / s0, (mu1 / s1) / (mu0 / s0)
        # one row per measure in catalogue order; log-OR is taken from OR below
        values = np.array([rd, rr, sr, rr - 1.0, 1.0 - sr, 1.0 / rd, odds, odds])
    zero, certain = (mu0 == 0.0) * ZERO_CONTROL, (s0 == 0.0) * CERTAIN_CONTROL
    boundary = ((mu0 == 0.0) | (mu1 == 0.0) | (s0 == 0.0) | (s1 == 0.0)) * NOT_INTERIOR
    singular = np.array([0 * zero, zero, certain, zero, certain,
                         (rd == 0.0) * NULL_EFFECT, boundary, boundary])
    undefined = np.where(singular != 0, singular, ~np.isfinite(values) * NOT_FINITE)
    # math.log is correctly rounded, where np.log can be one ulp off
    log, code = values[-1], undefined[-1]
    code[(code == 0) & ~(log > 0.0)] = NOT_FINITE
    log[code == 0] = list(map(math.log, log[code == 0].tolist()))
    values[undefined != 0] = np.nan
    return {
        m: (values[i], undefined[i])
        for i, m in enumerate(MeasureKind)
        if binary or m not in BINARY_ONLY_MEASURES
    }


def measure_values(measure: MeasureKind, mu0, mu1, kind: OutcomeKind, nonevent=None) -> np.ndarray:
    """``measure`` over the pairs of :func:`measure_table`; the first pair
    outside its domain raises UndefinedMeasure."""
    table = measure_table(mu0, mu1, kind, nonevent)
    if measure not in table:
        raise UndefinedMeasure(f"{measure.value} is defined only for binary outcomes")
    values, undefined = table[measure]
    bad = np.flatnonzero(undefined)
    if bad.size:
        pair = OutcomePair(float(mu0[bad[0]]), float(mu1[bad[0]]), kind)
        reason = UNDEFINED_REASONS[undefined[bad[0]]]
        raise UndefinedMeasure(reason.format(measure=measure.value, pair=pair))
    return values


def pair_arrays(pairs: Sequence[OutcomePair]) -> tuple:
    """The arguments of :func:`measure_table` for pairs of one kind."""
    nonevent = [p.nonevent or (math.nan, math.nan) for p in pairs]
    return [p.mu0 for p in pairs], [p.mu1 for p in pairs], pairs[0].kind, np.transpose(nonevent)


def compute_measure(measure: MeasureKind, pair: OutcomePair) -> MeasureValue:
    """Evaluate ``measure`` on ``pair``, or raise UndefinedMeasure outside
    its domain; the conventions are :func:`measure_table`'s."""
    value = measure_values(measure, *pair_arrays([pair]))[0].item()
    return MeasureValue(measure, value, _NULL_REFERENCE[measure])


def all_measures(pair: OutcomePair) -> list[MeasureValue | UndefinedAnnotation]:
    """Every measure applicable to ``pair.kind``; undefined ones are
    reported in-band as :class:`UndefinedAnnotation`, never omitted."""
    out: list[MeasureValue | UndefinedAnnotation] = []
    for measure, (values, undefined) in measure_table(*pair_arrays([pair])).items():
        if undefined[0]:
            reason = UNDEFINED_REASONS[undefined[0]].format(measure=measure.value, pair=pair)
            out.append(UndefinedAnnotation(measure, reason))
        else:
            out.append(MeasureValue(measure, values[0].item(), _NULL_REFERENCE[measure]))
    return out


def swap_labels(pair: OutcomePair) -> OutcomePair:
    """Relabel the binary outcome (event <-> non-event).

    The measure transforms under the swap are: RD -> -RD, NNT -> -NNT,
    RR <-> SR, ERR <-> RS (up to the same exchange), OR -> 1/OR,
    LogOR -> -LogOR. The swap is a relabelling, not a subtraction: the
    result keeps ``pair``'s probabilities as its ``nonevent`` side, so RD,
    NNT, RR and SR transform exactly, and swapping twice returns ``pair``.
    """
    if pair.kind is not OutcomeKind.BINARY:
        raise UndefinedMeasure("label swap is defined only for binary outcomes")
    if pair.nonevent is not None:
        return OutcomePair(*pair.nonevent, OutcomeKind.BINARY)
    return OutcomePair(
        1.0 - pair.mu0, 1.0 - pair.mu1, OutcomeKind.BINARY, nonevent=(pair.mu0, pair.mu1)
    )


@dataclass(frozen=True)
class FeasibleBaseline:
    """Feasibility summary for a homogeneous risk ratio target.

    ``max_baseline`` is the largest control risk at which the treated
    risk b * target_rr still fits inside [0, 1].
    """

    target_rr: float
    max_baseline: float

    def switch_probability(self, baseline: float) -> float:
        """Switch-on probability m_b that a baseline risk must carry to
        realize the target RR: (rr - 1) * b / (1 - b). Equals 1 at
        ``max_baseline``."""
        if not 0.0 < baseline <= self.max_baseline:
            raise UndefinedMeasure(
                f"baseline must lie in (0, {self.max_baseline}] for RR {self.target_rr}"
            )
        return (self.target_rr - 1.0) * baseline / (1.0 - baseline)


def rr_feasible_baseline(target_rr: float) -> FeasibleBaseline:
    """Largest baseline risk compatible with a homogeneous RR > 1.

    RR <= 1 is feasible at every baseline; that regime raises rather than
    returning a vacuous 1.0, to force explicit handling.
    """
    if not target_rr > 1.0:
        raise UndefinedMeasure("rr_feasible_baseline requires target_rr > 1")
    return FeasibleBaseline(target_rr, 1.0 / target_rr)
