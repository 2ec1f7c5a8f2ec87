"""Exact population truths of the model families, independent of the kernel.

A model is stated by rational parameters (such as 1/6) and stored as the
nearest floats. Each quantity on the program's float path to a truth (a
cell's potential mean, the pooled pair, each measure) is enclosed here in
an interval of rationals that holds both the exact value of the stated
model and every float the path can produce:

* an input is the hull of its rational value and its stored float;
* each ``+ - * /`` is taken exactly on the endpoints and then widened by
  one rounding, since round-to-nearest moves a result z by at most
  u*|z| with u = 2**-53;
* ``math.fsum`` is one rounding of the exact sum of its terms;
* ``log`` is within one ulp of its value (less than 2u relative), and a
  logistic ``1/(1 + exp(-x))`` or ``exp(x)/(1 + exp(x))`` within 7u
  (exp's ulp, then one rounding each of the sum and the quotient); an
  endpoint evaluated in floats carries the same error, so these widen by
  twice that.

The steps follow the definitions in the order the program rounds them:
``b + (1 - b)*m_b - b*m_g`` for the entanglement model, ``(mu1/s1) /
(mu0/s0)`` for OR, ``RR - 1`` for ERR and ``1 - SR`` for RS. A truth
outside its interval is a fault of the program; the interval's width in
ulps of the truth is the error bound those roundings imply.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction

from effectmeasures.genmodel import (
    ContinuousOutcomeModel,
    EntanglementModel,
    LogitOutcomeModel,
    pooled_pair,
    population_measures,
)
from effectmeasures.measures import MeasureKind, MeasureValue, OutcomeKind

U = Fraction(1, 2**53)  # unit roundoff of binary64


def _down(q: Fraction) -> Fraction:
    f = float(q)
    return Fraction(f if Fraction(f) <= q else math.nextafter(f, -math.inf))


def _up(q: Fraction) -> Fraction:
    f = float(q)
    return Fraction(f if Fraction(f) >= q else math.nextafter(f, math.inf))


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    @staticmethod
    def hull(*values) -> Interval:
        values = [Fraction(v) for v in values]
        return Interval(min(values), max(values))

    def widened(self, rel: Fraction) -> Interval:
        return Interval(self.lo - rel * abs(self.lo), self.hi + rel * abs(self.hi))

    def __add__(self, other: Interval) -> Interval:
        return Interval(self.lo + other.lo, self.hi + other.hi).widened(U)

    def __sub__(self, other: Interval) -> Interval:
        return Interval(self.lo - other.hi, self.hi - other.lo).widened(U)

    def __mul__(self, other: Interval) -> Interval:
        ends = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Interval(min(ends), max(ends)).widened(U)

    def __truediv__(self, other: Interval) -> Interval:
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError(f"{other} holds zero")
        ends = [a / b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Interval(min(ends), max(ends)).widened(U)

    def __contains__(self, value) -> bool:
        return self.lo <= Fraction(value) <= self.hi

    def ulps(self) -> float:
        """Width in ulps of the endpoint of larger magnitude."""
        return float((self.hi - self.lo) / Fraction(math.ulp(float(max(-self.lo, self.hi)))))


def _increasing(f, x: Interval, rel: Fraction) -> Interval:
    return Interval.hull(f(float(_down(x.lo))), f(float(_up(x.hi)))).widened(rel)


def log(x: Interval) -> Interval:
    return _increasing(math.log, x, 4 * U)


def expit(x: Interval) -> Interval:
    return _increasing(lambda v: 1.0 / (1.0 + math.exp(-v)), x, 14 * U)


ONE = Interval.hull(1)


def _inputs(model, exact) -> dict:
    """{field: {cell: Interval}}: each parameter's hull of its rational value
    in ``exact`` (the stored float itself where ``exact`` leaves it out)
    and its float."""
    return {
        field.name: {
            c: Interval.hull(v, exact.get(field.name, {}).get(c, v))
            for c, v in getattr(model, field.name).items()
        }
        for field in fields(model)
        if field.default is MISSING  # the per-cell functions
    }


def _logit(p: Interval) -> Interval:
    return log(p / (ONE - p))


def cell_means(model, exact=None) -> dict:
    """{cell: (E[Y(0)], E[Y(1)])} as intervals. ``exact`` maps field names
    to {cell: rational value}."""
    x = _inputs(model, exact or {})
    if isinstance(model, EntanglementModel):
        return {c: (b, b + (ONE - b) * x["m_b"][c] - b * x["m_g"][c]) for c, b in x["b"].items()}
    means = {c: (b, b + x["m"][c]) for c, b in x["b"].items()}
    if isinstance(model, ContinuousOutcomeModel):
        return means
    assert isinstance(model, LogitOutcomeModel)
    return {c: (expit(b), expit(b1)) for c, (b, b1) in means.items()}


def translated_cell_means(model: EntanglementModel, exact=None) -> dict:
    """The cell means of ``entanglement_to_logit(model)``: logit of each
    entanglement mean, then back through expit. Exactly, they are the
    entanglement model's own means."""
    out = {}
    for c, (p0, p1) in cell_means(model, exact).items():
        b2 = _logit(p0)
        m2 = _logit(p1) - b2
        out[c] = (expit(b2), expit(b2 + m2))
    return out


def pooled(means: dict, probabilities: dict, kind: OutcomeKind) -> tuple[Interval, Interval]:
    """(E[Y(0)], E[Y(1)]) over cells weighted by {cell: (float, rational)}
    probabilities, summed as ``math.fsum`` sums, clamped to [0, 1] when
    binary."""
    pair = []
    for a in (0, 1):
        terms = [Interval.hull(*probabilities[c]) * means[c][a] for c in means]
        mu = Interval(sum(t.lo for t in terms), sum(t.hi for t in terms)).widened(U)
        if kind is OutcomeKind.BINARY:
            mu = Interval(max(mu.lo, Fraction(0)), min(mu.hi, Fraction(1)))
        pair.append(mu)
    return pair[0], pair[1]


def measures(mu0: Interval, mu1: Interval, kind: OutcomeKind) -> dict[MeasureKind, Interval]:
    rd, rr = mu1 - mu0, mu1 / mu0
    out = {MeasureKind.RD: rd, MeasureKind.RR: rr, MeasureKind.ERR: rr - ONE}
    if kind is OutcomeKind.BINARY:
        s0, s1 = ONE - mu0, ONE - mu1
        sr, odds = s1 / s0, (mu1 / s1) / (mu0 / s0)
        out |= {
            MeasureKind.SR: sr,
            MeasureKind.RS: ONE - sr,
            MeasureKind.NNT: ONE / rd,
            MeasureKind.OR: odds,
            MeasureKind.LOG_OR: log(odds),
        }
    return {m: out[m] for m in MeasureKind if m in out}


def assert_truths_exact(model, space, population, means, probabilities=None) -> dict:
    """Assert that ``pooled_pair`` and every ``population_measures`` entry
    lie in their intervals, from cell-mean intervals ``means`` and the
    rational cell ``probabilities`` (the stored floats where left out).
    Returns the measures' intervals."""
    stored = dict(zip(space.cells, space.probabilities(population)))
    exact = {c: (p, (probabilities or {}).get(c, p)) for c, p in stored.items()}
    mu0, mu1 = pooled(means, exact, model.kind)
    pair = pooled_pair(model, space, population)
    assert pair.mu0 in mu0 and pair.mu1 in mu1, (pair, mu0, mu1)
    intervals = measures(mu0, mu1, model.kind)
    truths = population_measures(model, space, population)
    assert [e.measure for e in truths] == list(intervals)
    for entry in truths:
        assert isinstance(entry, MeasureValue) and entry.value in intervals[entry.measure], entry
    return intervals


def widest(intervals: dict) -> float:
    return max(interval.ulps() for interval in intervals.values())
