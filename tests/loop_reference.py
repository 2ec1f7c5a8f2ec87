"""Reference cell-means estimators: per-row Python over tuples and dicts.

These are the g-formula, IPSW and local estimators as they were written
before samples became columnar, kept as the reference the vectorized
estimators in ``effectmeasures.transport`` are compared against. They
read a sample's rows as plain Python tuples and return the estimate's
value, or raise the same errors.
"""

import math

from effectmeasures.errors import (
    InvariantViolation,
    MissingTargetControlOutcome,
    NonCollapsible,
    SupportViolation,
    UndefinedMeasure,
)
from effectmeasures.measures import MeasureKind, OutcomeKind, OutcomePair, compute_measure
from effectmeasures.strata import COLLAPSIBLE_MEASURES


def _rows(sample):
    return [tuple(row) for row in sample.x.tolist()]


def _cells(rows, idx):
    return [tuple(row[i] for i in idx) for row in rows]


def _frequencies(cells):
    counts = {}
    for cell in cells:
        counts[cell] = counts.get(cell, 0) + 1
    n = len(cells)
    return {cell: c / n for cell, c in counts.items()}


def _infer_kind(y):
    if all(v in (0.0, 1.0) for v in y):
        return OutcomeKind.BINARY
    return OutcomeKind.CONTINUOUS


def _pair(mu0, mu1, kind):
    try:
        return OutcomePair(mu0, mu1, kind)
    except InvariantViolation as exc:
        raise UndefinedMeasure(f"estimated pair out of range: {exc}") from None


def _arm_cell_means(trial, idx):
    sums = {}
    for cell, a, y in zip(_cells(_rows(trial), idx), trial.a.tolist(), trial.y.tolist()):
        acc = sums.setdefault(cell, [0.0, 0, 0.0, 0])
        if a == 1:
            acc[0] += y
            acc[1] += 1
        else:
            acc[2] += y
            acc[3] += 1
    mu1 = {c: s[0] / s[1] for c, s in sums.items() if s[1] > 0}
    mu0 = {c: s[2] / s[3] for c, s in sums.items() if s[3] > 0}
    return mu0, mu1


def density_ratios(trial, target, covariates):
    src = _frequencies(_cells(_rows(trial), trial.column_indices(covariates)))
    tgt = _frequencies(_cells(_rows(target), target.column_indices(covariates)))
    unseen = sorted(cell for cell in tgt if cell not in src)
    if unseen:
        raise SupportViolation(unseen)
    return {cell: tgt.get(cell, 0.0) / p for cell, p in src.items()}


def gformula(trial, target, measure, covariates):
    mu0_by_cell, mu1_by_cell = _arm_cell_means(trial, trial.column_indices(covariates))
    tgt_cells = _cells(_rows(target), target.column_indices(covariates))
    missing = sorted({c for c in tgt_cells if c not in mu0_by_cell or c not in mu1_by_cell})
    if missing:
        raise SupportViolation(missing)
    mu0 = math.fsum(mu0_by_cell[c] for c in tgt_cells) / len(tgt_cells)
    mu1 = math.fsum(mu1_by_cell[c] for c in tgt_cells) / len(tgt_cells)
    return compute_measure(measure, _pair(mu0, mu1, _infer_kind(trial.y.tolist()))).value


def ipsw(trial, target, measure, covariates):
    ratios = density_ratios(trial, target, covariates)
    cells = _cells(_rows(trial), trial.column_indices(covariates))
    sums = [0.0, 0.0]
    counts = [0, 0]
    for cell, a, y in zip(cells, trial.a.tolist(), trial.y.tolist()):
        sums[a] += ratios.get(cell, 0.0) * y
        counts[a] += 1
    pair = _pair(sums[0] / counts[0], sums[1] / counts[1], _infer_kind(trial.y.tolist()))
    return compute_measure(measure, pair).value


def local(trial, target, measure, covariates):
    if measure not in COLLAPSIBLE_MEASURES:
        raise NonCollapsible(measure)
    if measure is not MeasureKind.RD and target.y0 is None:
        raise MissingTargetControlOutcome(measure.value)
    mu0_by_cell, mu1_by_cell = _arm_cell_means(trial, trial.column_indices(covariates))
    tgt_cells = _cells(_rows(target), target.column_indices(covariates))
    proportions = _frequencies(tgt_cells)
    missing = sorted({c for c in proportions if c not in mu0_by_cell or c not in mu1_by_cell})
    if missing:
        raise SupportViolation(missing)
    kind = _infer_kind(trial.y.tolist())
    values = {
        c: compute_measure(measure, _pair(mu0_by_cell[c], mu1_by_cell[c], kind)).value
        for c in proportions
    }
    if measure is MeasureKind.RD:
        weights = proportions
    else:
        y0_sum = {}
        for cell, y0 in zip(tgt_cells, target.y0.tolist()):
            acc = y0_sum.setdefault(cell, [0.0, 0])
            acc[0] += y0
            acc[1] += 1
        y0_mean = {c: s[0] / s[1] for c, s in y0_sum.items()}
        if measure in (MeasureKind.RR, MeasureKind.ERR):
            raw = {c: proportions[c] * y0_mean[c] for c in proportions}
        else:
            raw = {c: proportions[c] * (1.0 - y0_mean[c]) for c in proportions}
        total = math.fsum(raw.values())
        if total == 0.0:
            raise UndefinedMeasure("degenerate target control outcomes: all weights zero")
        weights = {c: w / total for c, w in raw.items()}
    return math.fsum(weights[c] * values[c] for c in proportions)
