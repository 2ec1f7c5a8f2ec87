"""Covariate-set planning and trial-to-target generalization.

Two strategies move an effect from a source trial to a target population:

* conditional-outcome generalization — fit per-arm conditional means on
  the trial, average them over the target (g-formula), or reweight the
  trial by the target/source covariate density ratio (IPSW);
* local-effect generalization — estimate the effect within covariate
  cells and recombine with target-side collapsibility weights.

``plan_adjustment`` reports which covariates each (measure, outcome,
direction, strategy) combination needs, and whether the target must also
supply control outcomes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvariantViolation,
    MissingTargetControlOutcome,
    NonCollapsible,
    SingularDesign,
    SupportViolation,
    UndefinedMeasure,
)
from .genmodel import MonotonicityDirection
from .measures import (
    MeasureKind,
    OutcomeKind,
    OutcomePair,
    compute_measure,
    measure_values,
)
from .strata import COLLAPSIBLE_MEASURES

__all__ = [
    "CovariateRoles",
    "Strategy",
    "Learner",
    "AdjustmentPlan",
    "TrialSample",
    "TargetSample",
    "DensityRatio",
    "GeneralizedEstimate",
    "plan_adjustment",
    "estimate_density_ratio",
    "gformula_conditional",
    "ipsw_conditional",
    "generalize_local",
    "least_squares_fit",
    "stack_columns",
]


class Strategy(enum.Enum):
    CONDITIONAL_OUTCOME = "conditional"
    LOCAL_EFFECT = "local"


class Learner(enum.Enum):
    CELL_MEANS = "cell-means"
    LEAST_SQUARES = "least-squares"


@dataclass(frozen=True)
class CovariateRoles:
    """Covariate names partitioned by role.

    ``baseline`` enters the control-outcome function, ``modulator`` the
    effect-modification function, ``shifted`` collects covariates whose
    distribution differs between source and target.
    """

    all: tuple[str, ...]
    baseline: frozenset[str]
    modulator: frozenset[str]
    shifted: frozenset[str]

    def __post_init__(self) -> None:
        universe = set(self.all)
        if len(universe) != len(self.all):
            raise InvariantViolation("duplicate covariate names")
        for name, subset in (
            ("baseline", self.baseline),
            ("modulator", self.modulator),
            ("shifted", self.shifted),
        ):
            if not subset <= universe:
                raise InvariantViolation(f"{name} set {subset!r} not within {self.all!r}")

    def ordered(self, subset: frozenset[str]) -> tuple[str, ...]:
        return tuple(c for c in self.all if c in subset)


@dataclass(frozen=True)
class AdjustmentPlan:
    measure: MeasureKind
    outcome: OutcomeKind
    direction: MonotonicityDirection
    strategy: Strategy
    required_covariates: tuple[str, ...]
    requires_target_y0: bool


def plan_adjustment(
    roles: CovariateRoles,
    measure: MeasureKind,
    outcome: OutcomeKind,
    direction: MonotonicityDirection,
    strategy: Strategy,
) -> AdjustmentPlan:
    """Minimal covariate set for generalization.

    Conditional-outcome generalization always needs the shifted
    prognostic covariates, (B u M) n Sh, and never target control
    outcomes. Local-effect generalization can do better when the local
    effect depends only on modulators: RD on a continuous outcome needs
    just M n Sh, and so do RR under a beneficial effect and SR under a
    harmful effect on a binary outcome — those two additionally need the
    target control-outcome distribution to rebuild the weights. Other
    collapsible measures fall back to (B u M) n Sh; NNT, OR and log-OR
    cannot be recombined from local effects at all.
    """
    prognostic = roles.baseline | roles.modulator
    if strategy is Strategy.CONDITIONAL_OUTCOME:
        required = prognostic & roles.shifted
        needs_y0 = False
    else:
        if measure not in COLLAPSIBLE_MEASURES:
            raise NonCollapsible(measure)
        modulator_only = frozenset(roles.modulator & roles.shifted)
        if measure is MeasureKind.RD and outcome is OutcomeKind.CONTINUOUS:
            required, needs_y0 = modulator_only, False
        elif outcome is OutcomeKind.BINARY and (
            (measure is MeasureKind.RR and direction is MonotonicityDirection.BENEFICIAL)
            or (measure is MeasureKind.SR and direction is MonotonicityDirection.HARMFUL)
        ):
            required, needs_y0 = modulator_only, True
        else:
            required = prognostic & roles.shifted
            needs_y0 = measure is not MeasureKind.RD
    return AdjustmentPlan(
        measure, outcome, direction, strategy, roles.ordered(frozenset(required)), needs_y0
    )


def _frozen(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _check_finite(name: str, values: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvariantViolation(
            f"{name} must be finite, got {values[bad[0]].item()!r} at row index {bad[0]}"
        )


def _is_number(kind: type) -> bool:
    return issubclass(kind, (int, float, np.integer, np.floating)) and not issubclass(kind, bool)


def _numeric(items: list) -> np.ndarray | None:
    kinds = set(map(type, items))
    if not kinds or not all(map(_is_number, kinds)):
        return None
    integral = all(issubclass(k, (int, np.integer)) for k in kinds)
    try:
        return np.array(items, dtype=np.int64 if integral else np.float64)
    except OverflowError:  # integers beyond int64 stay exact, as objects
        return None


def _column(values) -> np.ndarray:
    """One covariate column: int64 when every value is an integer,
    float64 when every value is a real number, else the values as objects
    (strings, or a mix)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(np.float64 if values.dtype.kind == "f" else np.int64, copy=False)
    items = values.tolist() if isinstance(values, np.ndarray) else list(values)
    column = _numeric(items)
    if column is None:
        column = np.empty(len(items), dtype=object)
        column[:] = items
    return column


def _columns(covariates: tuple[str, ...], x) -> tuple[np.ndarray, ...]:
    """Validated covariate columns from row tuples or a 2-D array of rows."""
    if isinstance(x, np.ndarray):
        if x.ndim != 2 or x.shape[1] != len(covariates):
            raise InvariantViolation("row arity differs from covariate list")
        columns = x.T
    else:
        if any(len(row) != len(covariates) for row in x):
            raise InvariantViolation("row arity differs from covariate list")
        columns = zip(*x)
    out = []
    for name, values in zip(covariates, columns):
        column = _column(values)
        numbers = column if column.dtype != object else np.array(
            [v for v in column if isinstance(v, (float, np.floating))], dtype=np.float64
        )
        _check_finite(f"covariate {name!r}", numbers)
        out.append(_frozen(column))
    return tuple(out)


def stack_columns(columns: Sequence, n: int) -> np.ndarray:
    """The ``n`` rows of covariate columns as one 2-D array: of the
    columns' dtype when they share a numeric one, else of objects holding
    each column's own values."""
    columns = [_column(c) for c in columns]
    dtypes = {c.dtype for c in columns}
    if len(dtypes) == 1 and object not in dtypes:
        return np.column_stack(columns)
    rows = np.empty((n, len(columns)), dtype=object)
    for j, column in enumerate(columns):
        rows[:, j] = column
    return rows


def _same(p: np.ndarray | None, q: np.ndarray | None) -> bool:
    if p is None or q is None:
        return p is q
    return np.array_equal(p, q)


class _Sample:
    """Covariate columns shared by trial and target samples.

    ``x`` takes row tuples or a 2-D array of rows; each covariate is
    stored as its own read-only column (see :func:`_column`). ``x`` reads
    back the rows as a 2-D array, built on each access.
    """

    __slots__ = ("covariates", "columns", "n")

    def __init__(self, covariates: Sequence[str], x) -> None:
        self.covariates = tuple(covariates)
        if len(set(self.covariates)) != len(self.covariates):
            raise InvariantViolation(f"duplicate covariate names in {self.covariates!r}")
        self.n = len(x)
        if self.n == 0:
            raise InvariantViolation(f"{type(self).__name__} needs at least one row")
        self.columns = _columns(self.covariates, x)

    @property
    def x(self) -> np.ndarray:
        return stack_columns(self.columns, self.n)

    def column_indices(self, covariates: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(self.covariates.index(c) for c in covariates)
        except ValueError as exc:
            raise InvariantViolation(str(exc)) from None

    def _arrays(self) -> tuple:
        return self.columns

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = self._arrays(), other._arrays()
        return (
            self.covariates == other.covariates
            and self.n == other.n
            and all(_same(p, q) for p, q in zip(mine, theirs))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(covariates={self.covariates!r}, n={self.n})"


def _outcomes(name: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    _check_finite(name, values)
    return _frozen(values)


class TrialSample(_Sample):
    """Row-level source data: covariates, randomized arm (``a``, int8),
    outcome (``y``, float64)."""

    __slots__ = ("a", "y")

    def __init__(self, covariates: Sequence[str], x, a, y) -> None:
        super().__init__(covariates, x)
        a = np.asarray(a)
        if a.shape != (self.n,) or np.shape(y) != (self.n,):
            raise InvariantViolation("x, a, y must have equal length")
        if not ((a == 0) | (a == 1)).all():
            raise InvariantViolation("treatment indicator must be 0 or 1")
        self.a = _frozen(a.astype(np.int8))
        if self.a.all() or not self.a.any():
            raise SingularDesign("both treatment arms need observations")
        self.y = _outcomes("y", y)

    def _arrays(self) -> tuple:
        return self.columns + (self.a, self.y)


class TargetSample(_Sample):
    """Row-level target data: covariates, optionally control outcomes
    (``y0``, float64)."""

    __slots__ = ("y0",)

    def __init__(self, covariates: Sequence[str], x, y0=None) -> None:
        super().__init__(covariates, x)
        if y0 is not None and np.shape(y0) != (self.n,):
            raise InvariantViolation("y0 must cover every row or be absent")
        self.y0 = None if y0 is None else _outcomes("y0", y0)

    def _arrays(self) -> tuple:
        return self.columns + (self.y0,)


@dataclass(frozen=True, eq=False)
class DensityRatio:
    """Empirical target/source frequency ratio per covariate cell, and
    its value at each trial row (the IPSW weights)."""

    covariates: tuple[str, ...]
    ratios: dict[tuple, float]
    at_trial_rows: np.ndarray

    def __call__(self, cell: tuple) -> float:
        return self.ratios.get(cell, 0.0)


@dataclass(frozen=True)
class GeneralizedEstimate:
    measure: MeasureKind
    strategy: Strategy
    value: float
    covariates_used: tuple[str, ...]
    n_source: int
    n_target: int


def _code_column(source: np.ndarray, target: np.ndarray) -> tuple[int, np.ndarray]:
    """Level count and per-row level codes of one covariate over trial
    and target rows together; levels in sorted order where they compare."""
    if source.dtype != object and target.dtype != object:
        levels, inverse = np.unique(np.concatenate([source, target]), return_inverse=True)
        return len(levels), inverse
    values = source.tolist() + target.tolist()
    levels = list(dict.fromkeys(values))
    try:
        levels.sort()
    except TypeError:  # e.g. ints mixed with strings: first-seen order
        pass
    index = {value: k for k, value in enumerate(levels)}
    return len(levels), np.fromiter(map(index.__getitem__, values), np.int64, len(values))


class _Cells:
    """Trial and target rows coded by covariate cell.

    Codes run over ``0..size-1`` in the sorted order of the cell tuples
    and mean the same cell in both samples. Each covariate is coded on
    its own and the codes are combined in mixed radix; whenever the
    radix product exceeds the row count, the codes are re-compacted, so
    the product stays below the squared row count and never overflows
    int64.
    """

    def __init__(self, trial: TrialSample, target: TargetSample, covariates: Sequence[str]):
        self.trial_columns = [trial.columns[i] for i in trial.column_indices(covariates)]
        self.target_columns = [target.columns[i] for i in target.column_indices(covariates)]
        code = np.zeros(trial.n + target.n, dtype=np.int64)
        size = 1
        for source, tgt in zip(self.trial_columns, self.target_columns):
            levels, inverse = _code_column(source, tgt)
            code = code * levels + inverse
            size *= levels
            if size > len(code):
                cells, code = np.unique(code, return_inverse=True)
                size = len(cells)
        self.size = size
        self.trial, self.target = code[: trial.n], code[trial.n :]

    def tuples(self, codes: np.ndarray, in_target: bool) -> list[tuple]:
        """Plain cell tuples for ``codes``, read from the first trial (or
        target) row in each cell."""
        rows_codes, columns = (
            (self.target, self.target_columns) if in_target else (self.trial, self.trial_columns)
        )
        present, first = np.unique(rows_codes, return_index=True)
        rows = first[np.searchsorted(present, codes)]
        if not columns:
            return [()] * len(rows)
        return list(zip(*(column[rows].tolist() for column in columns)))

    def counts(self, codes: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        return np.bincount(codes, weights=weights, minlength=self.size)


def estimate_density_ratio(
    trial: TrialSample, target: TargetSample, covariates: Sequence[str]
) -> DensityRatio:
    """Ratio of empirical cell frequencies, p_T(x) / p_S(x)."""
    cells = _Cells(trial, target, covariates)
    src = cells.counts(cells.trial)
    tgt = cells.counts(cells.target)
    unseen = np.flatnonzero((tgt > 0) & (src == 0))
    if unseen.size:
        raise SupportViolation(cells.tuples(unseen, in_target=True))
    seen = np.flatnonzero(src)
    by_code = np.zeros(cells.size)
    by_code[seen] = (tgt[seen] / target.n) / (src[seen] / trial.n)
    ratios = dict(zip(cells.tuples(seen, in_target=False), by_code[seen].tolist()))
    return DensityRatio(tuple(covariates), ratios, _frozen(by_code[cells.trial]))


def _infer_kind(trial: TrialSample) -> OutcomeKind:
    if ((trial.y == 0.0) | (trial.y == 1.0)).all():
        return OutcomeKind.BINARY
    return OutcomeKind.CONTINUOUS


def _cell_means(trial: TrialSample, target: TargetSample, covariates: Sequence[str]):
    """The cells of ``covariates`` and each arm's mean trial outcome per
    cell, indexed by cell code (NaN where the arm has no row in the cell).
    Every cell with target rows needs rows in both trial arms."""
    cells = _Cells(trial, target, covariates)
    # one bin per (cell, arm); bincount adds each bin's outcomes in row order
    by_arm = 2 * cells.trial + trial.a
    count = np.bincount(by_arm, minlength=2 * cells.size).reshape(cells.size, 2).T
    total = np.bincount(by_arm, trial.y, minlength=2 * cells.size).reshape(cells.size, 2).T
    mu0, mu1 = np.divide(total, count, out=np.full(count.shape, np.nan), where=count > 0)
    missing = np.flatnonzero((cells.counts(cells.target) > 0) & (np.isnan(mu0) | np.isnan(mu1)))
    if missing.size:
        raise SupportViolation(cells.tuples(missing, in_target=True))
    return cells, mu0, mu1


def _contrast(trial: TrialSample, target: TargetSample, measure, covariates, means):
    """The conditional-outcome estimate: ``measure`` of the generalized
    arm means ``(mu0, mu1)``."""
    try:
        pair = OutcomePair(float(means[0]), float(means[1]), _infer_kind(trial))
    except InvariantViolation as exc:
        raise UndefinedMeasure(f"estimated pair out of range: {exc}") from None
    value = compute_measure(measure, pair).value
    return GeneralizedEstimate(
        measure, Strategy.CONDITIONAL_OUTCOME, value, tuple(covariates), trial.n, target.n
    )


def least_squares_fit(x_rows: Sequence[Sequence[float]], y: Sequence[float]) -> np.ndarray:
    """Minimum-norm least squares with an intercept (first coefficient)."""
    if len(x_rows) == 0:
        raise SingularDesign("least squares needs at least one row")
    design = np.column_stack([np.ones(len(x_rows)), np.asarray(x_rows, dtype=float)])
    coef, *_ = np.linalg.lstsq(design, np.asarray(y, dtype=float), rcond=None)
    return coef


def _gformula_means(trial: TrialSample, target: TargetSample, covariates, learner: Learner):
    """Per-arm conditional means fitted on the trial by ``learner``,
    averaged over the target rows."""
    if learner is Learner.CELL_MEANS:
        cells, mu0, mu1 = _cell_means(trial, target, covariates)
        # fsum is exact, so the per-row order of the gathered means is immaterial
        return (
            math.fsum(mu0[cells.target].tolist()) / target.n,
            math.fsum(mu1[cells.target].tolist()) / target.n,
        )
    source = [trial.columns[i] for i in trial.column_indices(covariates)]
    # a C-contiguous design keeps the BLAS product, and so the mean, bit-stable
    tgt = np.column_stack(
        [np.ones(target.n)] + [target.columns[i] for i in target.column_indices(covariates)]
    ).astype(float)
    means = []
    for arm in (0, 1):
        rows = trial.a == arm
        x_rows = stack_columns([column[rows] for column in source], int(rows.sum()))
        coef = least_squares_fit(x_rows, trial.y[rows])
        means.append(float((tgt @ coef).mean()))
    return means[0], means[1]


def gformula_conditional(
    trial: TrialSample,
    target: TargetSample,
    measure: MeasureKind,
    covariates: Sequence[str],
    learner: Learner = Learner.CELL_MEANS,
) -> GeneralizedEstimate:
    """Plug-in g-formula: fit per-arm conditional means on the trial,
    average them over the target covariate rows, contrast."""
    means = _gformula_means(trial, target, covariates, learner)
    return _contrast(trial, target, measure, covariates, means)


def ipsw_conditional(
    trial: TrialSample,
    target: TargetSample,
    measure: MeasureKind,
    covariates: Sequence[str],
    learner: Learner = Learner.CELL_MEANS,
) -> GeneralizedEstimate:
    """Inverse propensity sampling weighting with empirical-frequency
    density ratios and arm-normalized weights:
    (1/n_a) * sum over arm a of r(X_i) * Y_i. The ratios are cell
    frequencies, so ``learner`` must be cell-means."""
    if learner is not Learner.CELL_MEANS:
        raise InvariantViolation(f"ipsw takes no {learner.value} learner")
    ratio = estimate_density_ratio(trial, target, covariates)
    # bincount adds in row order, as a running sum over the rows would
    sums = np.bincount(trial.a, weights=ratio.at_trial_rows * trial.y, minlength=2)
    counts = np.bincount(trial.a, minlength=2)
    return _contrast(trial, target, measure, covariates, sums / counts)


def generalize_local(
    trial: TrialSample,
    target: TargetSample,
    measure: MeasureKind,
    covariates: Sequence[str],
    learner: Learner = Learner.CELL_MEANS,
) -> GeneralizedEstimate:
    """Estimate the measure per covariate cell on the trial, recombine
    with target-side collapsibility weights.

    The weights mirror the collapsibility formulas: target proportions
    for RD; proportions scaled by target control-outcome cell means for
    RR/ERR (control survival for SR/RS), which is why the non-RD measures
    need ``target.y0``. For RD the result coincides with the g-formula:
    least-squares local effects, RD only, are the least-squares
    g-formula's ``mu1 - mu0``.
    """
    if measure not in COLLAPSIBLE_MEASURES:
        raise NonCollapsible(measure)
    if learner is Learner.LEAST_SQUARES:
        if measure is not MeasureKind.RD:
            raise UndefinedMeasure("least-squares local effects are supported for RD only")
        mu0, mu1 = _gformula_means(trial, target, covariates, learner)
        return GeneralizedEstimate(
            measure, Strategy.LOCAL_EFFECT, mu1 - mu0, tuple(covariates), trial.n, target.n
        )

    if measure is not MeasureKind.RD and target.y0 is None:
        raise MissingTargetControlOutcome(
            f"{measure.value} weights need control outcomes in the target sample"
        )
    cells, mu0, mu1 = _cell_means(trial, target, covariates)
    count = cells.counts(cells.target)
    present = np.flatnonzero(count)
    try:
        local = measure_values(measure, mu0[present], mu1[present], _infer_kind(trial))
    except InvariantViolation as exc:
        raise UndefinedMeasure(f"estimated pair out of range: {exc}") from None
    proportions = count[present] / target.n
    if measure is MeasureKind.RD:
        weights = proportions
    else:
        y0_mean = cells.counts(cells.target, target.y0)[present] / count[present]
        # RR/ERR weigh by the control mean, SR/RS by the control survival
        ratio_scale = measure in (MeasureKind.RR, MeasureKind.ERR)
        raw = proportions * (y0_mean if ratio_scale else 1.0 - y0_mean)
        total = math.fsum(raw.tolist())
        if total == 0.0:
            raise UndefinedMeasure("degenerate target control outcomes: all weights zero")
        weights = raw / total
    value = math.fsum((weights * local).tolist())
    return GeneralizedEstimate(
        measure, Strategy.LOCAL_EFFECT, value, tuple(covariates), trial.n, target.n
    )
