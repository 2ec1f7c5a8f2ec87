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

import math
from dataclasses import dataclass, field
from functools import cached_property
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
from .measures import MeasureKind, OutcomeKind, measure_values
from .strata import COLLAPSIBLE_MEASURES, collapse_weights
from .vocab import Learner, MonotonicityDirection, Strategy

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
]


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
    """``array``, which no caller holds, made read-only."""
    array.flags.writeable = False
    return array


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


def _int_type(lo: int, hi: int) -> np.dtype:
    """The smallest signed integer type that holds ``lo`` and ``hi``
    (``lo <= hi``, Python ints within int64): the type of the more
    negative of ``lo`` and ``-1 - hi``, as a signed type holds ``-1 - hi``
    exactly when it holds ``hi``."""
    return np.min_scalar_type(min(lo, -1 - hi))


def _column(values) -> np.ndarray:
    """One covariate column, a new array: when every value is an integer,
    of the smallest signed integer type that holds their minimum and
    maximum (see :func:`_int_type`); float64 when every value is a real
    number; else the values as objects (strings, or a mix)."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        items = values.tolist() if isinstance(values, np.ndarray) else list(values)
        values = _numeric(items)
        if values is None:
            column = np.empty(len(items), dtype=object)
            column[:] = items
            return column
    if values.dtype.kind == "f":
        return values.astype(np.float64)
    lo, hi = int(values.min(initial=0)), int(values.max(initial=0))
    if hi > np.iinfo(np.int64).max:  # uint64 beyond int64: the exact objects of the row path
        return _column(values.tolist())
    return values.astype(_int_type(lo, hi))


def _columns(covariates: tuple[str, ...], x) -> tuple[int, tuple[np.ndarray, ...]]:
    """The number of rows and the validated covariate columns, each typed
    once by :func:`_column`, from a dict of each covariate's column, row
    tuples or a 2-D array of rows."""
    if isinstance(x, dict):
        if x.keys() != set(covariates):
            raise InvariantViolation(f"columns {list(x)!r} differ from covariates {covariates!r}")
        columns = [x[name] for name in covariates]
        if not all(isinstance(c, (list, tuple)) or np.ndim(c) == 1 for c in columns):
            raise InvariantViolation("covariate columns must be 1-D")
        n = len(columns[0]) if columns else 0
        if any(len(c) != n for c in columns):
            raise InvariantViolation("covariate columns differ in length")
    elif isinstance(x, np.ndarray):
        if x.ndim != 2 or x.shape[1] != len(covariates):
            raise InvariantViolation("row arity differs from covariate list")
        n, columns = len(x), x.T
    else:
        if any(len(row) != len(covariates) for row in x):
            raise InvariantViolation("row arity differs from covariate list")
        n, columns = len(x), zip(*x)
    out = []
    for name, values in zip(covariates, columns):
        column = _column(values)
        numbers = column if column.dtype != object else np.array(
            [v for v in column if isinstance(v, (float, np.floating))], dtype=np.float64
        )
        _check_finite(f"covariate {name!r}", numbers)
        out.append(_frozen(column))
    return n, tuple(out)


def _same(p: np.ndarray | None, q: np.ndarray | None) -> bool:
    if p is None or q is None:
        return p is q
    return np.array_equal(p, q)


class _Sample:
    """Covariate columns shared by trial and target samples.

    ``x`` takes a dict from each covariate name to its column, row tuples
    or a 2-D array of rows; each covariate is stored as its own read-only
    column, typed once (see :func:`_column`). ``x`` reads back the rows,
    built from those columns on each access: int64 where every column
    holds integers, so a caller's arithmetic on the rows cannot wrap,
    float64 where every column holds floats, else each column's own
    values as objects. A sample owns every array it holds, copied from its
    arguments, so it never changes after construction and the estimators
    may keep results computed from it (see :func:`_once_per_pair`).
    """

    __slots__ = ("covariates", "columns", "n")

    def __init__(self, covariates: Sequence[str], x) -> None:
        self.covariates = tuple(covariates)
        if len(set(self.covariates)) != len(self.covariates):
            raise InvariantViolation(f"duplicate covariate names in {self.covariates!r}")
        self.n, self.columns = _columns(self.covariates, x)
        if self.n == 0:
            raise InvariantViolation(f"{type(self).__name__} needs at least one row")

    @property
    def x(self) -> np.ndarray:
        kinds = {c.dtype.kind for c in self.columns}
        dtype = np.int64 if kinds == {"i"} else np.float64 if kinds == {"f"} else object
        rows = np.empty((self.n, len(self.columns)), dtype=dtype)
        for j, column in enumerate(self.columns):
            rows[:, j] = column
        return rows

    def column_indices(self, covariates: Sequence[str]) -> tuple[int, ...]:
        for name in covariates:
            if name not in self.covariates:
                raise InvariantViolation(
                    f"unknown covariate {name!r}; {type(self).__name__} has {self.covariates!r}"
                )
        return tuple(map(self.covariates.index, covariates))

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
    values = np.array(values, dtype=np.float64)
    _check_finite(name, values)
    return _frozen(values)


class TrialSample(_Sample):
    """Row-level source data: covariates, randomized arm (``a``, int8),
    outcome (``y``, float64)."""

    __slots__ = ("a", "y", "_memo")

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
        self._memo = None

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
    its value at each trial row (the IPSW weights). ``ratios``, the ratio
    by cell tuple, is read on first use from the trial's covariate columns
    and ``at_trial_rows``."""

    covariates: tuple[str, ...]
    at_trial_rows: np.ndarray
    _trial_columns: tuple[np.ndarray, ...] = field(repr=False)

    @cached_property
    def ratios(self) -> dict[tuple, float]:
        columns = [column.tolist() for column in self._trial_columns]
        cells = zip(*columns) if columns else [()] * len(self.at_trial_rows)
        return dict(zip(cells, self.at_trial_rows.tolist()))

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
    and target rows together; levels in sorted order where they compare.
    The codes are a new array of the smallest signed integer type that
    indexes the levels, ``np.min_scalar_type(-levels)``.

    An integer column whose value range is below its row count is coded
    without a sort: the minimum is subtracted in place from the rows'
    concatenation, in the smaller type that holds the columns' values and
    their offsets from the minimum, the offsets present are marked, and a
    running count of them gives each offset its code, the code
    ``np.unique`` would give. Indexing by the offsets reads them in their
    own type, where ``np.bincount`` would first copy them to intp.
    """
    if source.dtype != object and target.dtype != object:
        values = np.concatenate([source, target])
        if values.dtype.kind == "i":
            lo, hi = int(values.min()), int(values.max())
            if hi - lo < len(values):  # Python ints: hi - lo can exceed int64
                offset_type = np.promote_types(values.dtype, _int_type(0, hi - lo))
                values = values.astype(offset_type, copy=False)
                values -= lo
                present = np.zeros(hi - lo + 1, dtype=bool)
                present[values] = True  # offset 0, the minimum, is present
                levels = int(np.count_nonzero(present))
                code_of_offset = np.zeros(len(present), np.min_scalar_type(-levels))
                np.cumsum(present[1:], out=code_of_offset[1:])
                return levels, code_of_offset[values]
        levels, inverse = np.unique(values, return_inverse=True)
        return len(levels), inverse.astype(np.min_scalar_type(-len(levels)))
    values = source.tolist() + target.tolist()
    levels = list(dict.fromkeys(values))
    try:
        levels.sort()
    except TypeError:  # e.g. ints mixed with strings: first-seen order
        pass
    index = {value: k for k, value in enumerate(levels)}
    dtype = np.min_scalar_type(-len(levels))
    return len(levels), np.fromiter(map(index.__getitem__, values), dtype, len(values))


class _Cells:
    """The pair's cell table for one covariate tuple: trial and target rows
    coded by cell; per arm and cell, the trial rows and outcome sums
    (``arm_count``, ``arm_total``, shape ``(2, size)``); per cell, the
    target rows and ``y0`` sums (``target_counts``, ``target_y0``, None
    without control outcomes); and ``present``, the cells with target
    rows. Every sum adds its rows in row order.

    Codes run over ``0..size-1`` in the sorted order of the cell tuples
    and mean the same cell in both samples. Each covariate is coded on
    its own by :func:`_code_column`, and the codes are combined in place
    in mixed radix, in the smallest signed integer type that indexes the
    running radix product, ``np.min_scalar_type(-size)``, so no product
    overflows it. Whenever that product exceeds the row count, the codes
    are re-compacted, so it stays below the squared row count and its
    type is at most int64. The bins are counted on one intp copy of the
    trial codes and one of the target codes, the type ``np.bincount``
    would otherwise convert them to on each call.
    """

    def __init__(self, trial: TrialSample, target: TargetSample, covariates: Sequence[str]):
        self.trial_columns = [trial.columns[i] for i in trial.column_indices(covariates)]
        self.target_columns = [target.columns[i] for i in target.column_indices(covariates)]
        code = np.zeros(trial.n + target.n, dtype=np.int8)
        size = 1
        for source_column, target_column in zip(self.trial_columns, self.target_columns):
            levels, inverse = _code_column(source_column, target_column)
            if size == 1:  # every code is 0, and ``levels`` may not fit the type of 1
                code = inverse
            else:
                code = code.astype(np.min_scalar_type(-size * levels), copy=False)
                code *= levels
                code += inverse
            size *= levels
            if size > len(code):
                cells, inverse = np.unique(code, return_inverse=True)
                size = len(cells)
                code = inverse.astype(np.min_scalar_type(-size))
        self.size = size
        self.trial, self.target = _frozen(code[: trial.n]), _frozen(code[trial.n :])
        # one bin per (cell, arm), read back as (arm, cell)
        bins = self.trial.astype(np.intp)
        bins *= 2
        bins += trial.a
        self.arm_count = _frozen(np.bincount(bins, None, 2 * size).reshape(size, 2).T)
        self.arm_total = _frozen(np.bincount(bins, trial.y, 2 * size).reshape(size, 2).T)
        bins = self.target.astype(np.intp)
        self.target_counts = _frozen(np.bincount(bins, minlength=size))
        self.target_y0 = None if target.y0 is None else _frozen(np.bincount(bins, target.y0, size))
        self.present = _frozen(np.flatnonzero(self.target_counts))

    def target_tuples(self, codes: np.ndarray) -> list[tuple]:
        """Plain cell tuples for ``codes``, read from the first target row
        in each cell."""
        present, first = np.unique(self.target, return_index=True)
        rows = first[np.searchsorted(present, codes)]
        return list(zip(*(column[rows].tolist() for column in self.target_columns)))

    def arm_means(self) -> np.ndarray:
        """Each arm's mean trial outcome in the present cells, shape
        ``(2, len(present))``. Every present cell needs rows in both arms."""
        count = self.arm_count[:, self.present]
        missing = self.present[(count == 0).any(axis=0)]
        if missing.size:
            raise SupportViolation(self.target_tuples(missing))
        return self.arm_total[:, self.present] / count


def _once_per_pair(compute):
    """``compute(trial, target, covariates, *rest)`` read through the memo
    of the ``(trial, target)`` pair, keyed by its name, the covariate tuple
    and ``rest``, so that each is computed once per pair. A call that
    raises stores nothing. Results are shared, so they must not be
    modified.

    The trial holds the memo of the last target it met, so the memo dies
    with the samples. Samples never change after construction, so an
    entry stays valid while they live. The memo is read and replaced as
    one value, so threads that share a trial never write into another
    target's memo; each replication of a study has samples of its own.
    """

    def memoized(trial: TrialSample, target: TargetSample, covariates: Sequence[str], *rest):
        memo = trial._memo
        if memo is None or memo[0] is not target:
            memo = trial._memo = (target, {})
        entries = memo[1]
        key = (compute.__name__, tuple(covariates), *rest)
        if key not in entries:
            entries[key] = compute(trial, target, key[1], *rest)
        return entries[key]

    memoized.__doc__ = compute.__doc__
    return memoized


_cells = _once_per_pair(_Cells)


def estimate_density_ratio(
    trial: TrialSample, target: TargetSample, covariates: Sequence[str]
) -> DensityRatio:
    """Ratio of empirical cell frequencies, p_T(x) / p_S(x)."""
    cells = _cells(trial, target, covariates)
    src = cells.arm_count.sum(axis=0)
    tgt = cells.target_counts
    unseen = np.flatnonzero((tgt > 0) & (src == 0))
    if unseen.size:
        raise SupportViolation(cells.target_tuples(unseen))
    seen = np.flatnonzero(src)
    by_code = np.zeros(cells.size)
    by_code[seen] = (tgt[seen] / target.n) / (src[seen] / trial.n)
    at_trial_rows = _frozen(by_code[cells.trial])
    return DensityRatio(tuple(covariates), at_trial_rows, tuple(cells.trial_columns))


def _infer_kind(trial: TrialSample) -> OutcomeKind:
    if ((trial.y == 0.0) | (trial.y == 1.0)).all():
        return OutcomeKind.BINARY
    return OutcomeKind.CONTINUOUS


def _repeated_fsum(values: np.ndarray, counts: np.ndarray) -> float:
    """``math.fsum`` over each of ``values`` repeated ``counts`` times
    (each count at least 1 and below 2**52), in O(len(values)).

    Each value is split into a high part of 26 significant bits and a low
    part of 27, and each count into a multiple of 2**26 and a remainder,
    both of at most 26 significant bits; the four products then fit in 53
    bits and are exact, so fsum, which is correctly rounded, gives the
    bits of the repeated sum. Non-finite values decide that sum however
    often each occurs (nan, inf, or ValueError for inf with -inf). Where a
    partial sum could overflow, the values are repeated and summed as they
    are.
    """
    finite = np.isfinite(values)
    if float(np.abs(values[finite]).max(initial=0.0)) * float(counts.sum()) >= 2.0**1000:
        return math.fsum(np.repeat(values, counts))
    if not finite.all():
        return math.fsum(values.tolist())
    high = (values.view(np.uint64) & np.uint64(-(2**27) % 2**64)).view(np.float64)
    low = values - high
    times = ((counts >> 26) << 26).astype(np.float64), (counts & (2**26 - 1)).astype(np.float64)
    return math.fsum(np.concatenate([c * part for c in times for part in (high, low)]).tolist())


def _estimate(
    trial: TrialSample, target: TargetSample, measure, covariates, strategy: Strategy,
    mu0, mu1, collapse=None,
) -> GeneralizedEstimate:
    """The estimate of ``strategy``: ``measure`` of the generalized arm
    means, one pair, by one call of the measure kernel. Given ``collapse``,
    the target cell proportions and ``y0`` cell means, ``mu0``/``mu1`` are
    per-cell means whose measures are recombined, once all are defined,
    with :func:`strata.collapse_weights`."""
    try:
        values = measure_values(measure, *np.atleast_1d(mu0, mu1), _infer_kind(trial))
    except InvariantViolation as exc:
        raise UndefinedMeasure(f"estimated pair out of range: {exc}") from None
    if collapse is None:
        value = values[0].item()
    else:
        value = math.fsum((collapse_weights(measure, *collapse) * values).tolist())
    return GeneralizedEstimate(measure, strategy, value, tuple(covariates), trial.n, target.n)


def least_squares_fit(x_rows: Sequence[Sequence[float]], y: Sequence[float]) -> np.ndarray:
    """Minimum-norm least squares with an intercept (first coefficient)."""
    if len(x_rows) == 0:
        raise SingularDesign("least squares needs at least one row")
    design = np.column_stack([np.ones(len(x_rows)), np.asarray(x_rows, dtype=float)])
    coef, *_ = np.linalg.lstsq(design, np.asarray(y, dtype=float), rcond=None)
    return coef


@_once_per_pair
def _gformula_means(trial: TrialSample, target: TargetSample, covariates, learner: Learner):
    """Per-arm conditional means fitted on the trial by ``learner``,
    averaged over the target rows."""
    if learner is Learner.CELL_MEANS:
        cells = _cells(trial, target, covariates)
        mu0, mu1 = cells.arm_means()
        counts = cells.target_counts[cells.present]
        try:
            return _repeated_fsum(mu0, counts) / target.n, _repeated_fsum(mu1, counts) / target.n
        except OverflowError as exc:  # finite means whose sum over the target overflows
            raise UndefinedMeasure(f"estimated pair out of range: {exc}") from None
    samples = (trial, target)
    selected = [[s.columns[i] for i in s.column_indices(covariates)] for s in samples]
    for name, s_column, t_column in zip(covariates, *selected):
        if object in (s_column.dtype, t_column.dtype):
            raise InvariantViolation(f"least squares needs numeric covariates; {name!r} is not")
    # one float [1, x] design per sample; a C-contiguous one keeps the BLAS
    # product, and so the mean, bit-stable
    src, tgt = (np.column_stack([np.ones(s.n), *columns]) for s, columns in zip(samples, selected))
    coefs = []
    for arm in (0, 1):
        rows = trial.a == arm
        coefs.append(least_squares_fit(src[rows, 1:], trial.y[rows]))
    with np.errstate(over="ignore"):  # _estimate refuses a mean that overflows
        return float((tgt @ coefs[0]).mean()), float((tgt @ coefs[1]).mean())


def gformula_conditional(
    trial: TrialSample,
    target: TargetSample,
    measure: MeasureKind,
    covariates: Sequence[str],
    learner: Learner = Learner.CELL_MEANS,
) -> GeneralizedEstimate:
    """Plug-in g-formula: fit per-arm conditional means on the trial,
    average them over the target covariate rows, contrast."""
    mu0, mu1 = _gformula_means(trial, target, covariates, learner)
    return _estimate(trial, target, measure, covariates, Strategy.CONDITIONAL_OUTCOME, mu0, mu1)


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
    with np.errstate(over="ignore"):  # _estimate refuses a sum that overflows
        sums = np.bincount(trial.a, weights=ratio.at_trial_rows * trial.y, minlength=2)
    mu0, mu1 = sums / _cells(trial, target, covariates).arm_count.sum(axis=1)
    return _estimate(trial, target, measure, covariates, Strategy.CONDITIONAL_OUTCOME, mu0, mu1)


def generalize_local(
    trial: TrialSample,
    target: TargetSample,
    measure: MeasureKind,
    covariates: Sequence[str],
    learner: Learner = Learner.CELL_MEANS,
) -> GeneralizedEstimate:
    """Estimate the measure per covariate cell on the trial, recombine
    with :func:`strata.collapse_weights` of the target cell proportions
    and, except for RD, the target ``y0`` cell means. For RD the result
    coincides with the g-formula: least-squares local effects, RD only,
    are the least-squares g-formula's ``mu1 - mu0``.
    """
    if measure not in COLLAPSIBLE_MEASURES:
        raise NonCollapsible(measure)
    if learner is Learner.LEAST_SQUARES:
        if measure is not MeasureKind.RD:
            raise UndefinedMeasure("least-squares local effects are supported for RD only")
        mu0, mu1 = _gformula_means(trial, target, covariates, learner)
        return _estimate(trial, target, measure, covariates, Strategy.LOCAL_EFFECT, mu0, mu1)

    if measure is not MeasureKind.RD and target.y0 is None:
        raise MissingTargetControlOutcome(
            f"{measure.value} weights need control outcomes in the target sample"
        )
    cells = _cells(trial, target, covariates)
    mu0, mu1 = cells.arm_means()
    count = cells.target_counts[cells.present]
    y0_mean = None if measure is MeasureKind.RD else cells.target_y0[cells.present] / count
    collapse = (count / target.n, y0_mean)
    return _estimate(trial, target, measure, covariates, Strategy.LOCAL_EFFECT, mu0, mu1, collapse)
