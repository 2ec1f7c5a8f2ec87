import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference
from effectmeasures.errors import (
    EffectMeasureError,
    InvariantViolation,
    MissingTargetControlOutcome,
    NonCollapsible,
    SingularDesign,
    SupportViolation,
    UndefinedMeasure,
)
from effectmeasures.genmodel import (
    DiscreteCovariateSpace,
    EntanglementModel,
    MonotonicityDirection,
    population_measures,
)
from effectmeasures.measures import (
    MeasureKind,
    MeasureValue,
    OutcomeKind,
    compute_measure,
)
from effectmeasures.transport import (
    Learner,
    Strategy,
    TargetSample,
    TrialSample,
    estimate_density_ratio,
    generalize_local,
    gformula_conditional,
    ipsw_conditional,
    least_squares_fit,
    plan_adjustment,
)
from effectmeasures import transport
from effectmeasures.simbench import estimators
from effectmeasures.strata import (
    COLLAPSIBLE_MEASURES,
    StratifiedDistribution,
    Stratum,
    collapse,
)
from effectmeasures.transport import _Cells, _code_column, _repeated_fsum

BENEFICIAL = MonotonicityDirection.BENEFICIAL
HARMFUL = MonotonicityDirection.HARMFUL
NON_MONOTONE = MonotonicityDirection.NON_MONOTONE


def binary_rows(cell, arm, n, events):
    """n rows at ``cell`` in arm ``arm`` with exactly ``events`` successes."""
    return [(cell, arm, 1.0 if i < events else 0.0) for i in range(n)]


@pytest.fixture
def oracle_model():
    """Harmful two-cell model whose population measures the exact-frequency
    samples below must reproduce."""
    cells = ((0,), (1,))
    model = EntanglementModel(
        {(0,): 0.2, (1,): 0.4}, {(0,): 0.25, (1,): 0.5}, {c: 0.0 for c in cells}
    )
    space = DiscreteCovariateSpace(
        ("x",), cells, {"source": (0.5, 0.5), "target": (0.25, 0.75)}
    )
    return model, space


@pytest.fixture
def oracle_trial():
    # 20 rows per cell per arm; event counts match the model exactly:
    # p0 = (0.2, 0.4), p1 = (0.4, 0.7)
    rows = (
        binary_rows((0,), 0, 20, 4)
        + binary_rows((1,), 0, 20, 8)
        + binary_rows((0,), 1, 20, 8)
        + binary_rows((1,), 1, 20, 14)
    )
    return TrialSample(
        ("x",),
        tuple(r[0] for r in rows),
        tuple(r[1] for r in rows),
        tuple(r[2] for r in rows),
    )


@pytest.fixture
def oracle_target():
    # target frequencies (0.25, 0.75); control outcomes at the exact rates
    x = tuple([(0,)] * 5 + [(1,)] * 15)
    y0 = tuple([1.0] + [0.0] * 4 + [1.0] * 6 + [0.0] * 9)
    return TargetSample(("x",), x, y0)


def oracle_values(model, space, population):
    return {
        e.measure: e.value
        for e in population_measures(model, space, population)
        if isinstance(e, MeasureValue)
    }


class TestPlanner:
    def test_conditional_needs_shifted_prognostic(self, roles_continuous):
        plan = plan_adjustment(
            roles_continuous,
            MeasureKind.RR,
            OutcomeKind.CONTINUOUS,
            NON_MONOTONE,
            Strategy.CONDITIONAL_OUTCOME,
        )
        assert plan.required_covariates == ("X1", "X2", "X3", "X4")
        assert not plan.requires_target_y0

    def test_local_rd_continuous_needs_shifted_modulators_only(self, roles_continuous):
        plan = plan_adjustment(
            roles_continuous,
            MeasureKind.RD,
            OutcomeKind.CONTINUOUS,
            NON_MONOTONE,
            Strategy.LOCAL_EFFECT,
        )
        assert plan.required_covariates == ("X1", "X2")
        assert not plan.requires_target_y0

    def test_local_rr_continuous_falls_back_to_prognostic(self, roles_continuous):
        plan = plan_adjustment(
            roles_continuous,
            MeasureKind.RR,
            OutcomeKind.CONTINUOUS,
            NON_MONOTONE,
            Strategy.LOCAL_EFFECT,
        )
        assert plan.required_covariates == ("X1", "X2", "X3", "X4")
        assert plan.requires_target_y0

    def test_local_sr_harmful_binary_shrinks_to_modulators(self, roles_binary):
        plan = plan_adjustment(
            roles_binary,
            MeasureKind.SR,
            OutcomeKind.BINARY,
            HARMFUL,
            Strategy.LOCAL_EFFECT,
        )
        assert plan.required_covariates == ("stress",)
        assert plan.requires_target_y0

    def test_local_rr_beneficial_binary_shrinks_to_modulators(self, roles_binary):
        plan = plan_adjustment(
            roles_binary,
            MeasureKind.RR,
            OutcomeKind.BINARY,
            BENEFICIAL,
            Strategy.LOCAL_EFFECT,
        )
        assert plan.required_covariates == ("stress",)

    def test_local_rr_harmful_binary_does_not_shrink(self, roles_binary):
        plan = plan_adjustment(
            roles_binary,
            MeasureKind.RR,
            OutcomeKind.BINARY,
            HARMFUL,
            Strategy.LOCAL_EFFECT,
        )
        assert plan.required_covariates == ("lifestyle", "stress")
        assert plan.requires_target_y0

    @pytest.mark.parametrize(
        "measure", [MeasureKind.NNT, MeasureKind.OR, MeasureKind.LOG_OR]
    )
    def test_local_refuses_non_collapsible(self, roles_binary, measure):
        with pytest.raises(NonCollapsible):
            plan_adjustment(
                roles_binary,
                measure,
                OutcomeKind.BINARY,
                HARMFUL,
                Strategy.LOCAL_EFFECT,
            )

    def test_non_shifted_covariates_never_required(self, roles_continuous, roles_binary):
        cases = [
            (roles_continuous, OutcomeKind.CONTINUOUS, NON_MONOTONE),
            (roles_binary, OutcomeKind.BINARY, HARMFUL),
        ]
        for roles, outcome, direction in cases:
            unshifted = set(roles.all) - set(roles.shifted)
            for measure in (MeasureKind.RD, MeasureKind.RR):
                for strategy in Strategy:
                    plan = plan_adjustment(roles, measure, outcome, direction, strategy)
                    assert not unshifted & set(plan.required_covariates)

    def test_required_set_preserves_declaration_order(self, roles_continuous):
        plan = plan_adjustment(
            roles_continuous,
            MeasureKind.RD,
            OutcomeKind.CONTINUOUS,
            NON_MONOTONE,
            Strategy.CONDITIONAL_OUTCOME,
        )
        assert plan.required_covariates == tuple(
            c for c in roles_continuous.all if c in plan.required_covariates
        )


class TestDensityRatio:
    def test_frequency_ratio_golden(self, oracle_trial, oracle_target):
        ratio = estimate_density_ratio(oracle_trial, oracle_target, ("x",))
        assert ratio((0,)) == pytest.approx(0.5, rel=1e-12)
        assert ratio((1,)) == pytest.approx(1.5, rel=1e-12)

    def test_missing_target_cell_ratio_is_zero(self, oracle_trial):
        target = TargetSample(("x",), ((0,), (0,)))
        ratio = estimate_density_ratio(oracle_trial, target, ("x",))
        assert ratio((1,)) == 0.0
        assert ratio((7,)) == 0.0

    def test_unsupported_target_cell_raises(self, oracle_trial):
        target = TargetSample(("x",), ((0,), (2,)))
        with pytest.raises(SupportViolation) as excinfo:
            estimate_density_ratio(oracle_trial, target, ("x",))
        assert (2,) in excinfo.value.cells

    def test_identical_samples_give_unit_ratios(self, oracle_trial):
        target = TargetSample(("x",), oracle_trial.x)
        ratio = estimate_density_ratio(oracle_trial, target, ("x",))
        for cell in ((0,), (1,)):
            assert ratio(cell) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("covariates", [("i", "tag"), ()])
    def test_ratio_table_is_built_on_first_use(self, covariates):
        trial, target = random_trial_and_target(random.Random(7))
        ratio = estimate_density_ratio(trial, target, covariates)
        assert "ratios" not in vars(ratio)
        want = loop_reference.density_ratios(trial, target, covariates)
        assert ratio.ratios.keys() == want.keys()
        for cell, value in want.items():
            assert math.isclose(ratio(cell), value, rel_tol=1e-12)


class TestExactFrequencyOracle:
    """Every estimator must reproduce the enumerated population value when
    the empirical frequencies equal the model's exactly."""

    def test_gformula_all_measures(self, oracle_model, oracle_trial, oracle_target):
        model, space = oracle_model
        truth = oracle_values(model, space, "target")
        for measure, expected in truth.items():
            est = gformula_conditional(oracle_trial, oracle_target, measure, ("x",))
            assert est.value == pytest.approx(expected, abs=1e-12, rel=1e-12)
            assert est.strategy is Strategy.CONDITIONAL_OUTCOME

    def test_ipsw_all_measures(self, oracle_model, oracle_trial, oracle_target):
        model, space = oracle_model
        truth = oracle_values(model, space, "target")
        for measure, expected in truth.items():
            est = ipsw_conditional(oracle_trial, oracle_target, measure, ("x",))
            assert est.value == pytest.approx(expected, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize(
        "measure",
        [MeasureKind.RD, MeasureKind.RR, MeasureKind.SR, MeasureKind.ERR, MeasureKind.RS],
    )
    def test_local_collapsible_measures(
        self, oracle_model, oracle_trial, oracle_target, measure
    ):
        model, space = oracle_model
        expected = oracle_values(model, space, "target")[measure]
        est = generalize_local(oracle_trial, oracle_target, measure, ("x",))
        assert est.value == pytest.approx(expected, abs=1e-12, rel=1e-12)
        assert est.strategy is Strategy.LOCAL_EFFECT

    def test_gformula_pooled_pair_golden(self, oracle_trial, oracle_target):
        rd = gformula_conditional(oracle_trial, oracle_target, MeasureKind.RD, ("x",))
        assert rd.value == pytest.approx(0.625 - 0.35, rel=1e-12)
        rr = gformula_conditional(oracle_trial, oracle_target, MeasureKind.RR, ("x",))
        assert rr.value == pytest.approx(25.0 / 14.0, rel=1e-12)

    def test_source_population_from_unshifted_target(self, oracle_model, oracle_trial):
        model, space = oracle_model
        truth = oracle_values(model, space, "source")
        target = TargetSample(("x",), oracle_trial.x)
        for measure, expected in truth.items():
            est = ipsw_conditional(oracle_trial, target, measure, ("x",))
            assert est.value == pytest.approx(expected, abs=1e-12, rel=1e-12)


def random_trial_and_target(rng: random.Random, binary: bool = True):
    k = rng.randint(2, 4)
    cells = [(i, rng.choice("uv")) for i in range(k)]
    x, a, y = [], [], []
    for cell in cells:
        for arm in (0, 1):
            for _ in range(rng.randint(3, 8)):
                x.append(cell)
                a.append(arm)
                if binary:
                    y.append(float(rng.random() < 0.3 + 0.4 * arm))
                else:
                    y.append(rng.gauss(cell[0] + arm, 1.0))
    trial = TrialSample(("i", "tag"), tuple(x), tuple(a), tuple(y))
    tx = tuple(rng.choice(cells) for _ in range(rng.randint(10, 40)))
    return trial, TargetSample(("i", "tag"), tx)


class TestEstimatorRelations:
    def test_local_rd_equals_gformula_rd(self):
        rng = random.Random(42)
        for _ in range(30):
            trial, target = random_trial_and_target(rng)
            local = generalize_local(trial, target, MeasureKind.RD, ("i", "tag"))
            gform = gformula_conditional(trial, target, MeasureKind.RD, ("i", "tag"))
            assert local.value == pytest.approx(gform.value, abs=1e-12)

    def test_ipsw_weights_average_near_one(self):
        rng = random.Random(43)
        for _ in range(20):
            trial, target = random_trial_and_target(rng)
            ratio = estimate_density_ratio(trial, target, ("i", "tag"))
            idx = trial.column_indices(("i", "tag"))
            for arm in (0, 1):
                weights = [
                    ratio(tuple(trial.x[j][i] for i in idx))
                    for j in range(trial.n)
                    if trial.a[j] == arm
                ]
                assert sum(weights) / len(weights) == pytest.approx(
                    1.0, abs=3.0 / math.sqrt(len(weights))
                )

    def test_cell_means_and_least_squares_agree_on_saturated_binary_design(
        self, oracle_trial, oracle_target
    ):
        # one categorical covariate with two levels: OLS on the 0/1 dummy
        # is saturated, so it reproduces the cell means
        cm = gformula_conditional(
            oracle_trial, oracle_target, MeasureKind.RD, ("x",), Learner.CELL_MEANS
        )
        ls = gformula_conditional(
            oracle_trial, oracle_target, MeasureKind.RD, ("x",), Learner.LEAST_SQUARES
        )
        assert ls.value == pytest.approx(cm.value, abs=1e-10)
        local_ls = generalize_local(
            oracle_trial, oracle_target, MeasureKind.RD, ("x",), Learner.LEAST_SQUARES
        )
        assert local_ls.value == pytest.approx(cm.value, abs=1e-10)


class TestLeastSquares:
    def test_recovers_exact_linear_coefficients(self):
        rows = [(1.0, 2.0), (2.0, 1.0), (3.0, 5.0), (0.0, 0.0)]
        y = [4.0 + 2.0 * u - 1.0 * v for u, v in rows]
        coef = least_squares_fit(rows, y)
        assert coef == pytest.approx([4.0, 2.0, -1.0], abs=1e-10)

    def test_collinear_design_takes_minimum_norm_solution(self):
        rows = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        y = [2.0, 4.0, 6.0]
        coef = least_squares_fit(rows, y)
        fitted = [coef[0] + coef[1] * u + coef[2] * v for u, v in rows]
        assert fitted == pytest.approx(y, abs=1e-10)
        # duplicated column shares the weight evenly
        assert coef[1] == pytest.approx(coef[2], abs=1e-10)

    def test_continuous_linear_transport(self):
        rng = random.Random(7)
        x, a, y = [], [], []
        for _ in range(200):
            u = rng.uniform(-1, 1)
            arm = rng.randint(0, 1)
            x.append((u,))
            a.append(arm)
            y.append(1.0 + 2.0 * u + arm * (0.5 + 1.5 * u))  # noiseless
        trial = TrialSample(("u",), tuple(x), tuple(a), tuple(y))
        target = TargetSample(("u",), tuple((rng.uniform(1, 2),) for _ in range(300)))
        est = gformula_conditional(
            trial, target, MeasureKind.RD, ("u",), Learner.LEAST_SQUARES
        )
        mean_u = sum(row[0] for row in target.x) / target.n
        assert est.value == pytest.approx(0.5 + 1.5 * mean_u, abs=1e-8)

    def test_empty_design_rejected(self):
        with pytest.raises(SingularDesign):
            least_squares_fit([], [])

    @pytest.mark.xfail(
        strict=True, raises=UndefinedMeasure,
        reason="a saturated fit rounds the risk 1 to 1.0000000000000002, which the "
        "binary range check refuses; the fix needs a stated rounding rule",
    )
    @pytest.mark.parametrize("estimate", [gformula_conditional, generalize_local])
    def test_saturated_binary_fit_matches_cell_means(self, estimate):
        trial = TrialSample(("x",), ((0,), (0,), (1,), (1,)), (0, 1, 0, 1), (1.0, 0.0, 1.0, 1.0))
        target = TargetSample(("x",), ((0,), (1,)))
        cell_means = estimate(trial, target, MeasureKind.RD, ("x",), Learner.CELL_MEANS)
        assert cell_means.value == -0.5
        est = estimate(trial, target, MeasureKind.RD, ("x",), Learner.LEAST_SQUARES)
        assert est.value == pytest.approx(-0.5, abs=1e-12)


class TestFailureModes:
    def test_local_non_rd_requires_target_y0(self, oracle_trial, oracle_target):
        target = TargetSample(("x",), oracle_target.x)  # y0 dropped
        with pytest.raises(MissingTargetControlOutcome):
            generalize_local(oracle_trial, target, MeasureKind.SR, ("x",))

    @pytest.mark.parametrize(
        "measure", [MeasureKind.NNT, MeasureKind.OR, MeasureKind.LOG_OR]
    )
    def test_local_non_collapsible(self, oracle_trial, oracle_target, measure):
        with pytest.raises(NonCollapsible):
            generalize_local(oracle_trial, oracle_target, measure, ("x",))

    def test_local_least_squares_restricted_to_rd(self, oracle_trial, oracle_target):
        with pytest.raises(UndefinedMeasure):
            generalize_local(
                oracle_trial, oracle_target, MeasureKind.RR, ("x",), Learner.LEAST_SQUARES
            )

    def test_gformula_unseen_cell(self, oracle_trial):
        target = TargetSample(("x",), ((0,), (3,)))
        with pytest.raises(SupportViolation):
            gformula_conditional(oracle_trial, target, MeasureKind.RD, ("x",))

    def test_single_arm_trial_rejected(self):
        with pytest.raises(SingularDesign):
            TrialSample(("x",), ((0,), (1,)), (1, 1), (0.0, 1.0))

    def test_non_binary_arm_rejected(self):
        with pytest.raises(InvariantViolation):
            TrialSample(("x",), ((0,), (1,)), (0, 2), (0.0, 1.0))

    def test_unknown_covariate_name(self, oracle_trial, oracle_target):
        with pytest.raises(InvariantViolation):
            gformula_conditional(oracle_trial, oracle_target, MeasureKind.RD, ("z",))

    def test_binary_measure_on_continuous_trial(self):
        trial = TrialSample(
            ("x",), ((0,), (0,), (0,), (0,)), (0, 1, 0, 1), (1.5, 2.5, 0.5, 3.5)
        )
        target = TargetSample(("x",), ((0,),))
        with pytest.raises(UndefinedMeasure):
            gformula_conditional(trial, target, MeasureKind.OR, ("x",))

    @pytest.mark.parametrize(
        "measure, y0",
        [
            (MeasureKind.RR, 0.0),
            (MeasureKind.ERR, 0.0),
            (MeasureKind.SR, 1.0),
            (MeasureKind.RS, 1.0),
        ],
    )
    def test_local_weights_that_sum_to_zero_are_undefined(self, measure, y0):
        # each cell's trial means lie inside (0, 1); only the target's
        # control outcomes give every cell zero weight
        trial = TrialSample(
            ("x",), [(0,)] * 4 + [(1,)] * 4, [0, 0, 1, 1] * 2, [0.0, 1.0, 1.0, 1.0] * 2
        )
        target = TargetSample(("x",), ((0,), (1,), (1,)), (y0, y0, y0))
        with pytest.raises(UndefinedMeasure):
            generalize_local(trial, target, measure, ("x",))


def _outcome(estimate):
    """An estimate's value, or the type of the error it raised."""
    try:
        value = estimate()
    except EffectMeasureError as exc:
        return type(exc)
    return getattr(value, "value", value)


class TestLoopReference:
    """The columnar estimators against the per-row loops they replaced
    (``loop_reference``)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), binary=st.booleans())
    def test_estimators_match_the_loop_reference(self, seed, binary):
        rng = random.Random(seed)
        trial, target = random_trial_and_target(rng, binary)
        y0 = [float(rng.random() < 0.4) for _ in range(target.n)]
        target = TargetSample(target.covariates, target.x, y0)
        for covariates in (("i", "tag"), ("tag",), ("i",)):
            for measure in MeasureKind:
                args = (trial, target, measure, covariates)
                # fsum over the gathered per-row cell means is order-free: exact
                assert _outcome(lambda: gformula_conditional(*args)) == _outcome(
                    lambda: loop_reference.gformula(*args)
                )
                assert _outcome(lambda: generalize_local(*args)) == _outcome(
                    lambda: loop_reference.local(*args)
                )
                got = _outcome(lambda: ipsw_conditional(*args))
                want = _outcome(lambda: loop_reference.ipsw(*args))
                if isinstance(want, float):
                    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (got, want)
                else:
                    assert got is want

    def test_support_violation_lists_plain_tuples(self):
        trial, _ = random_trial_and_target(random.Random(5))
        unseen = (int(trial.columns[0].max()) + 1, "w")
        target = TargetSample(("i", "tag"), (unseen, tuple(trial.x[0].tolist())))
        for new, old in (
            (gformula_conditional, loop_reference.gformula),
            (ipsw_conditional, loop_reference.ipsw),
            (generalize_local, loop_reference.local),
        ):
            with pytest.raises(SupportViolation) as excinfo:
                new(trial, target, MeasureKind.RD, ("i", "tag"))
            with pytest.raises(SupportViolation) as reference:
                old(trial, target, MeasureKind.RD, ("i", "tag"))
            assert excinfo.value.cells == reference.value.cells == (unseen,)
            assert type(excinfo.value.cells[0][0]) is int
            assert str(excinfo.value) == str(reference.value)

    def test_cell_coding_does_not_overflow(self):
        # four columns of 100,000 distinct floats: the product of the level
        # counts, 1e20, is beyond int64
        k = 100_000
        rng = np.random.default_rng(0)
        names = ("c1", "c2", "c3", "c4")
        cells = np.column_stack([rng.permutation(k) * 0.5 + j for j in range(4)])
        effect = rng.standard_normal(k)
        trial = TrialSample(
            names,
            np.concatenate([cells, cells]),
            np.repeat([0, 1], k),
            np.concatenate([np.zeros(k), effect]),
        )
        est = gformula_conditional(trial, TargetSample(names, cells), MeasureKind.RD, names)
        assert est.value == math.fsum(effect.tolist()) / k
        # every value of this row is in the trial, but not the combination
        recombined = tuple(cells[j, j] for j in range(4))
        with pytest.raises(SupportViolation) as excinfo:
            gformula_conditional(
                trial, TargetSample(names, (recombined,)), MeasureKind.RD, names
            )
        assert excinfo.value.cells == (recombined,)


I64 = np.iinfo(np.int64)


@st.composite
def cell_tables(draw):
    """Per-cell binary counts ((n_a1_y1, n_a1_y0), (n_a0_y1, n_a0_y0)), each
    arm with at least one row."""
    arm = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda n: sum(n) > 0)
    return draw(st.lists(st.tuples(arm, arm), min_size=1, max_size=5))


class TestOneWeightRule:
    @settings(max_examples=200, deadline=None)
    @given(table=cell_tables())
    def test_local_equals_collapse_on_the_same_cells(self, table):
        # the target's y0 rows are the trial's arm-0 rows of each cell, so
        # its proportions and y0 means equal the strata's bit for bit
        x, a, y, target_x, y0 = [], [], [], [], []
        for cell, ((n11, n10), (n01, n00)) in enumerate(table):
            for arm, outcome, n in ((1, 1.0, n11), (1, 0.0, n10), (0, 1.0, n01), (0, 0.0, n00)):
                x += [(cell,)] * n
                a += [arm] * n
                y += [outcome] * n
                if arm == 0:
                    target_x += [(cell,)] * n
                    y0 += [outcome] * n
        trial = TrialSample(("x",), x, a, y)
        target = TargetSample(("x",), target_x, y0)
        strata = [
            Stratum.from_counts(str(cell), sum(counts[1]) / target.n, counts)
            for cell, counts in enumerate(table)
        ]
        dist = StratifiedDistribution(tuple(strata), OutcomeKind.BINARY)
        for measure in COLLAPSIBLE_MEASURES:
            local = _outcome(lambda: generalize_local(trial, target, measure, ("x",)))
            assert local == _outcome(lambda: collapse(measure, dist)), measure


def _unique_codes(source, target):
    levels, inverse = np.unique(np.concatenate([source, target]), return_inverse=True)
    return len(levels), inverse


class TestIntegerCoding:
    """Integer columns coded by counting get the codes ``np.unique`` gives,
    compact columns the codes of their values in int64, and cell codes are
    ``np.unique``'s codes of the cell tuples; each in the smallest signed
    integer type that indexes its levels or cells."""

    @pytest.mark.parametrize(
        "source, target, sorts",
        [
            ([-3, -1, -3, 0], [-1, 1], False),
            ([7, 7], [7], False),
            ([0, 3], [1], True),  # the range, 3, is not below the row count
            ([I64.max, I64.max - 2], [I64.max - 1], False),
            ([I64.min, I64.min + 1], [I64.min], False),
            ([I64.min, I64.max], [0], True),  # max - min overflows int64
        ],
    )
    def test_codes_equal_unique_codes(self, monkeypatch, source, target, sorts):
        source, target = np.array(source, np.int64), np.array(target, np.int64)
        levels, inverse = _unique_codes(source, target)
        unique, calls = np.unique, []
        monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(a) or unique(*a, **kw))
        size, codes = _code_column(source, target)
        assert type(size) is int and size == levels
        assert codes.dtype == np.min_scalar_type(-levels) and codes.tolist() == inverse.tolist()
        assert bool(calls) is sorts

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.integers(I64.min, I64.max - 40),
        offsets=st.lists(st.integers(0, 40), min_size=2, max_size=40),
        data=st.data(),
    )
    def test_near_and_far_ranges(self, base, offsets, data):
        values = np.array([base + k for k in offsets], np.int64)
        split = data.draw(st.integers(1, len(values) - 1))
        source, target = values[:split], values[split:]
        size, codes = _code_column(source, target)
        levels, inverse = _unique_codes(source, target)
        assert size == levels and codes.tolist() == inverse.tolist()

    @staticmethod
    def assert_compact_codes_as_int64(source, target, sorts, monkeypatch=None):
        """The codes of the columns as samples keep them, compact and
        read-only, are those of the same values in int64, and the
        columns are left as they were."""
        wide = np.array(source, np.int64), np.array(target, np.int64)
        compact = tuple(map(transport._column, wide))
        for column in compact:
            column.flags.writeable = False
        want_levels, want_codes = _code_column(*wide)
        if monkeypatch is not None:
            unique, calls = np.unique, []
            monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(a) or unique(*a, **kw))
        levels, codes = _code_column(*compact)
        if monkeypatch is not None:
            assert bool(calls) is sorts
        assert levels == want_levels and codes.dtype == want_codes.dtype
        assert codes.tolist() == want_codes.tolist() == _unique_codes(*wide)[1].tolist()
        assert [c.tolist() for c in compact] == [c.tolist() for c in wide]

    @pytest.mark.parametrize(
        "source, target, types, sorts",
        [
            (range(-128, 100), [0], (np.int8, np.int8), False),  # offsets up to 227: int16
            ([1000, 1010, 1004], [1007] * 8, (np.int16, np.int16), False),  # offsets fit int8
            ([-129, 127], [0] * 300, (np.int16, np.int8), False),
            ([0, 3], [1], (np.int8, np.int8), True),
            ([I64.max, I64.max - 2], [I64.max - 1], (np.int64, np.int64), False),
            ([-(2**31), 2**31 - 1], [0] * 9, (np.int32, np.int8), True),
            ([I64.min, I64.max], [0], (np.int64, np.int8), True),
        ],
    )
    def test_compact_columns_code_as_int64_columns(self, monkeypatch, source, target, types, sorts):
        assert (transport._column(source).dtype, transport._column(target).dtype) == types
        self.assert_compact_codes_as_int64(source, target, sorts, monkeypatch)

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.sampled_from([I64.min, -(2**31) - 20, -32788, -148, -20, 107, 32747, 2**31 - 20,
                              I64.max - 40]),
        offsets=st.lists(st.integers(0, 40), min_size=2, max_size=40),
        data=st.data(),
    )
    def test_compact_columns_near_type_bounds(self, base, offsets, data):
        values = [base + k for k in offsets]
        split = data.draw(st.integers(1, len(values) - 1))
        self.assert_compact_codes_as_int64(values[:split], values[split:], None)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_cells_mean_the_same_cells_in_sorted_order(self, seed):
        rng = np.random.default_rng(seed)
        names = ("u", "v", "w")
        spans = rng.integers(1, 50, 3)
        trial_x = rng.integers(-spans, spans, (int(rng.integers(4, 60)), 3))
        target_x = rng.integers(-spans, spans, (int(rng.integers(1, 60)), 3))
        a = np.arange(len(trial_x)) % 2
        trial = TrialSample(names, trial_x, a, np.zeros(len(trial_x)))
        cells = _Cells(trial, TargetSample(names, target_x), names)
        _, by_row = np.unique(np.vstack([trial_x, target_x]), axis=0, return_inverse=True)
        _, by_code = np.unique(np.concatenate([cells.trial, cells.target]), return_inverse=True)
        assert by_code.tolist() == by_row.tolist()

    @pytest.mark.parametrize(
        "levels, kind",
        [
            ((127,), int), ((128,), int), ((129,), int), ((128,), float), ((129,), str),
            ((1, 127), int), ((2, 64), int), ((3, 43), int), ((43, 3), str),
            ((7, 31, 151), int), ((128, 256), int), ((2, 16384), float),
        ],
    )
    def test_cell_codes_have_the_smallest_type(self, levels, kind):
        """Every cell of the radix product present, rows shuffled: the
        codes are the sorted cells' indices, of the smallest signed type
        that indexes them, and so are the ``(cell, arm)`` bins."""
        size = math.prod(levels)
        rows = np.random.default_rng(size).permutation(size)
        digits = np.stack(np.unravel_index(rows, levels), axis=1) - 1
        self.assert_codes(digits, kind, size)

    def test_cell_codes_after_recompaction_have_the_smallest_type(self):
        """100 rows over a radix product of 10,000: the codes are
        re-compacted to the 100 cells present, in int8."""
        digits = np.random.default_rng(9).permutation(100)[:, None] + [0, 0]
        digits[:, 1] = digits[::-1, 0]
        self.assert_codes(digits, int, 100)

    @staticmethod
    def assert_codes(digits: np.ndarray, kind: type, size: int):
        names = tuple(f"c{j}" for j in range(digits.shape[1]))
        x = digits.astype(kind) if kind is not str else (
            np.vectorize("{:06d}".format, otypes=[object])(digits + 1)  # sorts as the digits do
        )
        split = len(digits) // 2
        a = np.arange(split) % 2
        trial = TrialSample(names, x[:split], a, np.zeros(split))
        cells = _Cells(trial, TargetSample(names, x[split:]), names)
        _, by_row = np.unique(digits, axis=0, return_inverse=True)
        assert cells.size == size
        assert cells.trial.dtype == cells.target.dtype == np.min_scalar_type(-size)
        assert np.concatenate([cells.trial, cells.target]).tolist() == by_row.tolist()
        want = np.bincount(2 * by_row[:split] + a, minlength=2 * size).reshape(size, 2).T
        assert cells.arm_count.tolist() == want.tolist()


def _fsum_outcome(compute):
    """The bits of a sum, or the type and message of what it raised."""
    try:
        return compute().hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


_SPECIAL_MEANS = [
    5e-324, -5e-324, 2.0**-1050, 2.2250738585072014e-308, 1e300, -1e300, 0.0, -0.0,
    -2.5, math.nan, math.inf, -math.inf,
]


class TestRepeatedFsum:
    """The g-formula's sum over cells: each cell mean counted once per
    target row in the cell, summed as ``math.fsum`` sums the rows."""

    @settings(max_examples=400, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from(_SPECIAL_MEANS) | st.floats(allow_nan=False, width=64),
                st.integers(1, 64),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_equals_fsum_over_the_repeated_means(self, cells):
        values = np.array([v for v, _ in cells])
        counts = np.array([c for _, c in cells], dtype=np.int64)
        want = _fsum_outcome(lambda: math.fsum(np.repeat(values, counts).tolist()))
        assert _fsum_outcome(lambda: _repeated_fsum(values, counts)) == want

    @settings(max_examples=400, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from([5e-324, -5e-324, 2.0**-1050, 0.0, -0.0, -2.5, 1e290, -1e290])
                | st.floats(-1e290, 1e290),
                st.integers(1, 2**31),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_large_counts_give_the_correctly_rounded_sum(self, cells):
        """Counts up to 2**31, where the repeated list would need 17 GB:
        fsum is correctly rounded, so without overflow it returns the exact
        rational sum rounded to the nearest float."""
        values = np.array([v for v, _ in cells])
        counts = np.array([c for _, c in cells], dtype=np.int64)
        got, want = _repeated_fsum(values, counts), float(sum(Fraction(v) * c for v, c in cells))
        assert got.hex() == want.hex() or got == want == 0.0  # the sign of zero is fsum's


class TestColumnarSamples:
    def test_columns_keep_their_types(self):
        trial = TrialSample(
            ("i", "tag", "u"), ((0, "u", 0.5), (1, "v", 2)), (0, 1), (0.0, 1.0)
        )
        assert [c.dtype.kind for c in trial.columns] == ["i", "O", "f"]
        assert trial.a.dtype == np.int8 and trial.y.dtype == np.float64
        assert trial.x.tolist() == [[0, "u", 0.5], [1, "v", 2.0]]
        assert TrialSample(trial.covariates, trial.x, trial.a, trial.y) == trial

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InvariantViolation):
            TrialSample(("x",), ((0,), (1,)), (0, 1), (0.0, bad))
        with pytest.raises(InvariantViolation):
            TrialSample(("x",), ((bad,), (1.0,)), (0, 1), (0.0, 1.0))
        with pytest.raises(InvariantViolation):
            TargetSample(("x", "tag"), ((bad, "u"),))
        with pytest.raises(InvariantViolation):
            TargetSample(("x",), ((0,),), (bad,))

    def test_zero_rows_rejected(self):
        with pytest.raises(InvariantViolation):
            TargetSample(("x",), ())
        with pytest.raises(InvariantViolation):
            TrialSample(("x",), np.zeros((0, 1)), (), ())

    def test_duplicate_covariate_names_rejected(self):
        with pytest.raises(InvariantViolation, match="duplicate covariate names"):
            TrialSample(("x", "x"), ((0, 1), (1, 0)), (0, 1), (0.0, 1.0))
        with pytest.raises(InvariantViolation, match="duplicate covariate names"):
            TargetSample(("x", "z", "x"), ((0, 1, 2),))

    def test_uint64_beyond_int64_stays_exact(self):
        """Such a column is kept as exact Python ints, as the row-tuple
        path keeps it; a uint64 column within int64 stays int64."""
        big = np.array([[2**63], [1]], np.uint64)
        trial = TrialSample(("x",), big, [0, 1], [0.0, 1.0])
        assert trial.columns[0].dtype == object and trial.columns[0].tolist() == [2**63, 1]
        assert trial == TrialSample(("x",), ((2**63,), (1,)), [0, 1], [0.0, 1.0])
        target = TargetSample(("x",), np.array([[2**64 - 1], [0]], np.uint64))
        assert target.columns[0].dtype == object and target.columns[0].tolist() == [2**64 - 1, 0]
        assert target == TargetSample(("x",), ((2**64 - 1,), (0,)))
        small = TargetSample(("x",), np.array([[2**63 - 1], [0]], np.uint64))
        assert small.columns[0].dtype == np.int64 and small.columns[0].tolist() == [2**63 - 1, 0]
        assert small == TargetSample(("x",), ((2**63 - 1,), (0,)))

    def test_ipsw_refuses_least_squares(self, oracle_trial, oracle_target):
        with pytest.raises(InvariantViolation, match="least-squares"):
            ipsw_conditional(
                oracle_trial, oracle_target, MeasureKind.RD, ("x",), Learner.LEAST_SQUARES
            )


def _bits(outcome):
    """An outcome of :func:`_outcome` compared bit for bit: a float by its
    hex form, which tells -0.0 from 0.0."""
    return outcome.hex() if isinstance(outcome, float) else outcome


def _cold(trial, target):
    """New samples with the data of ``trial`` and ``target``: their pair
    memo is empty."""
    return (
        TrialSample(trial.covariates, trial.x, trial.a, trial.y),
        TargetSample(target.covariates, target.x, target.y0),
    )


class TestPairMemo:
    """Estimates read through the memo of a (trial, target) pair equal
    estimates on new samples, whose memo is cold."""

    CALLS = [
        (fn, measure, covariates, learner)
        for fn, _, _ in estimators().values()
        for learner in Learner
        for measure in MeasureKind
        for covariates in (("i", "tag"), ("tag",), ("i",))
    ]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), binary=st.booleans())
    def test_any_call_order_equals_a_cold_memo(self, seed, binary):
        rng = random.Random(seed)
        trial, target = random_trial_and_target(rng, binary)
        y0 = [float(rng.random() < 0.4) for _ in range(target.n)]
        target = TargetSample(target.covariates, target.x, y0)
        calls = list(self.CALLS)
        rng.shuffle(calls)
        for fn, measure, covariates, learner in calls:
            warm = _outcome(lambda: fn(trial, target, measure, covariates, learner))
            cold = _outcome(lambda: fn(*_cold(trial, target), measure, covariates, learner))
            assert _bits(warm) == _bits(cold), (fn.__name__, measure, covariates, learner)

    def test_a_memo_is_not_shared_across_targets(self):
        trial, target = random_trial_and_target(random.Random(3), binary=False)
        first = target.x[0]
        # only the rows of one cell: a target whose estimates differ
        other = TargetSample(target.covariates, target.x[[tuple(r) == tuple(first) for r in target.x]])
        equal = TargetSample(target.covariates, target.x)
        estimates = {}
        for fn, measure, covariates, learner in self.CALLS:
            for name, tgt in (("target", target), ("other", other), ("equal", equal),
                              ("target", target)):
                got = _outcome(lambda: fn(trial, tgt, measure, covariates, learner))
                want = _outcome(lambda: fn(*_cold(trial, tgt), measure, covariates, learner))
                assert _bits(got) == _bits(want), (name, fn.__name__, measure, covariates)
                estimates[name, fn, measure, covariates, learner] = got
        rd = (gformula_conditional, MeasureKind.RD, ("i",), Learner.LEAST_SQUARES)
        assert estimates[("target", *rd)] != estimates[("other", *rd)]

    def test_results_are_computed_once_per_covariate_set(self, monkeypatch):
        """Continuous study: two covariate sets, so four least-squares fits
        serve its five estimates."""
        fits = []
        fit = transport.least_squares_fit
        monkeypatch.setattr(transport, "least_squares_fit", lambda *a: fits.append(1) or fit(*a))
        trial, target = random_trial_and_target(random.Random(4), binary=False)
        for covariates in (("i",), ("i",), (), ()):
            gformula_conditional(trial, target, MeasureKind.RD, covariates, Learner.LEAST_SQUARES)
            generalize_local(trial, target, MeasureKind.RD, covariates, Learner.LEAST_SQUARES)
        assert len(fits) == 4

    def test_samples_own_their_arrays(self):
        x = np.array([[0.0], [1.0], [0.0], [1.0]])
        a, y, y0 = np.array([0, 0, 1, 1]), np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(2)
        trial = TrialSample(("x",), x, a, y)
        target = TargetSample(("x",), x[:2], y0)
        before = gformula_conditional(trial, target, MeasureKind.RD, ("x",))
        x[:] = 7.0
        y[:] = 9.0
        y0[:] = 1.0
        assert trial.columns[0].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert trial.y.tolist() == [0.0, 1.0, 2.0, 3.0] and target.y0.tolist() == [0.0, 0.0]
        assert gformula_conditional(trial, target, MeasureKind.RD, ("x",)) == before
        for array in (*trial.columns, trial.a, trial.y, *target.columns, target.y0):
            with pytest.raises(ValueError):
                array[0] = 5


def _by_code(sums: dict, code_of: dict, shape: tuple, dtype) -> np.ndarray:
    """``sums`` keyed by cell tuple, or by (arm, cell tuple), as an array
    indexed by cell code."""
    array = np.zeros(shape, dtype)
    for key, value in sums.items():
        array[key[:-1] + (code_of[key[-1]],)] = value
    return array


def _hexes(array: np.ndarray) -> list[str]:
    return [float(v).hex() for v in array.ravel()]


class TestCellTable:
    """The pair's cell table equals per-row Python running sums, added in
    row order and keyed by cell tuple."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), binary=st.booleans(), with_y0=st.booleans())
    def test_sums_equal_running_sums_by_cell(self, seed, binary, with_y0):
        rng = random.Random(seed)
        trial, target = random_trial_and_target(rng, binary)
        # and target rows in a cell the trial lacks
        tx = [tuple(row) for row in target.x.tolist()] + [(99, "w")] * rng.randint(0, 2)
        y0 = [rng.choice([1.0, -0.0, rng.gauss(0, 1)]) for _ in tx] if with_y0 else None
        target = TargetSample(target.covariates, tx, y0)
        for covariates in (("i", "tag"), ("tag",), ("i",), ()):
            cells = _Cells(trial, target, covariates)
            i, j = trial.column_indices(covariates), target.column_indices(covariates)
            code_of, count, total, target_counts, target_y0 = {}, {}, {}, {}, {}
            for row, code, a, y in zip(
                trial.x.tolist(), cells.trial.tolist(), trial.a.tolist(), trial.y.tolist()
            ):
                cell = tuple(row[k] for k in i)
                assert code_of.setdefault(cell, code) == code
                count[a, cell] = count.get((a, cell), 0) + 1
                total[a, cell] = total.get((a, cell), 0.0) + y
            for n, (row, code) in enumerate(zip(target.x.tolist(), cells.target.tolist())):
                cell = tuple(row[k] for k in j)
                assert code_of.setdefault(cell, code) == code
                target_counts[(cell,)] = target_counts.get((cell,), 0) + 1
                if with_y0:
                    target_y0[(cell,)] = target_y0.get((cell,), 0.0) + y0[n]
            assert len(set(code_of.values())) == len(code_of)  # one cell per code
            size = cells.size
            want = {
                "arm_count": _by_code(count, code_of, (2, size), np.int64),
                "arm_total": _by_code(total, code_of, (2, size), np.float64),
                "target_counts": _by_code(target_counts, code_of, (size,), np.int64),
                "target_y0": _by_code(target_y0, code_of, (size,), np.float64),
            }
            if not with_y0:
                assert cells.target_y0 is None
                del want["target_y0"]
            for name, array in want.items():
                got = getattr(cells, name)
                assert (got.shape, got.dtype) == (array.shape, array.dtype), name
                assert _hexes(got) == _hexes(array), (name, covariates)
            assert cells.present.tolist() == np.flatnonzero(want["target_counts"]).tolist()


class TestCellMemory:
    """The cell table of a 100,000 + 100,000-row pair keeps one byte per
    row; with int64 codes each cold estimator below peaks above 6 MB and
    its memo holds about 2 MB."""

    @pytest.mark.parametrize(
        "fn, measure, covariates",
        [
            (gformula_conditional, MeasureKind.RD, ("lifestyle", "stress")),
            (ipsw_conditional, MeasureKind.RD, ("lifestyle", "stress")),
            (generalize_local, MeasureKind.SR, ("lifestyle", "stress", "gender")),
        ],
    )
    def test_cold_cell_means_estimators_stay_small(self, fn, measure, covariates):
        rng = np.random.default_rng(22)
        names, n = ("lifestyle", "stress", "gender"), 100_000
        trial = TrialSample(
            names, rng.integers(0, 2, (n, 3)), np.arange(n) % 2, rng.integers(0, 2, n)
        )
        target = TargetSample(names, rng.integers(0, 2, (n, 3)), rng.integers(0, 2, n))
        tracemalloc.start()
        try:
            fn(trial, target, measure, covariates)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6 and held < 1e6, (peak, held)


def _cell_means_digest() -> str:
    """SHA-256 over every cell-means estimate of gformula, IPSW and local,
    each measure and four covariate sets, on seeded roulette samples: a
    value by its hex form, an error by its type and text."""
    from effectmeasures.simbench import builtin_scenario

    roulette = builtin_scenario("roulette-heterogeneous")
    covariate_sets = ((), ("stress",), ("lifestyle", "stress"), ("gender", "stress", "lifestyle"))
    lines = []
    for seed, n, m, y0 in ((0, 30, 20, True), (1, 120, 90, True), (2, 600, 400, True),
                           (3, 3000, 2000, True), (4, 200, 150, False)):
        rng = np.random.default_rng(seed)
        trial, target = roulette.sample_trial(rng, n), roulette.sample_target(rng, m)
        if not y0:
            target = TargetSample(target.covariates, target.x)
        for fn in (gformula_conditional, ipsw_conditional, generalize_local):
            for measure in MeasureKind:
                for covariates in covariate_sets:
                    try:
                        got = fn(trial, target, measure, covariates).value.hex()
                    except EffectMeasureError as exc:
                        got = f"{type(exc).__name__}: {exc}"
                    lines.append(f"{seed} {fn.__name__} {measure.value} {covariates}: {got}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_cell_means_estimates_are_pinned_bit_for_bit():
    """Every estimate and error text of the three cell-means estimators on
    seeded roulette samples, by digest: a change to how the cell sums are
    computed moves no bit unseen."""
    assert _cell_means_digest() == "6fde5236f10532444d6b163a90b2ab02ce65b60ff1a76c4296b43054bafc4ae2"


def _least_squares_digest() -> str:
    """SHA-256 over every least-squares estimate of gformula and local,
    each measure and four covariate sets, on seeded continuous samples: a
    value by its hex form, an error by its type and text."""
    from effectmeasures.simbench import _rep_rng, builtin_scenario

    continuous = builtin_scenario("continuous-linear")
    covariate_sets = (("X1",), ("X1", "X2"), ("X1", "X2", "X3", "X4"), continuous.covariates)
    lines = []
    for seed, (n, m) in enumerate(((40, 60), (300, 500), (2000, 5000))):
        rng = _rep_rng(seed, 0)
        trial, target = continuous.sample_trial(rng, n), continuous.sample_target(rng, m)
        for fn in (gformula_conditional, generalize_local):
            for measure in MeasureKind:
                for covariates in covariate_sets:
                    try:
                        got = fn(trial, target, measure, covariates, Learner.LEAST_SQUARES)
                        got = got.value.hex()
                    except EffectMeasureError as exc:
                        got = f"{type(exc).__name__}: {exc}"
                    lines.append(f"{seed} {fn.__name__} {measure.value} {covariates}: {got}")
    assert len(lines) == 192
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_least_squares_estimates_are_pinned_bit_for_bit():
    """Every estimate and error text of the least-squares g-formula and
    local estimators on seeded continuous samples, by digest."""
    assert _least_squares_digest() == "175d709203a35c1002d0a9d8f2551d05189e2622f0b5b37a24c199f8a69b751c"


class TestConstructorRefusals:
    """Each sample and role constructor refuses malformed input with
    ``InvariantViolation``."""

    def test_a_row_tuple_of_the_wrong_arity(self):
        with pytest.raises(InvariantViolation, match="row arity differs"):
            TrialSample(("x", "z"), ((0, 1), (1,)), (0, 1), (0.0, 1.0))

    def test_a_2d_array_of_the_wrong_arity(self):
        with pytest.raises(InvariantViolation, match="row arity differs"):
            TargetSample(("x",), np.zeros((2, 2)))

    @pytest.mark.parametrize("a, y", [((0, 1, 0), (0.0, 1.0)), ((0, 1), (0.0, 1.0, 0.5))])
    def test_x_a_and_y_of_unequal_length(self, a, y):
        with pytest.raises(InvariantViolation, match="x, a, y must have equal length"):
            TrialSample(("x",), ((0,), (1,)), a, y)

    def test_y0_of_the_wrong_length(self):
        with pytest.raises(InvariantViolation, match="y0 must cover every row"):
            TargetSample(("x",), ((0,), (1,)), (0.0,))

    def test_duplicate_names_in_covariate_roles(self):
        with pytest.raises(InvariantViolation, match="duplicate covariate names"):
            transport.CovariateRoles(("x", "x"), frozenset(), frozenset(), frozenset())


def test_a_column_of_mixed_numbers_and_strings_is_coded_in_first_seen_order():
    """Levels that do not compare are coded in first-seen order, and the
    estimates equal those of the same column written as strings."""
    trial_values, target_values = ["u", 1, 1, "u", 1, "u", "u", 1], [1, "u", 1]
    a, y = (0, 0, 1, 1, 0, 1, 0, 1), (1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0)

    def samples(write):
        return (
            TrialSample(("c",), [(write(v),) for v in trial_values], a, y),
            TargetSample(("c",), [(write(v),) for v in target_values], (0.0, 1.0, 1.0)),
        )

    mixed, text = samples(lambda v: v), samples(str)
    assert mixed[0].columns[0].dtype == object
    levels, codes = _code_column(mixed[0].columns[0], mixed[1].columns[0])
    assert levels == 2 and codes.tolist() == [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1]
    for fn in (gformula_conditional, generalize_local):
        for measure in (MeasureKind.RD, MeasureKind.RR, MeasureKind.SR):
            assert fn(*mixed, measure, ("c",)) == fn(*text, measure, ("c",))


class TestNamedColumns:
    """A sample built from a dict of each covariate's column equals the one
    built from the same values as rows, types each column once, and reads
    its rows back by the same rule."""

    ROWS = ((0, "u", 0.5, 300), (1, "v", 2.0, -1), (1, "u", -0.25, 7))

    def test_a_dict_of_columns_equals_its_rows(self):
        names = ("i", "tag", "u", "wide")
        columns = {name: list(values) for name, values in zip(names, zip(*self.ROWS))}
        a, y = (0, 1, 1), (0.0, 1.0, 0.5)
        trial = TrialSample(names, columns, a, y)
        assert trial == TrialSample(names, self.ROWS, a, y)
        assert [c.dtype for c in trial.columns] == [np.int8, object, np.float64, np.int16]
        # the dict's own order does not matter, the covariates' order does
        assert TargetSample(names, dict(reversed(columns.items()))) == TargetSample(names, self.ROWS)

    def test_arrays_are_copied_and_typed(self):
        x = np.array([0, 1, 1], np.int64)
        target = TargetSample(("x",), {"x": x})
        x[0] = 5
        assert target.columns[0].dtype == np.int8 and target.columns[0].tolist() == [0, 1, 1]
        assert not target.columns[0].flags.writeable

    @pytest.mark.parametrize(
        "columns",
        [{"x": [0, 1]}, {"x": [0, 1], "z": [1, 0], "w": [0, 0]}, {"x": [0, 1], "w": [1, 0]}],
        ids=["missing", "extra", "renamed"],
    )
    def test_keys_that_differ_from_the_covariates(self, columns):
        with pytest.raises(InvariantViolation, match="differ from"):
            TrialSample(("x", "z"), columns, (0, 1), (0.0, 1.0))
        with pytest.raises(InvariantViolation, match="differ from"):
            TargetSample(("x", "z"), columns)

    def test_columns_of_unequal_length(self):
        with pytest.raises(InvariantViolation, match="differ in length"):
            TargetSample(("x", "z"), {"x": [0, 1], "z": [1, 0, 1]})
        with pytest.raises(InvariantViolation, match="differ in length"):
            TrialSample(("x", "z"), {"x": np.zeros(3), "z": np.zeros(2)}, (0, 1, 0), (0.0,) * 3)

    @pytest.mark.parametrize(
        "column",
        [np.zeros((2, 2)), np.zeros((2, 1)), np.int64(1), 1, "ab", np.array(0.5), (v for v in (0, 1))],
        ids=["2-D", "2-D-one-wide", "numpy-scalar", "int", "str", "0-D", "generator"],
    )
    def test_columns_that_are_not_1_d(self, column):
        """Each value must be a list, a tuple or 1-D: a 2-D array of the
        right length is refused, not stored as one column, and so is a
        scalar, a string or a generator."""
        with pytest.raises(InvariantViolation, match="must be 1-D"):
            TargetSample(("x", "z"), {"x": [0, 1], "z": column})
        with pytest.raises(InvariantViolation, match="must be 1-D"):
            TrialSample(("z", "x"), {"x": [0, 1], "z": column}, (0, 1), (0.0, 1.0))

    def test_columns_of_no_rows(self):
        with pytest.raises(InvariantViolation, match="at least one row"):
            TargetSample(("x",), {"x": []})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_in_a_column(self, bad):
        with pytest.raises(InvariantViolation, match="covariate 'u' must be finite"):
            TargetSample(("x", "u"), {"x": [0, 1], "u": np.array([0.5, bad])})
        with pytest.raises(InvariantViolation, match="covariate 'u' must be finite"):
            TargetSample(("x", "u"), {"x": [0, 1], "u": ["f", bad]})

    @pytest.mark.parametrize(
        "columns, dtype, rows",
        [
            ({"i": [0, 1], "j": [300, -2]}, np.int64, [[0, 300], [1, -2]]),
            ({"i": np.array([2**40, 0]), "j": [1, 0]}, np.int64, [[2**40, 1], [0, 0]]),
            ({"u": [0.5, 1.0], "v": np.array([2.0, 3.0])}, np.float64, [[0.5, 2.0], [1.0, 3.0]]),
            ({"i": [1, 2], "u": [0.5, 1.5]}, object, [[1, 0.5], [2, 1.5]]),
            ({"i": [1, 2], "tag": ["a", "b"]}, object, [[1, "a"], [2, "b"]]),
            ({"i": [1, 2], "u": [0.5, 1.5], "tag": ["a", 3]}, object, [[1, 0.5, "a"], [2, 1.5, 3]]),
        ],
    )
    def test_rows_are_int64_float64_or_objects(self, columns, dtype, rows):
        """int64 rows where every column holds integers, float64 where every
        column holds floats, else objects holding each column's own values
        (Python ints for integer columns, whatever their type)."""
        target = TargetSample(tuple(columns), columns)
        x = target.x
        assert x.dtype == dtype and x.shape == (2, len(columns)) and x.tolist() == rows
        assert [type(v) for v in x[0].tolist()] == [type(v) for v in rows[0]]
        assert TargetSample(target.covariates, x) == target

    def test_a_trial_is_never_equal_to_a_target(self):
        """Samples of the two types do not compare: each ``__eq__`` defers,
        and the pair falls back to identity."""
        trial = TrialSample(("x",), {"x": [0, 1]}, (0, 1), (0.0, 1.0))
        target = TargetSample(("x",), {"x": [0, 1]})
        assert trial.__eq__(target) is NotImplemented
        assert target.__eq__(trial) is NotImplemented
        assert trial != target and not (target == trial)
