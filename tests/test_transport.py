import math
import random

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
    population_measures_binary,
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
        for e in population_measures_binary(model, space, population)
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

    def test_ipsw_refuses_least_squares(self, oracle_trial, oracle_target):
        with pytest.raises(InvariantViolation, match="least-squares"):
            ipsw_conditional(
                oracle_trial, oracle_target, MeasureKind.RD, ("x",), Learner.LEAST_SQUARES
            )
