"""Acceptance suite: one test per release criterion.

Each test states the behavior it locks down; tolerances are part of the
contract. Criterion 7 checks the sparsest binary covariate set against
an exact oracle: enumerating the model gives the large-sample limit of
the risk difference reweighted on stress alone (8333/60000, 3.6% from
the truth 4021/30000). That limit must miss the truth by more than 2%,
the Monte-Carlo median must land within 2% of it, and the same
enumeration on a sufficient set must reproduce the truth to 1e-12.
"""

import math
import random

import pytest

import exact_truth
from conftest import random_distribution
from effectmeasures.cli import EXIT_OK, main as cli_main
from effectmeasures.errors import NonCollapsible
from effectmeasures.genmodel import (
    DiscreteCovariateSpace,
    EntanglementModel,
    LogitOutcomeModel,
    MonotonicityDirection,
    logit_conditional_logor,
    monotone_ratio,
    pooled_pair,
    population_measures,
    potential_mean,
)
from effectmeasures.measures import (
    MeasureKind,
    MeasureValue,
    OutcomeKind,
    compute_measure,
)
from effectmeasures.simbench import builtin_scenario, run_scenario
from effectmeasures.strata import (
    COLLAPSIBLE_MEASURES,
    check_logic_respecting,
    collapse,
    collapsibility_weights,
    find_or_noncollapsibility_example,
    marginal_pair,
)
from effectmeasures.transport import (
    Strategy,
    generalize_local,
    gformula_conditional,
    plan_adjustment,
)
from test_genmodel import random_entanglement, random_logit
from test_transport import random_trial_and_target


def _values(entries):
    return {e.measure: e.value for e in entries if isinstance(e, MeasureValue)}


def test_criterion_1_protective_two_stratum_goldens(protective_table):
    rows = {
        "marginal": marginal_pair(protective_table),
        "low": protective_table.strata[0].pair,  # 0.015 -> 0.009
        "high": protective_table.strata[1].pair,  # 0.2 -> 0.12
    }
    val = lambda m, pair: compute_measure(m, pair).value
    assert val(MeasureKind.RD, rows["marginal"]) == pytest.approx(-0.0452, abs=5e-5)
    for pair in rows.values():
        assert val(MeasureKind.RR, pair) == pytest.approx(0.6, abs=5e-4)
    assert val(MeasureKind.SR, rows["marginal"]) == pytest.approx(1.05, abs=5e-3)
    assert val(MeasureKind.SR, rows["low"]) == pytest.approx(1.01, abs=5e-3)
    assert val(MeasureKind.SR, rows["high"]) == pytest.approx(1.1, abs=5e-3)
    assert abs(val(MeasureKind.NNT, rows["marginal"])) == pytest.approx(22, abs=1)
    assert abs(val(MeasureKind.NNT, rows["low"])) == pytest.approx(167, abs=1)
    assert abs(val(MeasureKind.NNT, rows["high"])) == pytest.approx(13, abs=1)
    assert val(MeasureKind.OR, rows["marginal"]) == pytest.approx(0.57, abs=5e-3)
    assert val(MeasureKind.OR, rows["low"]) == pytest.approx(0.6, abs=5e-3)
    assert val(MeasureKind.OR, rows["high"]) == pytest.approx(0.545, abs=5e-3)


def test_criterion_2_pooled_odds_ratio_escapes_stratum_range(paradox_counts):
    stratum_ors = sorted(
        compute_measure(MeasureKind.OR, s.pair).value for s in paradox_counts.strata
    )
    assert stratum_ors[0] == pytest.approx(6.00, abs=0.01)
    assert stratum_ors[1] == pytest.approx(6.01, abs=0.01)
    pooled = compute_measure(MeasureKind.OR, marginal_pair(paradox_counts)).value
    assert pooled == pytest.approx(3.904, abs=5e-3)
    reciprocals = sorted(1.0 / v for v in stratum_ors + [pooled])
    assert reciprocals[0] == pytest.approx(0.166, abs=5e-3)
    assert reciprocals[1] == pytest.approx(0.167, abs=5e-3)
    assert reciprocals[2] == pytest.approx(0.26, abs=5e-3)
    assert check_logic_respecting(MeasureKind.OR, paradox_counts).respected is False


def test_criterion_3_rare_event_switch_on_table():
    cell = (0,)
    space = DiscreteCovariateSpace(("x",), (cell,), {"pop": (1.0,)})
    for b, e_y1, rr, rd in (
        (0.01, 0.175, 17.5, 0.165),
        (0.05, 0.2083, 25 / 6, 0.1583),
    ):
        model = EntanglementModel({cell: b}, {cell: 1 / 6}, {cell: 0.0})
        assert potential_mean(model, 1, cell) == pytest.approx(e_y1, abs=5e-4)
        out = _values(population_measures(model, space, "pop"))
        assert out[MeasureKind.RR] == pytest.approx(rr, abs=5e-4)
        assert out[MeasureKind.RD] == pytest.approx(rd, abs=5e-4)
        assert out[MeasureKind.SR] == pytest.approx(5 / 6, abs=5e-4)


def test_criterion_4_collapsibility_properties(paradox_counts):
    rng = random.Random(4)
    for i in range(1000):
        dist = random_distribution(rng, protective=i % 2 == 0)
        marginal = marginal_pair(dist)
        for measure in COLLAPSIBLE_MEASURES:
            assert collapse(measure, dist).value == pytest.approx(
                compute_measure(measure, marginal).value, abs=1e-10, rel=1e-10
            )
            # in-range: collapsible measures are normalized nonnegative
            # weighted averages of the stratum values
            assert check_logic_respecting(measure, dist).respected
        for measure in (MeasureKind.NNT, MeasureKind.OR):
            with pytest.raises(NonCollapsible):
                collapsibility_weights(measure, dist)
        if i % 2 == 0:  # consistent effect direction: NNT stays in range
            assert check_logic_respecting(MeasureKind.NNT, dist).respected
    # the odds ratio is the exception, exhibited two independent ways
    assert not check_logic_respecting(MeasureKind.OR, paradox_counts).respected
    for seed in range(5):
        example = find_or_noncollapsibility_example(seed)
        assert not check_logic_respecting(MeasureKind.OR, example).respected


def test_criterion_5_generative_model_oracles():
    rng = random.Random(5)
    for _ in range(500):
        model, space = random_entanglement(rng)
        exact_truth.assert_truths_exact(model, space, "pop", exact_truth.cell_means(model))
        # monotone shortcut, on the harmful restriction of the same model
        harmful = EntanglementModel(model.b, model.m_b, {c: 0.0 for c in model.b})
        shortcut = monotone_ratio(
            harmful, space, "pop", MonotonicityDirection.HARMFUL
        ).value
        pooled_h = pooled_pair(harmful, space, "pop")
        assert shortcut == pytest.approx(
            compute_measure(MeasureKind.SR, pooled_h).value, abs=1e-12, rel=1e-12
        )
    for _ in range(500):
        model, space = random_logit(rng)
        exact_truth.assert_truths_exact(model, space, "pop", exact_truth.cell_means(model))
        # constant positive modulation: conditional log-OR is that constant,
        # the marginal lies strictly below it (and above the null)
        m = rng.uniform(0.2, 2.0)
        constant = LogitOutcomeModel(model.b, {c: m for c in model.b})
        logors = {logit_conditional_logor(constant, c) for c in space.cells}
        assert logors == {m}
        marginal = _values(population_measures(constant, space, "pop"))
        b_values = set(model.b.values())
        if len(b_values) > 1:
            assert 0.0 < marginal[MeasureKind.LOG_OR] < m
        else:
            assert marginal[MeasureKind.LOG_OR] == pytest.approx(m, rel=1e-12)


def test_criterion_6_planner_worked_examples(roles_continuous, roles_binary):
    plan = plan_adjustment(
        roles_continuous,
        MeasureKind.RD,
        OutcomeKind.CONTINUOUS,
        MonotonicityDirection.NON_MONOTONE,
        Strategy.LOCAL_EFFECT,
    )
    assert plan.required_covariates == ("X1", "X2")
    assert plan.requires_target_y0 is False
    plan = plan_adjustment(
        roles_continuous,
        MeasureKind.RR,
        OutcomeKind.CONTINUOUS,
        MonotonicityDirection.NON_MONOTONE,
        Strategy.CONDITIONAL_OUTCOME,
    )
    assert plan.required_covariates == ("X1", "X2", "X3", "X4")
    plan = plan_adjustment(
        roles_binary,
        MeasureKind.SR,
        OutcomeKind.BINARY,
        MonotonicityDirection.HARMFUL,
        Strategy.LOCAL_EFFECT,
    )
    assert plan.required_covariates == ("stress",)
    assert plan.requires_target_y0 is True


def _median(report, key):
    for s in report.summaries:
        if s.config.key == key:
            assert s.n_failed == 0
            return s.median, s.ground_truth
    raise KeyError(key)


def _rel_err(median, truth):
    return abs(median - truth) / abs(truth)


def _reweighted_rd_limit(scenario, covariates):
    """Large-sample limit of the RD reweighted from source to target on
    ``covariates``, by enumerating the scenario's model.

    Within each level of ``covariates`` the cell effects E[Y(1) - Y(0) | X]
    are averaged with source proportions (the omitted covariates keep
    their source distribution); the levels are then weighted by the
    target's margin.
    """
    space, model = scenario.space, scenario.model
    cols = [space.covariates.index(name) for name in covariates]
    levels = {}
    for cell, p_source, p_target in zip(
        space.cells, space.probabilities("source"), space.probabilities("target")
    ):
        effect = potential_mean(model, 1, cell) - potential_mean(model, 0, cell)
        level = tuple(cell[j] for j in cols)
        levels.setdefault(level, []).append((p_source, p_target, effect))
    return math.fsum(
        math.fsum(t for _, t, _ in rows)
        * math.fsum(s * e for s, _, e in rows)
        / math.fsum(s for s, _, _ in rows)
        for rows in levels.values()
    )


def test_criterion_7_simulation_studies_reproduce_covariate_set_effects():
    continuous = builtin_scenario("continuous-linear")
    report = run_scenario(continuous, seed=0, workers=4)
    for strategy in ("gformula", "local"):
        median, truth = _median(report, ("rd", strategy, "X1+X2"))
        assert truth == pytest.approx(37.3, rel=1e-12)
        assert _rel_err(median, truth) < 0.02, (strategy, median)
    median, truth = _median(report, ("rr", "gformula", "X1+X2"))
    assert _rel_err(median, truth) > 0.05, median  # modulators alone mislead RR
    median, truth = _median(report, ("rr", "gformula", "X1+X2+X3+X4"))
    assert _rel_err(median, truth) < 0.02, median

    roulette = builtin_scenario("roulette-heterogeneous")
    report = run_scenario(roulette, seed=1, workers=4)
    median, truth = _median(report, ("sr", "local", "stress"))
    assert _rel_err(median, truth) < 0.02, median
    for key in (
        ("sr", "local", "lifestyle+stress"),
        ("rd", "ipsw", "lifestyle+stress"),
        ("rr", "gformula", "lifestyle+stress"),
        ("or", "gformula", "lifestyle+stress"),
    ):
        median, truth = _median(report, key)
        assert _rel_err(median, truth) < 0.02, (key, median)
    # stress alone omits lifestyle, a shifted modifier of the RD: the exact
    # large-sample limit misses the truth (8333/60000 vs 4021/30000, a
    # 3.6% bias), and the estimator must converge to that limit
    median, truth = _median(report, ("rd", "ipsw", "stress"))
    assert _reweighted_rd_limit(roulette, ("lifestyle", "stress")) == pytest.approx(
        truth, rel=1e-12
    )
    plim = _reweighted_rd_limit(roulette, ("stress",))
    assert _rel_err(plim, truth) > 0.02, plim
    assert _rel_err(median, plim) < 0.02, (median, plim)


def test_criterion_8_rd_local_and_conditional_agree_on_categorical_data():
    rng = random.Random(8)
    datasets = [random_trial_and_target(rng) for _ in range(50)]
    for trial, target in datasets:
        local = generalize_local(trial, target, MeasureKind.RD, trial.covariates)
        gform = gformula_conditional(trial, target, MeasureKind.RD, trial.covariates)
        assert local.value == pytest.approx(gform.value, abs=1e-12)


def test_criterion_9_simulation_runs_are_byte_identical(tmp_path, capsys):
    outputs = []
    for tag, workers in (("a", "1"), ("b", "3")):
        path = tmp_path / f"report_{tag}.csv"
        argv = [
            "simulate", "--scenario", "roulette-heterogeneous", "--seed", "11",
            "--reps", "4", "--n", "500", "--m", "800",
            "--workers", workers, "--out", str(path),
        ]
        assert cli_main(argv) == EXIT_OK
        capsys.readouterr()
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(
        b"scenario,rep,measure,strategy,covariate_set,estimate,ground_truth"
    )
