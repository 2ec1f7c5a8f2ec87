import math
import random

import numpy as np
import pytest

from conftest import random_distribution
from effectmeasures.errors import InvariantViolation, NonCollapsible, UndefinedMeasure
from effectmeasures.measures import (
    MeasureKind,
    OutcomeKind,
    OutcomePair,
    compute_measure,
)
from effectmeasures.strata import (
    COLLAPSIBLE_MEASURES,
    StratifiedDistribution,
    Stratum,
    check_logic_respecting,
    collapse,
    collapse_weights,
    collapsibility_weights,
    find_or_noncollapsibility_example,
    is_homogeneous,
    marginal_pair,
    naive_average,
)

NON_COLLAPSIBLE = (MeasureKind.NNT, MeasureKind.OR, MeasureKind.LOG_OR)


class TestMarginalPair:
    def test_weighted_pooling(self, protective_table):
        pair = marginal_pair(protective_table)
        assert pair.mu0 == pytest.approx(0.47 * 0.015 + 0.53 * 0.2, rel=1e-12)
        assert pair.mu1 == pytest.approx(0.47 * 0.009 + 0.53 * 0.12, rel=1e-12)

    def test_pooled_counts(self, paradox_counts):
        pair = marginal_pair(paradox_counts)
        assert pair.mu0 == pytest.approx(26 / 1100, rel=1e-12)
        assert pair.mu1 == pytest.approx(95 / 1100, rel=1e-12)

    def test_single_stratum_is_identity(self):
        stratum = Stratum("only", 1.0, OutcomePair(0.3, 0.4, OutcomeKind.BINARY))
        dist = StratifiedDistribution((stratum,), OutcomeKind.BINARY)
        assert marginal_pair(dist) == stratum.pair


class TestWeights:
    def test_rd_weights_are_proportions(self, protective_table):
        weights = collapsibility_weights(MeasureKind.RD, protective_table)
        assert weights.weights == pytest.approx((0.47, 0.53))

    def test_rr_weights_scale_by_control_mean(self, protective_table):
        weights = collapsibility_weights(MeasureKind.RR, protective_table)
        mu0 = marginal_pair(protective_table).mu0
        assert weights.weights[0] == pytest.approx(0.47 * 0.015 / mu0, rel=1e-12)
        assert weights.weights == pytest.approx((0.0624, 0.9376), abs=5e-4)

    def test_sr_weights_scale_by_control_survival(self, protective_table):
        weights = collapsibility_weights(MeasureKind.SR, protective_table)
        mu0 = marginal_pair(protective_table).mu0
        assert weights.weights[1] == pytest.approx(0.53 * 0.8 / (1 - mu0), rel=1e-12)

    @pytest.mark.parametrize("measure", NON_COLLAPSIBLE)
    def test_non_collapsible_measures_refuse_weights(self, protective_table, measure):
        with pytest.raises(NonCollapsible):
            collapsibility_weights(measure, protective_table)

    @pytest.mark.parametrize("measure", NON_COLLAPSIBLE)
    def test_non_collapsible_names_the_measure_by_its_value(self, protective_table, measure):
        with pytest.raises(NonCollapsible) as excinfo:
            collapsibility_weights(measure, protective_table)
        assert str(excinfo.value) == f"{measure.value} is not collapsible"

    def test_weight_domain_violation_surfaces(self):
        bad = StratifiedDistribution(
            (
                Stratum("a", 0.5, OutcomePair(0.0, 0.2, OutcomeKind.BINARY)),
                Stratum("b", 0.5, OutcomePair(0.4, 0.2, OutcomeKind.BINARY)),
            ),
            OutcomeKind.BINARY,
        )
        with pytest.raises(UndefinedMeasure):
            collapsibility_weights(MeasureKind.RR, bad)

    @staticmethod
    def continuous(*strata):
        return StratifiedDistribution(
            tuple(
                Stratum(label, 0.5, OutcomePair(mu0, mu1, OutcomeKind.CONTINUOUS))
                for label, mu0, mu1 in strata
            ),
            OutcomeKind.CONTINUOUS,
        )

    @pytest.mark.parametrize("measure", [MeasureKind.RR, MeasureKind.ERR])
    def test_weights_that_change_sign_are_undefined(self, measure):
        # control means -1 and 2 give raw weights -0.5 and 1.0, normalized to -1 and 2
        dist = self.continuous(("a", -1.0, 2.0), ("b", 2.0, 3.0))
        with pytest.raises(UndefinedMeasure, match="change sign"):
            collapsibility_weights(measure, dist)
        with pytest.raises(UndefinedMeasure, match="change sign"):
            collapse_weights(measure, np.array([0.5, 0.5]), np.array([-1.0, 2.0]))

    @pytest.mark.parametrize(
        "measure, control_means",
        [
            (MeasureKind.RR, [np.inf, -np.inf]),
            (MeasureKind.ERR, [np.inf, 1.0]),
            (MeasureKind.SR, [-np.inf, 0.5]),
            (MeasureKind.RS, [np.nan, 0.5]),
        ],
    )
    def test_non_finite_weights_are_undefined(self, measure, control_means):
        with pytest.raises(UndefinedMeasure, match="not finite"):
            collapse_weights(measure, np.array([0.5, 0.5]), np.array(control_means))

    def test_all_negative_control_means_are_accepted(self):
        dist = self.continuous(("a", -1.0, -2.0), ("b", -3.0, -4.0))
        assert collapsibility_weights(MeasureKind.RR, dist).weights == (0.25, 0.75)
        assert collapse(MeasureKind.RR, dist).value == pytest.approx(
            compute_measure(MeasureKind.RR, marginal_pair(dist)).value, rel=1e-12
        )


class TestCollapse:
    def test_risk_difference_golden(self, protective_table):
        assert collapse(MeasureKind.RD, protective_table).value == pytest.approx(-0.0452, abs=5e-4)

    def test_risk_ratio_golden(self, protective_table):
        assert collapse(MeasureKind.RR, protective_table).value == pytest.approx(0.6, abs=5e-4)

    def test_single_stratum_survival_ratio(self):
        stratum = Stratum("only", 1.0, OutcomePair(0.3, 0.4, OutcomeKind.BINARY))
        dist = StratifiedDistribution((stratum,), OutcomeKind.BINARY)
        assert collapse(MeasureKind.SR, dist).value == pytest.approx(
            compute_measure(MeasureKind.SR, stratum.pair).value, rel=1e-12
        )

    def test_collapse_matches_marginal_on_random_distributions(self):
        rng = random.Random(20240824)
        for _ in range(200):
            dist = random_distribution(rng)
            marginal = marginal_pair(dist)
            for measure in COLLAPSIBLE_MEASURES:
                assert collapse(measure, dist).value == pytest.approx(
                    compute_measure(measure, marginal).value, abs=1e-10, rel=1e-10
                )


class TestNaiveAverage:
    def test_nnt_magnitudes_mislead(self, protective_table):
        magnitudes = math.fsum(
            s.proportion * abs(compute_measure(MeasureKind.NNT, s.pair).value)
            for s in protective_table.strata
        )
        assert magnitudes == pytest.approx(85, abs=1)
        marginal_nnt = compute_measure(MeasureKind.NNT, marginal_pair(protective_table)).value
        assert abs(marginal_nnt) == pytest.approx(22, abs=1)
        assert abs(magnitudes - abs(marginal_nnt)) > 50

    def test_signed_average_for_protective_table(self, protective_table):
        assert naive_average(MeasureKind.NNT, protective_table) == pytest.approx(-84.96, abs=0.5)

    def test_rd_naive_average_equals_collapse(self, protective_table):
        assert naive_average(MeasureKind.RD, protective_table) == pytest.approx(
            collapse(MeasureKind.RD, protective_table).value, abs=1e-12
        )

    def test_or_naive_average_disagrees_with_pooled(self, paradox_counts):
        naive = naive_average(MeasureKind.OR, paradox_counts)
        pooled = compute_measure(MeasureKind.OR, marginal_pair(paradox_counts)).value
        assert naive == pytest.approx(6.0, abs=0.05)
        assert pooled == pytest.approx(3.904, abs=5e-3)
        # reciprocal orientation, as published
        assert 1 / pooled == pytest.approx(0.26, abs=5e-3)


class TestLogicRespecting:
    def test_odds_ratio_escapes_stratum_range(self, paradox_counts):
        report = check_logic_respecting(MeasureKind.OR, paradox_counts)
        assert not report.respected
        assert report.low == pytest.approx(6.0, abs=5e-3)
        assert report.high == pytest.approx(6.009, abs=5e-3)
        assert report.marginal == pytest.approx(3.904, abs=5e-3)

    def test_nnt_stays_in_range_on_protective_table(self, protective_table):
        report = check_logic_respecting(MeasureKind.NNT, protective_table)
        assert report.respected
        assert report.low == pytest.approx(-166.7, abs=0.1)
        assert report.high == pytest.approx(-12.5, abs=0.1)
        assert report.marginal == pytest.approx(-22.1, abs=0.1)

    def test_rd_always_respected(self):
        rng = random.Random(7)
        for _ in range(50):
            dist = random_distribution(rng)
            assert check_logic_respecting(MeasureKind.RD, dist).respected


class TestHomogeneity:
    def test_constant_rr_table(self, protective_table):
        assert is_homogeneous(MeasureKind.RR, protective_table, 1e-9)

    def test_heterogeneous_rd_table(self, protective_table):
        assert not is_homogeneous(MeasureKind.RD, protective_table, 1e-9)

    def test_single_stratum_trivially_homogeneous(self):
        stratum = Stratum("only", 1.0, OutcomePair(0.3, 0.4, OutcomeKind.BINARY))
        dist = StratifiedDistribution((stratum,), OutcomeKind.BINARY)
        assert is_homogeneous(MeasureKind.OR, dist, 0.0)


class TestJensenGenerator:
    def test_marginal_log_or_strictly_below_stratum_value(self):
        for seed in range(25):
            dist = find_or_noncollapsibility_example(seed)
            values = [
                compute_measure(MeasureKind.LOG_OR, s.pair).value for s in dist.strata
            ]
            assert values[0] == pytest.approx(values[1], rel=1e-9)
            report = check_logic_respecting(MeasureKind.LOG_OR, dist)
            assert report.marginal < min(values) - 1e-6
            assert not report.respected
            assert not check_logic_respecting(MeasureKind.OR, dist).respected

    def test_deterministic_in_seed(self):
        assert find_or_noncollapsibility_example(3) == find_or_noncollapsibility_example(3)
        assert find_or_noncollapsibility_example(3) != find_or_noncollapsibility_example(4)
        strata = find_or_noncollapsibility_example(0).strata
        assert [(s.proportion, s.pair.mu0, s.pair.mu1) for s in strata] == [
            (0.4035667001171853, 0.28734870528482276, 0.676148160291056),
            (0.5964332998828147, 0.6471821652209894, 0.9047451857329555),
        ]


class TestValidation:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(InvariantViolation):
            StratifiedDistribution(
                (
                    Stratum("a", 0.6, OutcomePair(0.2, 0.1, OutcomeKind.BINARY)),
                    Stratum("b", 0.5, OutcomePair(0.3, 0.2, OutcomeKind.BINARY)),
                ),
                OutcomeKind.BINARY,
            )

    def test_counts_must_match_pair(self):
        with pytest.raises(InvariantViolation):
            Stratum(
                "bad",
                1.0,
                OutcomePair(0.5, 0.5, OutcomeKind.BINARY),
                counts=((60, 40), (20, 80)),
            )

    def test_counts_derive_pair(self):
        stratum = Stratum.from_counts("f1", 1.0, ((60, 40), (20, 80)))
        assert stratum.pair.mu1 == 0.6
        assert stratum.pair.mu0 == 0.2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvariantViolation, match=r"duplicate stratum labels: \['a'\]"):
            StratifiedDistribution(
                (
                    Stratum("a", 0.5, OutcomePair(0.1, 0.2, OutcomeKind.BINARY)),
                    Stratum("a", 0.5, OutcomePair(0.3, 0.5, OutcomeKind.BINARY)),
                ),
                OutcomeKind.BINARY,
            )

    def test_mixed_kinds_rejected(self):
        with pytest.raises(InvariantViolation):
            StratifiedDistribution(
                (
                    Stratum("a", 0.5, OutcomePair(0.2, 0.1, OutcomeKind.BINARY)),
                    Stratum("b", 0.5, OutcomePair(3.0, 2.0, OutcomeKind.CONTINUOUS)),
                ),
                OutcomeKind.BINARY,
            )

    def test_mixed_kinds_named_by_their_values(self):
        with pytest.raises(InvariantViolation) as excinfo:
            StratifiedDistribution(
                (Stratum("b", 1.0, OutcomePair(3.0, 2.0, OutcomeKind.CONTINUOUS)),),
                OutcomeKind.BINARY,
            )
        assert str(excinfo.value) == "stratum 'b' has kind continuous, distribution is binary"


class TestWeightRefusals:
    @pytest.mark.parametrize(
        "weights, message",
        [((-0.5, 1.5), "must be nonnegative"), ((0.3, 0.3), "must sum to 1")],
    )
    def test_collapse_weights_built_directly(self, weights, message):
        from effectmeasures.strata import CollapseWeights

        with pytest.raises(InvariantViolation, match=message):
            CollapseWeights(MeasureKind.RD, weights)

    def test_collapse_weights_of_the_odds_ratio(self):
        with pytest.raises(NonCollapsible):
            collapse_weights(MeasureKind.OR, np.array([0.5, 0.5]), np.array([0.2, 0.4]))


class TestCountRefusals:
    @pytest.mark.parametrize("counts", [((1.5, 2), (1, 1)), ((1, 2), (-1, 1))])
    def test_counts_must_be_nonnegative_integers(self, counts):
        with pytest.raises(InvariantViolation, match="counts must be nonnegative integers"):
            Stratum.from_counts("s", 1.0, counts)

    def test_a_pair_that_contradicts_its_counts(self):
        # the treated risk matches, the control risk does not
        with pytest.raises(InvariantViolation, match="does not match counts-derived"):
            Stratum("s", 1.0, OutcomePair(0.25, 0.6, OutcomeKind.BINARY), ((60, 40), (20, 80)))

    @pytest.mark.parametrize("proportion", [0.0, 1.5])
    def test_a_proportion_outside_zero_to_one(self, proportion):
        with pytest.raises(InvariantViolation, match="proportion must lie in"):
            Stratum("s", proportion, OutcomePair(0.2, 0.1, OutcomeKind.BINARY))

    def test_a_distribution_without_strata(self):
        with pytest.raises(InvariantViolation, match="at least one stratum"):
            StratifiedDistribution((), OutcomeKind.BINARY)
