import importlib.util
import math
import random
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from effectmeasures.errors import (
    DirectionViolated,
    InvariantViolation,
    NotIdentifiable,
    UndefinedMeasure,
    UnknownCell,
)
import exact_truth
from effectmeasures.genmodel import (
    ContinuousOutcomeModel,
    DiscreteCovariateSpace,
    EntanglementModel,
    LogitOutcomeModel,
    MODEL_TYPES,
    MonotonicityDirection,
    entanglement_to_logit,
    expit,
    identify_modulation,
    local_ratio,
    logit,
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
    OutcomePair,
    UndefinedAnnotation,
)
from effectmeasures.simbench import builtin_scenario, ground_truth
from effectmeasures.strata import StratifiedDistribution, Stratum, marginal_pair

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("_oracles", ROOT / "perfbench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

BENEFICIAL = MonotonicityDirection.BENEFICIAL
HARMFUL = MonotonicityDirection.HARMFUL


def one_cell_space():
    return DiscreteCovariateSpace(("x",), ((0,),), {"pop": (1.0,)})


def roulette_model(b_value):
    """Rare harmful event with a constant one-in-six switch-on chance."""
    return EntanglementModel({(0,): b_value}, {(0,): 1.0 / 6.0}, {(0,): 0.0})


def values_by_kind(entries):
    return {e.measure: e for e in entries}


class TestPotentialMean:
    @pytest.mark.parametrize(
        "b,expected", [(0.01, 0.175), (0.05, 0.2083333333333333)]
    )
    def test_harmful_treated_mean(self, b, expected):
        model = roulette_model(b)
        assert potential_mean(model, 1, (0,)) == pytest.approx(expected, abs=5e-4)
        assert potential_mean(model, 0, (0,)) == b

    def test_continuous_additive(self):
        model = ContinuousOutcomeModel({(0,): 2.0}, {(0,): 1.5})
        assert potential_mean(model, 0, (0,)) == 2.0
        assert potential_mean(model, 1, (0,)) == 3.5

    def test_logit_uses_expit(self):
        model = LogitOutcomeModel({(0,): -1.0}, {(0,): 2.0})
        assert potential_mean(model, 0, (0,)) == pytest.approx(expit(-1.0))
        assert potential_mean(model, 1, (0,)) == pytest.approx(expit(1.0))

    def test_unknown_cell(self):
        with pytest.raises(UnknownCell):
            potential_mean(roulette_model(0.01), 1, (9,))

    def test_each_family_declares_its_tag_and_kind_outside_its_fields(self):
        table = {
            tag: (f.__name__, f.kind, [field.name for field in fields(f)])
            for tag, f in MODEL_TYPES.items()
        }
        assert table == {
            "continuous": (
                "ContinuousOutcomeModel", OutcomeKind.CONTINUOUS, ["b", "m", "noise_sd"]
            ),
            "entanglement": ("EntanglementModel", OutcomeKind.BINARY, ["b", "m_b", "m_g"]),
            "logit": ("LogitOutcomeModel", OutcomeKind.BINARY, ["b", "m"]),
        }
        model = LogitOutcomeModel({(0,): -1.0}, {(0,): 2.0})
        assert repr(model) == "LogitOutcomeModel(b={(0,): -1.0}, m={(0,): 2.0})"
        space = DiscreteCovariateSpace(("x",), ((0,),), {"pop": (1.0,)})
        assert pooled_pair(model, space, "pop").kind is OutcomeKind.BINARY


class TestContinuousPopulation:
    def test_study_coefficients(self):
        # linear model mean over a two-cell split reproducing hand sums
        space = DiscreteCovariateSpace(("x",), ((0,), (1,)), {"pop": (0.25, 0.75)})
        model = ContinuousOutcomeModel({(0,): 10.0, (1,): 12.0}, {(0,): 3.0, (1,): 5.0})
        out = values_by_kind(population_measures(model, space, "pop"))
        e_b, e_m = 11.5, 4.5
        assert list(out) == [MeasureKind.RD, MeasureKind.RR, MeasureKind.ERR]
        assert out[MeasureKind.RD].value == pytest.approx(e_m, rel=1e-12)
        assert out[MeasureKind.RR].value == pytest.approx(1 + e_m / e_b, rel=1e-12)
        assert out[MeasureKind.ERR].value == pytest.approx(e_m / e_b, rel=1e-12)

    def test_rd_invariant_to_baseline_shift(self):
        space = DiscreteCovariateSpace(("x",), ((0,), (1,)), {"pop": (0.4, 0.6)})
        m = {(0,): 3.0, (1,): -1.0}
        rd = lambda b: values_by_kind(
            population_measures(ContinuousOutcomeModel(b, m), space, "pop")
        )[MeasureKind.RD].value
        assert rd({(0,): 1.0, (1,): 2.0}) == pytest.approx(
            rd({(0,): 101.0, (1,): 102.0}), rel=1e-12
        )

    def test_null_modulation(self):
        space = one_cell_space()
        model = ContinuousOutcomeModel({(0,): 5.0}, {(0,): 0.0})
        out = values_by_kind(population_measures(model, space, "pop"))
        assert out[MeasureKind.RD].value == 0.0
        assert out[MeasureKind.RR].value == 1.0

    def test_zero_baseline_mean_rejected(self):
        # RR and ERR are reported undefined in-band; RD is still defined
        space = one_cell_space()
        out = values_by_kind(
            population_measures(ContinuousOutcomeModel({(0,): 0.0}, {(0,): 1.0}), space, "pop")
        )
        assert out[MeasureKind.RD] == MeasureValue(MeasureKind.RD, 1.0, 0.0)
        for measure in (MeasureKind.RR, MeasureKind.ERR):
            assert out[measure] == UndefinedAnnotation(measure, "RR requires mu0 != 0")

    def test_matches_exact_pooled_pair_on_random_rational_models(self):
        rng = random.Random(23)
        for _ in range(100):
            model, space, exact, probabilities = random_rational_continuous(rng)
            means = exact_truth.cell_means(model, exact)
            exact_truth.assert_truths_exact(model, space, "pop", means, probabilities)


class TestBinaryPopulation:
    @pytest.mark.parametrize(
        "b,rr,rd",
        [(0.01, 17.5, 0.165), (0.05, 25 / 6, 0.1583333333333333)],
    )
    def test_roulette_cells(self, b, rr, rd):
        out = values_by_kind(
            population_measures(roulette_model(b), one_cell_space(), "pop")
        )
        assert out[MeasureKind.RR].value == pytest.approx(rr, abs=5e-4)
        assert out[MeasureKind.RD].value == pytest.approx(rd, abs=5e-4)
        assert out[MeasureKind.SR].value == pytest.approx(5 / 6, abs=5e-4)

    def test_null_model_hits_references(self):
        cells = ((0,), (1,))
        space = DiscreteCovariateSpace(("x",), cells, {"pop": (0.5, 0.5)})
        model = EntanglementModel(
            {c: 0.2 + 0.1 * c[0] for c in cells},
            {c: 0.0 for c in cells},
            {c: 0.0 for c in cells},
        )
        out = values_by_kind(population_measures(model, space, "pop"))
        assert out[MeasureKind.RD].value == 0.0
        assert out[MeasureKind.RR].value == 1.0
        assert out[MeasureKind.SR].value == 1.0
        assert out[MeasureKind.OR].value == 1.0
        # NNT diverges at the null: reported in-band, not raised
        assert out[MeasureKind.NNT] == UndefinedAnnotation(
            MeasureKind.NNT, "NNT diverges at a null effect (mu1 == mu0)"
        )

    @pytest.mark.parametrize("population", ["target", "source"])
    def test_roulette_truths_are_exact(self, population):
        """The roulette study's truths against its rational model in
        ``perfbench/oracles.py``: the roundings imply at most 43 ulp, and
        through ``entanglement_to_logit`` at most 196 ulp."""
        study = builtin_scenario("roulette-heterogeneous")
        cells = oracles.ROULETTE_CELLS
        assert study.space.cells == cells
        exact = {
            "b": {c: oracles.roulette_baseline(*c) for c in cells},
            "m_b": {c: oracles.roulette_switch_on(*c) for c in cells},
            "m_g": {c: Fraction(0) for c in cells},
        }
        probabilities = {c: oracles.roulette_cell_probability(c, population) for c in cells}
        means = exact_truth.cell_means(study.model, exact)
        intervals = exact_truth.assert_truths_exact(
            study.model, study.space, population, means, probabilities
        )
        assert exact_truth.widest(intervals) <= 43
        if population == "target":  # the intervals hold the oracle's own truths
            for name in ("rd", "rr", "sr", "or"):
                assert oracles.roulette_truth(name) in intervals[MeasureKind(name)]
        for measure, interval in intervals.items():
            assert ground_truth(study, measure, population) in interval
        translated = exact_truth.translated_cell_means(study.model, exact)
        intervals = exact_truth.assert_truths_exact(
            entanglement_to_logit(study.model), study.space, population, translated, probabilities
        )
        assert exact_truth.widest(intervals) <= 196

    def test_matches_pooled_pair_on_random_models(self):
        rng = random.Random(99)
        for _ in range(100):
            model, space, exact, probabilities = random_rational_entanglement(rng)
            means = exact_truth.cell_means(model, exact)
            exact_truth.assert_truths_exact(model, space, "pop", means, probabilities)


def _rational_space(rng: random.Random, max_cells: int):
    k = rng.randint(2, max_cells)
    cells = tuple((i,) for i in range(k))
    weights = [rng.randint(1, 20) for _ in cells]
    probabilities = {c: Fraction(w, sum(weights)) for c, w in zip(cells, weights)}
    space = DiscreteCovariateSpace(
        ("x",), cells, {"pop": tuple(float(p) for p in probabilities.values())}
    )
    return space, probabilities


def _floats(exact):
    return {name: {c: float(v) for c, v in fn.items()} for name, fn in exact.items()}


def random_rational_entanglement(rng: random.Random, max_cells: int = 16):
    """An entanglement model with rational parameters in thirtieths, switch
    probabilities at most 9/10, and rational cell probabilities: (model,
    space, {field: {cell: Fraction}}, {cell: Fraction})."""
    space, probabilities = _rational_space(rng, max_cells)
    exact = {
        "b": {c: Fraction(rng.randint(1, 29), 30) for c in space.cells},
        "m_b": {c: Fraction(rng.randint(0, 27), 30) for c in space.cells},
        "m_g": {c: Fraction(rng.randint(0, 27), 30) for c in space.cells},
    }
    return EntanglementModel(**_floats(exact)), space, exact, probabilities


def random_rational_continuous(rng: random.Random, max_cells: int = 16):
    """A continuous model with a positive baseline and a modulation of
    either sign, in thirds, sevenths or tenths; as
    :func:`random_rational_entanglement`."""
    space, probabilities = _rational_space(rng, max_cells)
    exact = {
        "b": {c: Fraction(rng.randint(1, 200), rng.choice((3, 7, 10))) for c in space.cells},
        "m": {c: Fraction(rng.randint(-100, 100), rng.choice((3, 7, 10))) for c in space.cells},
    }
    return ContinuousOutcomeModel(**_floats(exact)), space, exact, probabilities


def random_entanglement(rng: random.Random, max_cells: int = 16):
    k = rng.randint(2, max_cells)
    cells = tuple((i,) for i in range(k))
    raw = [rng.uniform(0.05, 1.0) for _ in range(k)]
    total = sum(raw)
    space = DiscreteCovariateSpace(
        ("x",), cells, {"pop": tuple(w / total for w in raw)}
    )
    b = {c: rng.uniform(0.05, 0.95) for c in cells}
    m_b = {c: rng.uniform(0.0, 0.9) for c in cells}
    m_g = {c: rng.uniform(0.0, 0.9) for c in cells}
    return EntanglementModel(b, m_b, m_g), space


def random_logit(rng: random.Random, max_cells: int = 16):
    k = rng.randint(2, max_cells)
    cells = tuple((i,) for i in range(k))
    raw = [rng.uniform(0.05, 1.0) for _ in range(k)]
    total = sum(raw)
    space = DiscreteCovariateSpace(
        ("x",), cells, {"pop": tuple(w / total for w in raw)}
    )
    b = {c: rng.uniform(-2.5, 2.5) for c in cells}
    m = {c: rng.uniform(-2.0, 2.0) for c in cells}
    return LogitOutcomeModel(b, m), space


class TestMonotoneRatio:
    def test_harmful_sr_ignores_baseline(self):
        rng = random.Random(5)
        space = DiscreteCovariateSpace(
            ("x",), ((0,), (1,)), {"pop": (0.3, 0.7)}
        )
        values = []
        for _ in range(10):
            b = {c: rng.uniform(0.01, 0.9) for c in space.cells}
            model = EntanglementModel(
                b, {c: 1.0 / 6.0 for c in space.cells}, {c: 0.0 for c in space.cells}
            )
            values.append(monotone_ratio(model, space, "pop", HARMFUL).value)
        for v in values:
            assert v == pytest.approx(5 / 6, rel=1e-12)

    def test_beneficial_rr_with_constant_switch_off(self):
        space = DiscreteCovariateSpace(("x",), ((0,), (1,)), {"pop": (0.5, 0.5)})
        model = EntanglementModel(
            {(0,): 0.3, (1,): 0.6},
            {(0,): 0.0, (1,): 0.0},
            {(0,): 0.25, (1,): 0.25},
        )
        assert monotone_ratio(model, space, "pop", BENEFICIAL).value == pytest.approx(
            0.75, rel=1e-12
        )

    def test_null_switch_off_gives_null_rr(self):
        space = one_cell_space()
        model = EntanglementModel({(0,): 0.4}, {(0,): 0.0}, {(0,): 0.0})
        assert monotone_ratio(model, space, "pop", BENEFICIAL).value == 1.0

    def test_matches_full_enumeration(self):
        rng = random.Random(11)
        for _ in range(50):
            model, space = random_entanglement(rng)
            harmful = EntanglementModel(model.b, model.m_b, {c: 0.0 for c in model.b})
            shortcut = monotone_ratio(harmful, space, "pop", HARMFUL).value
            full = values_by_kind(population_measures(harmful, space, "pop"))
            assert shortcut == pytest.approx(full[MeasureKind.SR].value, abs=1e-12, rel=1e-12)

    def test_direction_violations(self):
        space = one_cell_space()
        model = roulette_model(0.05)  # m_b > 0
        with pytest.raises(DirectionViolated):
            monotone_ratio(model, space, "pop", BENEFICIAL)
        with pytest.raises(DirectionViolated):
            monotone_ratio(model, space, "pop", MonotonicityDirection.NON_MONOTONE)


class TestLocalRatio:
    def test_harmful_local_sr(self):
        assert local_ratio(roulette_model(0.05), (0,), HARMFUL) == pytest.approx(5 / 6)

    def test_beneficial_local_rr(self):
        model = EntanglementModel({(0,): 0.4}, {(0,): 0.0}, {(0,): 0.25})
        assert local_ratio(model, (0,), BENEFICIAL) == 0.75

    def test_constant_within_modulator_subtuple(self):
        # m_b depends on the second coordinate only
        cells = tuple((i, j) for i in range(3) for j in range(2))
        model = EntanglementModel(
            {c: 0.05 + 0.1 * c[0] for c in cells},
            {c: 0.1 + 0.2 * c[1] for c in cells},
            {c: 0.0 for c in cells},
        )
        for j in (0, 1):
            ratios = {local_ratio(model, (i, j), HARMFUL) for i in range(3)}
            assert len(ratios) == 1

    def test_unknown_cell(self):
        with pytest.raises(UnknownCell):
            local_ratio(roulette_model(0.05), (7,), HARMFUL)


class TestIdentifyModulation:
    def test_roulette_switch_on(self):
        assert identify_modulation(0.01, 0.175, HARMFUL) == pytest.approx(
            1 / 6, rel=1e-12
        )

    def test_null_effect(self):
        assert identify_modulation(0.3, 0.3, HARMFUL) == 0.0
        assert identify_modulation(0.3, 0.3, BENEFICIAL) == 0.0

    def test_protective_switch_off(self):
        assert identify_modulation(0.2, 0.12, BENEFICIAL) == pytest.approx(0.4, rel=1e-12)

    def test_non_monotone_not_identifiable(self):
        with pytest.raises(NotIdentifiable):
            identify_modulation(0.2, 0.3, MonotonicityDirection.NON_MONOTONE)

    def test_inequality_guards(self):
        with pytest.raises(DirectionViolated):
            identify_modulation(0.2, 0.3, BENEFICIAL)
        with pytest.raises(DirectionViolated):
            identify_modulation(0.3, 0.2, HARMFUL)

    def test_roundtrips_model_parameters(self):
        rng = random.Random(21)
        for _ in range(50):
            b = rng.uniform(0.05, 0.95)
            m_b = rng.uniform(0.0, 0.95)
            p1 = b + (1 - b) * m_b
            assert identify_modulation(b, p1, HARMFUL) == pytest.approx(m_b, abs=1e-12)
            m_g = rng.uniform(0.0, 0.95)
            p1 = b - b * m_g
            assert identify_modulation(b, p1, BENEFICIAL) == pytest.approx(m_g, abs=1e-12)


class TestLogitModel:
    def test_conditional_log_or_is_modulation(self):
        cells = ((0,), (1,))
        model = LogitOutcomeModel({(0,): -2.0, (1,): 2.0}, {c: 1.3 for c in cells})
        for c in cells:
            assert logit_conditional_logor(model, c) == 1.3

    def test_null_modulation(self):
        model = LogitOutcomeModel({(0,): 0.7}, {(0,): 0.0})
        assert logit_conditional_logor(model, (0,)) == 0.0
        out = values_by_kind(population_measures(model, one_cell_space(), "pop"))
        assert out[MeasureKind.OR].value == pytest.approx(1.0, rel=1e-12)

    def test_single_cell_marginal_equals_conditional(self):
        model = LogitOutcomeModel({(0,): -0.4}, {(0,): 1.3})
        out = values_by_kind(population_measures(model, one_cell_space(), "pop"))
        assert out[MeasureKind.LOG_OR].value == pytest.approx(1.3, rel=1e-12)

    def test_heterogeneous_baseline_attenuates_marginal_log_or(self):
        space = DiscreteCovariateSpace(("x",), ((0,), (1,)), {"pop": (0.5, 0.5)})
        model = LogitOutcomeModel({(0,): -2.0, (1,): 2.0}, {(0,): 1.0, (1,): 1.0})
        out = values_by_kind(population_measures(model, space, "pop"))
        assert 0.0 < out[MeasureKind.LOG_OR].value < 1.0

    def test_matches_pooled_pair_on_random_models(self):
        """A logit model made by ``entanglement_to_logit`` has the
        entanglement model's exact pooled pair and truths, within the
        roundings of the log-odds round trip."""
        rng = random.Random(13)
        for _ in range(100):
            model, space, exact, probabilities = random_rational_entanglement(rng)
            as_logit = entanglement_to_logit(model)
            means = exact_truth.translated_cell_means(model, exact)
            exact_truth.assert_truths_exact(as_logit, space, "pop", means, probabilities)

    def test_entanglement_translation_preserves_means(self):
        rng = random.Random(17)
        for _ in range(25):
            model, space = random_entanglement(rng, max_cells=8)
            as_logit = entanglement_to_logit(model)
            for cell in space.cells:
                for a in (0, 1):
                    assert potential_mean(as_logit, a, cell) == pytest.approx(
                        potential_mean(model, a, cell), rel=1e-12
                    )


class TestStratificationConsistency:
    def test_entanglement_pooling_matches_strata_module(self):
        rng = random.Random(31)
        model, space = random_entanglement(rng, max_cells=8)
        probs = space.probabilities("pop")
        strata = tuple(
            Stratum(
                str(cell),
                p,
                OutcomePair(
                    potential_mean(model, 0, cell),
                    potential_mean(model, 1, cell),
                    OutcomeKind.BINARY,
                ),
            )
            for cell, p in zip(space.cells, probs)
        )
        dist = StratifiedDistribution(strata, OutcomeKind.BINARY)
        pooled = pooled_pair(model, space, "pop")
        via_strata = marginal_pair(dist)
        assert pooled.mu0 == pytest.approx(via_strata.mu0, abs=1e-12)
        assert pooled.mu1 == pytest.approx(via_strata.mu1, abs=1e-12)


class TestModelValidation:
    def test_baseline_must_be_interior(self):
        with pytest.raises(InvariantViolation):
            EntanglementModel({(0,): 0.0}, {(0,): 0.1}, {(0,): 0.0})

    def test_induced_p1_must_be_interior(self):
        with pytest.raises(InvariantViolation):
            EntanglementModel({(0,): 0.5}, {(0,): 1.0}, {(0,): 0.0})

    def test_switch_probabilities_bounded(self):
        with pytest.raises(InvariantViolation):
            EntanglementModel({(0,): 0.5}, {(0,): 1.2}, {(0,): 0.0})

    @pytest.mark.parametrize(
        "m_b, m_g, named",
        [({}, {}, "switch-on"), ({(0,): 0.1}, {}, "switch-off")],
    )
    def test_switch_function_without_a_cell_is_unknown_cell(self, m_b, m_g, named):
        with pytest.raises(UnknownCell, match=named):
            EntanglementModel({(0,): 0.1}, m_b, m_g)

    def test_population_vector_must_normalize(self):
        with pytest.raises(InvariantViolation):
            DiscreteCovariateSpace(("x",), ((0,), (1,)), {"pop": (0.5, 0.6)})

    @pytest.mark.parametrize(
        "probabilities", [(math.nan, 1.0), (1.0, math.nan), (math.inf, -math.inf)]
    )
    def test_population_probabilities_must_be_finite(self, probabilities):
        with pytest.raises(InvariantViolation, match="must lie in"):
            DiscreteCovariateSpace(("x",), ((0,), (1,)), {"pop": probabilities})

    def test_cell_arity_checked(self):
        with pytest.raises(InvariantViolation):
            DiscreteCovariateSpace(("x", "y"), ((0,),), {"pop": (1.0,)})


class TestRefusals:
    def test_duplicate_cells(self):
        with pytest.raises(InvariantViolation, match="cells must be distinct"):
            DiscreteCovariateSpace(("x",), ((0,), (0,)), {"pop": (0.5, 0.5)})

    def test_a_cell_of_the_wrong_arity(self):
        with pytest.raises(InvariantViolation, match="arity differs"):
            DiscreteCovariateSpace(("x",), ((0, 1),), {"pop": (1.0,)})

    def test_an_unknown_population(self):
        space = one_cell_space()
        with pytest.raises(UnknownCell, match="unknown population 'other'"):
            space.probabilities("other")
        with pytest.raises(UnknownCell):
            space.expectation("other", lambda cell: 1.0)

    def test_a_negative_noise_sd(self):
        with pytest.raises(InvariantViolation, match="noise_sd must be >= 0"):
            ContinuousOutcomeModel({(0,): 0.0}, {(0,): 0.0}, noise_sd=-1.0)

    def test_potential_mean_of_arm_two(self):
        with pytest.raises(InvariantViolation, match="treatment arm must be 0 or 1"):
            potential_mean(roulette_model(0.1), 2, (0,))

    @pytest.mark.parametrize("p0", [0.0, 1.0, -0.5, math.nan])
    def test_identify_modulation_with_p0_outside_the_unit_interval(self, p0):
        with pytest.raises(UndefinedMeasure, match="p0 must lie in"):
            identify_modulation(p0, 0.5, BENEFICIAL)

    def test_a_population_of_the_wrong_length(self):
        with pytest.raises(InvariantViolation, match="'pop': 1 probabilities for 2 cells"):
            DiscreteCovariateSpace(("x",), ((0,), (1,)), {"pop": (1.0,)})

    def test_rr_where_the_marginal_control_probability_underflows(self):
        """Each cell's b is the least subnormal, so each p * b rounds to 0
        and E[b] is 0, although every b is positive."""
        cells = ((0,), (1,), (2,))
        space = DiscreteCovariateSpace(("x",), cells, {"pop": (0.4, 0.4, 0.2)})
        zero = {c: 0.0 for c in cells}
        model = EntanglementModel({c: 5e-324 for c in cells}, zero, {c: 0.5 for c in cells})
        with pytest.raises(UndefinedMeasure, match="RR needs a nonzero marginal"):
            monotone_ratio(model, space, "pop", BENEFICIAL)

    def test_sr_where_the_marginal_control_probability_rounds_to_one(self):
        """E[b] = (1 - 2**-53) + 0.9e-16 rounds to 1, although every b is
        below 1."""
        cells = ((0,), (1,))
        space = DiscreteCovariateSpace(("x",), cells, {"pop": (1.0, 1e-16)})
        model = EntanglementModel(
            {(0,): 1.0 - 2.0**-53, (1,): 0.9}, {(0,): 0.0, (1,): 0.5}, {c: 0.0 for c in cells}
        )
        with pytest.raises(UndefinedMeasure, match="SR needs marginal control probability != 1"):
            monotone_ratio(model, space, "pop", HARMFUL)

    def test_logit_of_zero(self):
        with pytest.raises(UndefinedMeasure, match="logit needs p in"):
            logit(0.0)
