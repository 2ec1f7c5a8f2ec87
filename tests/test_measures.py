import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from effectmeasures.errors import InvariantViolation, UndefinedMeasure
from effectmeasures.measures import (
    UNDEFINED_REASONS,
    MeasureKind,
    MeasureValue,
    OutcomeKind,
    OutcomePair,
    UndefinedAnnotation,
    all_measures,
    compute_measure,
    measure_table,
    measure_values,
    pair_arrays,
    rr_feasible_baseline,
    swap_labels,
)
from measure_reference import reference_measure


def binary(mu0, mu1):
    return OutcomePair(mu0, mu1, OutcomeKind.BINARY)


def continuous(mu0, mu1):
    return OutcomePair(mu0, mu1, OutcomeKind.CONTINUOUS)


def value(measure, pair):
    return compute_measure(measure, pair).value


interior = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)
interior_pairs = st.builds(binary, interior, interior)


class TestClosedForms:
    def test_continuous_difference_and_ratio(self):
        pair = continuous(100.0, 200.0)
        assert value(MeasureKind.RD, pair) == 100.0
        assert value(MeasureKind.RR, pair) == 2.0
        assert value(MeasureKind.ERR, pair) == 1.0

    def test_high_risk_stratum(self):
        pair = binary(0.2, 0.12)
        assert value(MeasureKind.RD, pair) == pytest.approx(-0.08)
        assert value(MeasureKind.RR, pair) == pytest.approx(0.6)
        assert value(MeasureKind.SR, pair) == pytest.approx(1.1)
        assert value(MeasureKind.OR, pair) == pytest.approx(0.545, abs=5e-4)
        assert value(MeasureKind.OR, pair) == pytest.approx(6.0 / 11.0, rel=1e-12)

    def test_low_risk_stratum_nnt(self):
        nnt = value(MeasureKind.NNT, binary(0.015, 0.009))
        assert nnt == pytest.approx(-1.0 / 0.006, rel=1e-12)
        assert abs(nnt) == pytest.approx(167, abs=1)

    def test_null_effect_is_reference(self):
        for p in (0.1, 0.5, 0.9):
            pair = binary(p, p)
            for measure in (MeasureKind.RR, MeasureKind.SR, MeasureKind.OR):
                mv = compute_measure(measure, pair)
                assert mv.value == 1.0 == mv.null_reference
            assert value(MeasureKind.RD, pair) == 0.0
            assert value(MeasureKind.LOG_OR, pair) == 0.0

    def test_roulette_pair(self):
        pair = binary(0.01, 0.175)
        assert value(MeasureKind.RR, pair) == pytest.approx(17.5, rel=1e-12)
        assert value(MeasureKind.RD, pair) == pytest.approx(0.165, rel=1e-12)
        assert value(MeasureKind.SR, pair) == pytest.approx(5.0 / 6.0, rel=1e-12)


class TestDomainErrors:
    def test_binary_only_measures_reject_continuous(self):
        pair = continuous(1.0, 2.0)
        for measure in (
            MeasureKind.SR,
            MeasureKind.RS,
            MeasureKind.NNT,
            MeasureKind.OR,
            MeasureKind.LOG_OR,
        ):
            with pytest.raises(UndefinedMeasure):
                compute_measure(measure, pair)

    @pytest.mark.parametrize(
        "measure,pair_args",
        [
            (MeasureKind.RR, (0.0, 0.5)),
            (MeasureKind.ERR, (0.0, 0.5)),
            (MeasureKind.SR, (1.0, 0.5)),
            (MeasureKind.RS, (1.0, 0.5)),
            (MeasureKind.NNT, (0.3, 0.3)),
            (MeasureKind.OR, (0.0, 0.5)),
            (MeasureKind.OR, (0.5, 1.0)),
            (MeasureKind.LOG_OR, (0.5, 0.0)),
        ],
    )
    def test_singular_inputs_raise(self, measure, pair_args):
        with pytest.raises(UndefinedMeasure):
            compute_measure(measure, binary(*pair_args))

    def test_continuous_rr_needs_nonzero_control(self):
        with pytest.raises(UndefinedMeasure):
            compute_measure(MeasureKind.RR, continuous(0.0, 3.0))

    def test_pair_validation(self):
        with pytest.raises(InvariantViolation):
            binary(-0.1, 0.5)
        with pytest.raises(InvariantViolation):
            binary(0.5, 1.2)
        with pytest.raises(InvariantViolation):
            continuous(math.nan, 0.0)
        with pytest.raises(InvariantViolation):
            OutcomePair(0.8, 0.88, OutcomeKind.BINARY, nonevent=(0.2, 0.3))
        with pytest.raises(InvariantViolation):
            OutcomePair(0.8, 0.88, OutcomeKind.CONTINUOUS, nonevent=(0.2, 0.12))


class TestAllMeasures:
    def test_pooled_protective_pair(self):
        # weighted pooling of (0.2, 0.12) at 53% with (0.015, 0.009)
        pair = binary(0.53 * 0.2 + 0.47 * 0.015, 0.53 * 0.12 + 0.47 * 0.009)
        by_kind = {entry.measure: entry for entry in all_measures(pair)}
        assert by_kind[MeasureKind.RD].value == pytest.approx(-0.0452, abs=5e-4)
        assert by_kind[MeasureKind.RR].value == pytest.approx(0.6, abs=5e-4)
        assert by_kind[MeasureKind.SR].value == pytest.approx(1.051, abs=5e-3)
        assert abs(by_kind[MeasureKind.NNT].value) == pytest.approx(22, abs=1)
        assert by_kind[MeasureKind.OR].value == pytest.approx(0.571, abs=5e-3)

    def test_boundary_pair_is_annotated_not_omitted(self):
        entries = all_measures(binary(0.0, 0.1))
        by_kind = {entry.measure: entry for entry in entries}
        assert len(entries) == len(MeasureKind)
        for measure in (MeasureKind.RR, MeasureKind.ERR, MeasureKind.OR, MeasureKind.LOG_OR):
            assert isinstance(by_kind[measure], UndefinedAnnotation)
        assert by_kind[MeasureKind.RD].value == pytest.approx(0.1)
        assert by_kind[MeasureKind.SR].value == pytest.approx(0.9)

    def test_null_pair(self):
        by_kind = {entry.measure: entry for entry in all_measures(binary(0.5, 0.5))}
        assert by_kind[MeasureKind.RD].value == 0.0
        assert by_kind[MeasureKind.RR].value == 1.0
        assert by_kind[MeasureKind.OR].value == 1.0
        assert isinstance(by_kind[MeasureKind.NNT], UndefinedAnnotation)

    def test_continuous_pair_lists_three_measures(self):
        entries = all_measures(continuous(10.0, 12.0))
        assert {e.measure for e in entries} == {MeasureKind.RD, MeasureKind.RR, MeasureKind.ERR}


class TestLabelSwap:
    def test_swap_values(self):
        assert swap_labels(binary(0.2, 0.12)) == binary(0.8, 0.88)
        assert swap_labels(binary(0.5, 0.5)) == binary(0.5, 0.5)

    def test_swap_inverts_odds_ratio(self):
        pair = binary(0.2, 0.12)
        assert value(MeasureKind.OR, swap_labels(pair)) == pytest.approx(
            1.0 / value(MeasureKind.OR, pair), rel=1e-12
        )
        assert value(MeasureKind.OR, swap_labels(pair)) == pytest.approx(1.833, abs=5e-4)

    def test_swap_exchanges_rr_and_sr(self):
        pair = binary(0.015, 0.009)
        swapped_rr = value(MeasureKind.RR, swap_labels(pair))
        assert swapped_rr == pytest.approx(value(MeasureKind.SR, pair), rel=1e-12)
        assert swapped_rr == pytest.approx(1.0061, abs=5e-4)

    def test_double_swap_restores_the_pair(self):
        pair = binary(1.0000000000000002e-06, 1e-06)
        back = swap_labels(swap_labels(pair))
        assert (back.mu0, back.mu1, back.nonevent) == (pair.mu0, pair.mu1, None)
        assert value(MeasureKind.NNT, back) == value(MeasureKind.NNT, pair)

    def test_swap_requires_binary(self):
        with pytest.raises(UndefinedMeasure):
            swap_labels(continuous(0.2, 0.12))

    @settings(max_examples=300, deadline=None)
    @given(interior_pairs)
    # 1 - mu rounds both to 0.999999: NNT defined on the pair, not its swap
    @example(binary(1.0000000000000002e-06, 1e-06))
    # 1 - mu keeps too few digits of the difference for NNT at rel 1e-9
    @example(binary(0.2, 0.20000000000100002))
    def test_swap_transform_table(self, pair):
        image = swap_labels(pair)
        assert value(MeasureKind.RD, image) == pytest.approx(
            -value(MeasureKind.RD, pair), abs=1e-12
        )
        assume(pair.mu0 != pair.mu1)
        assert value(MeasureKind.NNT, image) == pytest.approx(
            -value(MeasureKind.NNT, pair), rel=1e-9
        )
        # 1 - (1 - mu) costs a few digits near the boundary
        assert value(MeasureKind.RR, image) == pytest.approx(
            value(MeasureKind.SR, pair), rel=1e-9
        )
        assert value(MeasureKind.SR, image) == pytest.approx(
            value(MeasureKind.RR, pair), rel=1e-9
        )
        assert value(MeasureKind.LOG_OR, image) == pytest.approx(
            -value(MeasureKind.LOG_OR, pair), abs=1e-9
        )


class TestIdentities:
    @settings(max_examples=300, deadline=None)
    @given(interior_pairs)
    def test_or_is_rr_over_sr(self, pair):
        odds_ratio = value(MeasureKind.OR, pair)
        rr = value(MeasureKind.RR, pair)
        sr = value(MeasureKind.SR, pair)
        assert odds_ratio == pytest.approx(rr / sr, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(interior_pairs)
    def test_err_and_rs_are_offsets(self, pair):
        assert value(MeasureKind.ERR, pair) == value(MeasureKind.RR, pair) - 1.0
        assert value(MeasureKind.RS, pair) == 1.0 - value(MeasureKind.SR, pair)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=1e-3),
        st.floats(min_value=1e-6, max_value=1e-3),
    )
    def test_low_prevalence_or_approximates_rr(self, mu0, mu1):
        pair = binary(mu0, mu1)
        ratio = value(MeasureKind.OR, pair) / value(MeasureKind.RR, pair)
        assert abs(ratio - 1.0) <= 3e-3

    @settings(max_examples=300, deadline=None)
    @given(interior_pairs)
    def test_values_are_finite_and_ratios_positive(self, pair):
        for entry in all_measures(pair):
            if isinstance(entry, MeasureValue):
                assert math.isfinite(entry.value)
                if entry.measure in (MeasureKind.RR, MeasureKind.SR, MeasureKind.OR):
                    assert entry.value > 0.0


def _expected(measure, pair):
    """The reference's value or reason for ``measure`` on ``pair``."""
    try:
        return reference_measure(measure, pair), None
    except UndefinedMeasure as exc:
        return None, exc.reason
    except ValueError:
        # the reference crashes on math.log(0.0) when OR underflows to 0;
        # the kernel reports that log-OR as not finite instead
        assert measure is MeasureKind.LOG_OR
        return None, f"log_or is not finite for {pair}"


_EDGES = [0.0, 1.0, 0.5, 5e-324, 1e-300, 1e-20, 1.0 - 2.0**-53, 0.9, 0.3]
_probability = st.one_of(st.sampled_from(_EDGES), st.floats(0.0, 1.0))
_real = st.one_of(
    st.sampled_from(_EDGES + [-0.0, -2.5, 1e-310, 1e10, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _pairs(draw):
    """1-30 pairs of one kind, with boundary values, null effects and, for
    binary pairs, relabelled pairs that keep their exact side."""
    kind = draw(st.sampled_from(OutcomeKind))
    value = _probability if kind is OutcomeKind.BINARY else _real
    pairs = []
    for _ in range(draw(st.integers(1, 30))):
        mu0 = draw(value)
        mu1 = mu0 if draw(st.booleans()) and draw(st.booleans()) else draw(value)
        pair = OutcomePair(mu0, mu1, kind)
        if kind is OutcomeKind.BINARY and draw(st.booleans()):
            pair = swap_labels(pair)
        pairs.append(pair)
    return pairs


class TestKernel:
    """``measure_table`` and its views against the scalar reference."""

    @settings(max_examples=200, deadline=None)
    @given(_pairs())
    @example([binary(0.9, 5e-324), swap_labels(binary(5e-324, 0.5))])
    @example([continuous(0.0, 2.5), continuous(1e-310, 1e10), continuous(-1e308, 1e308)])
    def test_matches_the_reference_bit_for_bit(self, pairs):
        kind = pairs[0].kind
        exact = [p for p in pairs if p.nonevent is not None]
        rounded = [p for p in pairs if p.nonevent is None]
        for group, nonevent in ((rounded, None), (exact, [p.nonevent for p in exact])):
            if not group:
                continue
            table = measure_table(
                [p.mu0 for p in group],
                [p.mu1 for p in group],
                kind,
                None if nonevent is None else np.transpose(nonevent),
            )
            for measure, (values, undefined) in table.items():
                for pair, v, code in zip(group, values.tolist(), undefined.tolist()):
                    expected, reason = _expected(measure, pair)
                    if reason is None:
                        assert code == 0 and repr(v) == repr(expected)
                    else:
                        text = UNDEFINED_REASONS[code].format(measure=measure.value, pair=pair)
                        assert math.isnan(v) and text == reason
        for measure in MeasureKind:
            expected = [_expected(measure, p) for p in pairs]
            first_reason = next((r for _, r in expected if r is not None), None)
            if first_reason is None:
                got = measure_values(measure, *pair_arrays(pairs)).tolist()
                assert list(map(repr, got)) == [repr(v) for v, _ in expected]
            else:
                with pytest.raises(UndefinedMeasure) as err:
                    measure_values(measure, *pair_arrays(pairs))
                assert err.value.reason == first_reason
        for pair in pairs:
            for entry in all_measures(pair):
                expected, reason = _expected(entry.measure, pair)
                if reason is None:
                    assert type(entry.value) is float and repr(entry.value) == repr(expected)
                else:
                    assert entry.reason == reason

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(OutcomeKind),
        st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=5),
        # in the kernel's arrays (nan, nan) marks a pair without an exact side
        st.none()
        | st.tuples(st.floats(), st.floats()).filter(lambda t: not all(map(math.isnan, t))),
    )
    @example(OutcomeKind.BINARY, [(0.5, 0.5)], (math.nan, 0.5))
    @example(OutcomeKind.BINARY, [(0.8, 0.88), (2.0, 0.5)], (0.2, 0.12))
    def test_rejects_what_outcome_pair_rejects(self, kind, pairs, nonevent):
        """The first invalid pair raises OutcomePair's own error."""
        error = None
        for mu0, mu1 in pairs:
            try:
                OutcomePair(mu0, mu1, kind, nonevent)
            except InvariantViolation as exc:
                error = str(exc)
                break
        mu0, mu1 = np.transpose(pairs)
        sides = None if nonevent is None else np.transpose([nonevent] * len(pairs))
        if error is None:
            measure_table(mu0, mu1, kind, sides)
        else:
            with pytest.raises(InvariantViolation) as err:
                measure_table(mu0, mu1, kind, sides)
            assert str(err.value) == error

    def test_log_of_an_underflowed_odds_ratio_is_undefined(self):
        pair = binary(0.9, 5e-324)
        assert value(MeasureKind.OR, pair) == 0.0
        with pytest.raises(UndefinedMeasure, match="log_or is not finite"):
            compute_measure(MeasureKind.LOG_OR, pair)


class TestFeasibleBaseline:
    def test_golden_bounds(self):
        assert rr_feasible_baseline(2.0).max_baseline == 0.5
        assert rr_feasible_baseline(4.0).max_baseline == 0.25
        assert rr_feasible_baseline(1.0 + 1e-9).max_baseline == pytest.approx(1.0)

    def test_switch_probability_saturates_at_cap(self):
        bound = rr_feasible_baseline(2.0)
        assert bound.switch_probability(0.5) == pytest.approx(1.0, rel=1e-12)
        assert bound.switch_probability(0.2) == pytest.approx(0.25, rel=1e-12)

    def test_rejects_feasible_everywhere_regime(self):
        for rr in (1.0, 0.7, 0.0):
            with pytest.raises(UndefinedMeasure):
                rr_feasible_baseline(rr)

    def test_rejects_baseline_beyond_cap(self):
        with pytest.raises(UndefinedMeasure):
            rr_feasible_baseline(2.0).switch_probability(0.6)
