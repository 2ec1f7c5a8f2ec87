import collections
import gc
import math
import statistics
import threading

import numpy as np
import pytest

from effectmeasures.errors import InvariantViolation, UndefinedMeasure, UnknownScenario
from effectmeasures.measures import MeasureKind
from effectmeasures.simbench import (
    EstimatorConfig,
    builtin_scenario,
    default_config,
    ground_truth,
    run_scenario,
    write_report_csv,
)


@pytest.fixture(scope="module")
def continuous():
    return builtin_scenario("continuous-linear")


@pytest.fixture(scope="module")
def roulette():
    return builtin_scenario("roulette-heterogeneous")


def roulette_enumeration(rates):
    """Brute-force marginal (mu0, mu1) over the eight covariate cells."""
    mu0, mu1 = [], []
    for l in (0, 1):
        for s in (0, 1):
            for g in (0, 1):
                p = (
                    (rates[0] if l else 1 - rates[0])
                    * (rates[1] if s else 1 - rates[1])
                    * (rates[2] if g else 1 - rates[2])
                )
                b = (0.2 if l else 0.05) * (2.0 if s else 1.0) * (0.5 if g else 1.0)
                m_b = 0.25 if s else (0.1 if g else 1.0 / 6.0)
                mu0.append(p * b)
                mu1.append(p * (b + (1 - b) * m_b))
    return math.fsum(mu0), math.fsum(mu1)


class TestGroundTruth:
    def test_continuous_risk_difference(self, continuous):
        assert ground_truth(continuous, MeasureKind.RD) == pytest.approx(37.3, rel=1e-12)
        assert ground_truth(continuous, MeasureKind.RD, "source") == pytest.approx(
            19.8, rel=1e-12
        )

    def test_continuous_ratio(self, continuous):
        e_b = 0.05 * 15 + 0.04 * 7 + 2 * 10 + 0.3 + 2 * 0.8 - 2 * 4
        assert ground_truth(continuous, MeasureKind.RR) == pytest.approx(
            1 + 37.3 / e_b, rel=1e-12
        )
        assert ground_truth(continuous, MeasureKind.RR) == pytest.approx(
            3.498325519089082, rel=1e-12
        )

    @pytest.mark.parametrize(
        "population, rd, rr, err",
        [
            ("target", "37.3", "3.498325519089082", "2.498325519089082"),
            ("source", "19.8", "2.8165137614678897", "1.8165137614678897"),
        ],
    )
    def test_continuous_truths_are_pinned_bit_for_bit(self, continuous, population, rd, rr, err):
        """The kernel's measures of (E[b], E[b] + E[m]), by repr: a move of
        one ulp in how the truths are formed shows here."""
        pinned = {MeasureKind.RD: rd, MeasureKind.RR: rr, MeasureKind.ERR: err}
        for measure, value in pinned.items():
            assert repr(ground_truth(continuous, measure, population)) == value
        for measure in (MeasureKind.SR, MeasureKind.OR):
            with pytest.raises(UndefinedMeasure):
                ground_truth(continuous, measure, population)

    def test_continuous_rejects_binary_only_measures(self, continuous):
        with pytest.raises(UndefinedMeasure):
            ground_truth(continuous, MeasureKind.SR)

    @pytest.mark.parametrize(
        "population,rates",
        [("target", (0.6, 0.2, 0.5)), ("source", (0.4, 0.8, 0.5))],
    )
    def test_binary_matches_brute_force(self, roulette, population, rates):
        mu0, mu1 = roulette_enumeration(rates)
        assert ground_truth(roulette, MeasureKind.RD, population) == pytest.approx(
            mu1 - mu0, abs=1e-14
        )
        assert ground_truth(roulette, MeasureKind.SR, population) == pytest.approx(
            (1 - mu1) / (1 - mu0), rel=1e-12
        )

    def test_binary_goldens(self, roulette):
        assert ground_truth(roulette, MeasureKind.SR) == pytest.approx(
            0.8466437833714722, rel=1e-12
        )
        assert ground_truth(roulette, MeasureKind.RD) == pytest.approx(
            0.13403333333333334, rel=1e-12
        )
        assert ground_truth(roulette, MeasureKind.RR) == pytest.approx(
            2.0637566137566137, rel=1e-12
        )
        assert ground_truth(roulette, MeasureKind.OR) == pytest.approx(
            2.4375736930806977, rel=1e-12
        )
        assert ground_truth(roulette, MeasureKind.SR, "source") == pytest.approx(
            0.7753572127617929, rel=1e-12
        )
        assert ground_truth(roulette, MeasureKind.RD, "source") == pytest.approx(
            0.19128333333333333, rel=1e-12
        )

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            builtin_scenario("spinning-wheel")


class TestSampling:
    def test_continuous_covariate_moments(self, continuous):
        rng = np.random.default_rng(123)
        n = 40000
        target = continuous.sample_target(rng, n)
        x = np.asarray(target.x)
        se = 4.0 / math.sqrt(n)
        assert x[:, 0].mean() == pytest.approx(15.0, abs=se)
        assert x[:, 1].mean() == pytest.approx(7.0, abs=se)
        assert x[:, 2].mean() == pytest.approx(10.0, abs=se)
        assert x[:, 3].mean() == pytest.approx(0.3, abs=se)
        assert x[:, 4].mean() == pytest.approx(0.8, abs=se)
        assert x[:, 5].mean() == pytest.approx(4.0, abs=se)
        cov = np.cov(x[:, :3].T)
        expected = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.2], [0.5, 0.2, 1.0]])
        assert np.abs(cov - expected).max() < 0.05

    def test_continuous_trial_outcome_moments(self, continuous):
        rng = np.random.default_rng(456)
        n = 40000
        trial = continuous.sample_trial(rng, n)
        y = np.asarray(trial.y)
        a = np.asarray(trial.a)
        rd = y[a == 1].mean() - y[a == 0].mean()
        assert rd == pytest.approx(
            ground_truth(continuous, MeasureKind.RD, "source"), abs=0.2
        )

    def test_binary_rates_and_risks(self, roulette):
        rng = np.random.default_rng(789)
        n = 40000
        trial = roulette.sample_trial(rng, n)
        x = np.asarray(trial.x)
        se = 4.0 / math.sqrt(n)
        for j, rate in enumerate((0.4, 0.8, 0.5)):
            assert x[:, j].mean() == pytest.approx(rate, abs=se)
        y = np.asarray(trial.y)
        a = np.asarray(trial.a)
        mu0, mu1 = roulette_enumeration((0.4, 0.8, 0.5))
        assert y[a == 0].mean() == pytest.approx(mu0, abs=se)
        assert y[a == 1].mean() == pytest.approx(mu1, abs=se)

    def test_binary_target_control_outcomes(self, roulette):
        rng = np.random.default_rng(1011)
        m = 40000
        target = roulette.sample_target(rng, m)
        mu0, _ = roulette_enumeration((0.6, 0.2, 0.5))
        assert sum(target.y0) / m == pytest.approx(mu0, abs=4.0 / math.sqrt(m))


class TestDeterminism:
    def test_identical_runs(self, roulette):
        kwargs = dict(seed=17, reps=3, n=400, m=600)
        a = run_scenario(roulette, **kwargs)
        b = run_scenario(roulette, **kwargs)
        assert [r.estimates for r in a.results] == [r.estimates for r in b.results]
        assert a.summaries == b.summaries

    def test_worker_count_is_invisible(self, continuous):
        serial = run_scenario(continuous, seed=5, reps=4, n=300, m=400, workers=1)
        parallel = run_scenario(continuous, seed=5, reps=4, n=300, m=400, workers=3)
        assert [r.estimates for r in serial.results] == [
            r.estimates for r in parallel.results
        ]

    def test_replications_differ_from_each_other(self, roulette):
        report = run_scenario(roulette, seed=17, reps=3, n=400, m=600)
        values = [r.estimates[("rd", "gformula", "stress")] for r in report.results]
        assert len(set(values)) == len(values)

    def test_csv_byte_identity(self, roulette, tmp_path):
        config = default_config(roulette)
        paths = []
        for tag in ("a", "b"):
            report = run_scenario(roulette, seed=17, reps=3, n=400, m=600, config=config)
            path = tmp_path / f"report_{tag}.csv"
            write_report_csv(report, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestAggregation:
    def test_summary_statistics_match_reference_library(self, roulette):
        config = (EstimatorConfig(MeasureKind.RD, "gformula", ("stress",)),)
        report = run_scenario(roulette, seed=9, reps=7, n=500, m=700, config=config)
        values = [r.estimates[config[0].key] for r in report.results]
        summary = report.summaries[0]
        assert summary.median == pytest.approx(statistics.median(values), rel=1e-12)
        assert summary.mean == pytest.approx(statistics.fmean(values), rel=1e-12)
        assert summary.sd == pytest.approx(statistics.stdev(values), rel=1e-9)
        assert summary.n_ok == 7
        assert summary.n_failed == 0
        assert summary.ground_truth == ground_truth(roulette, MeasureKind.RD)

    def test_estimates_concentrate_near_truth(self, roulette):
        config = (EstimatorConfig(MeasureKind.SR, "local", ("lifestyle", "stress")),)
        report = run_scenario(roulette, seed=2, reps=5, n=4000, m=6000, config=config)
        truth = ground_truth(roulette, MeasureKind.SR)
        assert report.summaries[0].median == pytest.approx(truth, rel=0.05)

    def test_report_csv_layout(self, roulette, tmp_path):
        config = default_config(roulette)
        report = run_scenario(roulette, seed=17, reps=2, n=400, m=600, config=config)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,rep,measure,strategy,covariate_set,estimate,ground_truth"
        assert len(lines) == 1 + 2 * len(config)
        first = lines[1].split(",")
        assert first[0] == "roulette-heterogeneous"
        assert first[1] == "0"
        assert first[4] == "stress"
        # shortest-roundtrip floats survive a parse byte-for-byte
        assert repr(float(first[5])) == first[5]

    def test_failed_estimates_are_counted_and_left_out(self, roulette, tmp_path):
        """At tiny sizes some estimates of one configuration fail and others
        succeed: each failure is counted, written as NA, and left out of
        the summary statistics."""
        config = default_config(roulette)
        report = run_scenario(roulette, seed=0, reps=4, n=12, m=30, config=config)
        assert any(0 < s.n_failed < report.reps for s in report.summaries)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        written = {
            (int(row[1]), *row[2:5]): row[5]
            for row in (line.split(",") for line in path.read_text().splitlines()[1:])
        }
        for summary in report.summaries:
            key = summary.config.key
            assert summary.n_ok + summary.n_failed == report.reps
            for result in report.results:
                failed = key in result.failures
                assert failed is (key not in result.estimates)
                assert failed is (written[(result.rep_index, *key)] == "NA")
            values = [r.estimates[key] for r in report.results if key in r.estimates]
            assert len(values) == summary.n_ok
            if values:
                assert summary.median == pytest.approx(statistics.median(values), rel=1e-12)
            else:
                assert math.isnan(summary.median)


class TestConfigValidation:
    def test_unknown_covariate(self, roulette):
        bad = (EstimatorConfig(MeasureKind.RD, "gformula", ("age",)),)
        with pytest.raises(InvariantViolation):
            run_scenario(roulette, seed=0, reps=1, n=100, m=100, config=bad)

    def test_unknown_strategy(self, roulette):
        bad = (EstimatorConfig(MeasureKind.RD, "matching", ("stress",)),)
        with pytest.raises(InvariantViolation):
            run_scenario(roulette, seed=0, reps=1, n=100, m=100, config=bad)

    def test_ipsw_refused_on_continuous_covariates(self, continuous):
        bad = (EstimatorConfig(MeasureKind.RD, "ipsw", ("X1", "X2")),)
        with pytest.raises(InvariantViolation):
            run_scenario(continuous, seed=0, reps=1, n=100, m=100, config=bad)

    def test_reps_must_be_positive(self, roulette):
        with pytest.raises(InvariantViolation):
            run_scenario(roulette, seed=0, reps=0, n=100, m=100)

    def test_default_config_covers_the_comparison(self, continuous, roulette):
        keys = {c.key for c in default_config(continuous)}
        assert ("rd", "gformula", "X1+X2") in keys
        assert ("rr", "gformula", "X1+X2+X3+X4") in keys
        keys = {c.key for c in default_config(roulette)}
        assert ("sr", "local", "stress") in keys
        assert ("rd", "ipsw", "stress") in keys


class TestPairMemoLifetime:
    def test_run_one_frees_its_samples_and_memo(self, monkeypatch):
        """A replication's samples, and the memo its estimators fill, die
        when the replication returns: no cache outlives them."""
        from effectmeasures import simbench, transport

        roulette = builtin_scenario("roulette-heterogeneous")
        filled = []
        gformula = simbench.gformula_conditional

        def recording(trial, target, *args):
            estimate = gformula(trial, target, *args)
            filled.append(len(trial._memo[1]))
            return estimate

        monkeypatch.setattr(simbench, "gformula_conditional", recording)

        def live(kind):
            return sum(isinstance(o, kind) for o in gc.get_objects())

        kinds = (transport.TrialSample, transport.TargetSample, transport._Cells)
        before = [live(kind) for kind in kinds]
        functions = simbench._estimator_functions(roulette, default_config(roulette))
        result = simbench._run_one(roulette, 3, 0, 400, 600, default_config(roulette), functions)
        assert len(result.estimates) == len(default_config(roulette))
        assert filled and min(filled) > 0
        assert [live(kind) for kind in kinds] == before


def test_a_replication_codes_each_column_once(monkeypatch):
    """Each cell table codes its own columns: the roulette configuration's
    two tables, ``stress`` and ``lifestyle,stress``, make three codings
    for all seven estimates, one per column of each covariate set."""
    from effectmeasures import simbench, transport

    roulette = builtin_scenario("roulette-heterogeneous")
    coded = []
    code_column = transport._code_column
    monkeypatch.setattr(
        transport, "_code_column", lambda *args: coded.append(args) or code_column(*args)
    )
    functions = simbench._estimator_functions(roulette, default_config(roulette))
    result = simbench._run_one(roulette, 3, 0, 400, 600, default_config(roulette), functions)
    assert len(result.estimates) == len(default_config(roulette))
    assert len(coded) == 3


def test_a_pair_memo_holds_cell_tables_and_gformula_means_only():
    """After the seven roulette estimates on one pair, the memo holds the
    two cell tables and the two g-formula mean pairs, and nothing else."""
    from effectmeasures import simbench

    roulette = builtin_scenario("roulette-heterogeneous")
    rng = simbench._rep_rng(3, 0)
    trial, target = roulette.sample_trial(rng, 400), roulette.sample_target(rng, 600)
    for entry in default_config(roulette):
        simbench.estimator(entry.strategy, roulette.learner)(
            trial, target, entry.measure, entry.covariates, roulette.learner
        )
    assert trial._memo[0] is target
    kinds = collections.Counter(key[0] for key in trial._memo[1])
    assert kinds == {"_Cells": 2, "_gformula_means": 2}


def test_a_replication_builds_one_cell_table_per_covariate_set(monkeypatch):
    """The seven roulette estimates read two cell tables, ``stress`` and
    ``lifestyle,stress``, each built once."""
    from effectmeasures import simbench, transport

    roulette = builtin_scenario("roulette-heterogeneous")
    built = []
    init = transport._Cells.__init__

    def recording(self, trial, target, covariates):
        built.append(tuple(covariates))
        init(self, trial, target, covariates)

    monkeypatch.setattr(transport._Cells, "__init__", recording)
    functions = simbench._estimator_functions(roulette, default_config(roulette))
    result = simbench._run_one(roulette, 3, 0, 400, 600, default_config(roulette), functions)
    assert len(result.estimates) == len(default_config(roulette)) == 7
    assert sorted(built) == [("lifestyle", "stress"), ("stress",)]


def test_a_study_reads_its_truths_once(monkeypatch):
    """The roulette study's seven configurations take their truths from one
    evaluation of the population's measures, with the values unchanged."""
    from effectmeasures import simbench

    roulette = builtin_scenario("roulette-heterogeneous")
    calls = []
    measures = simbench.population_measures_binary
    monkeypatch.setattr(
        simbench, "population_measures_binary", lambda *args: calls.append(args) or measures(*args)
    )
    report = run_scenario(roulette, seed=17, reps=2, n=400, m=600)
    assert len(calls) == 1
    sr, rd, rr, odds = (
        "0.8466437833714722", "0.13403333333333334", "2.0637566137566137", "2.4375736930806977"
    )
    assert [repr(s.ground_truth) for s in report.summaries] == [sr, rd, rd, sr, rd, rr, odds]


def test_a_configuration_without_a_truth_is_refused(continuous):
    config = (EstimatorConfig(MeasureKind.SR, "gformula", ("X1",)),)
    with pytest.raises(UndefinedMeasure, match="^sr has no ground truth for this scenario$"):
        run_scenario(continuous, seed=1, reps=1, n=50, m=50, config=config)


class TestThreadPool:
    """A study runs on at most min(workers, reps, usable CPUs) threads:
    the calling thread, and one started thread for each further share.
    Only the test of an error starts a real thread; ``test_pool_size``
    counts the starts on ``recorded_threads``' stub."""

    @pytest.mark.parametrize(
        "cpus, workers, reps, sizes",
        [
            (64, 1_000_000, 3, [3]),
            (2, 1_000_000, 3, [2]),
            (64, 2, 3, [2]),
            (1, 8, 3, []),
            (64, 8, 1, []),
            (64, 1, 3, []),
        ],
    )
    def test_pool_size(self, monkeypatch, recorded_threads, roulette, cpus, workers, reps, sizes):
        """``sizes`` lists the study's thread count where it is above one."""
        from effectmeasures import simbench

        monkeypatch.setattr(simbench, "_usable_cpus", lambda: cpus)
        kwargs = dict(seed=17, reps=reps, n=400, m=600)
        report = run_scenario(roulette, workers=workers, **kwargs)
        # the calling thread runs share 0, and one started thread each other share
        assert [t.args for t in recorded_threads] == [(k,) for k in range(1, max(sizes, default=1))]
        assert report == run_scenario(roulette, **kwargs)

    def test_an_error_in_a_started_thread_reaches_the_caller(self, monkeypatch, roulette):
        from effectmeasures import simbench

        run_one = simbench._run_one
        ran_in = {}

        def failing(scenario, seed, rep_index, *rest):
            ran_in[rep_index] = threading.current_thread()
            if rep_index == 1:
                raise RuntimeError("replication 1")
            return run_one(scenario, seed, rep_index, *rest)

        monkeypatch.setattr(simbench, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(simbench, "_run_one", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^replication 1$"):
            run_scenario(roulette, seed=17, reps=3, n=400, m=600, workers=2)
        assert sorted(ran_in) == [0, 1, 2]
        assert ran_in[1] is not threading.main_thread()
        assert threading.active_count() == before

    def test_more_threads_than_cpus_switching_often_give_the_sequential_report(
        self, monkeypatch, roulette
    ):
        """Eight threads write their shares into one result list while the
        interpreter switches threads every microsecond: no result is lost
        or misplaced."""
        import sys

        from effectmeasures import simbench

        monkeypatch.setattr(simbench, "_usable_cpus", lambda: 8)
        kwargs = dict(seed=17, reps=24, n=200, m=200)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_scenario(roulette, workers=8, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert [r.rep_index for r in report.results] == list(range(24))
        assert report == run_scenario(roulette, **kwargs)

    def test_usable_cpus(self, monkeypatch):
        import os

        from effectmeasures import simbench

        if hasattr(os, "sched_getaffinity"):
            assert simbench._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert simbench._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simbench._usable_cpus() == 1


@pytest.mark.parametrize(
    "name, dtypes",
    [
        ("roulette-heterogeneous", [np.int8] * 3),
        ("continuous-linear", [np.float64] * 6),
    ],
)
def test_a_study_sampler_types_each_column_once(monkeypatch, name, dtypes):
    """Each sampler hands the sample one column per covariate, which the
    sample types once: three int8 roulette columns, six float64 continuous
    ones (the Bernoulli X4 and X5 among them), so the continuous rows stay
    float64."""
    from effectmeasures import simbench, transport

    scenario = builtin_scenario(name)
    lengths, column = [], transport._column
    monkeypatch.setattr(
        transport, "_column", lambda values: lengths.append(len(values)) or column(values)
    )
    rng = simbench._rep_rng(5, 0)
    trial, target = scenario.sample_trial(rng, 300), scenario.sample_target(rng, 200)
    width = len(scenario.covariates)
    assert lengths == [300] * width + [200] * width
    for sample in (trial, target):
        assert [c.dtype for c in sample.columns] == dtypes
        assert sample.x.dtype == (np.int64 if dtypes[0] == np.int8 else np.float64)
    binary = [c for c in target.columns if set(c.tolist()) <= {0, 1}]
    assert len(binary) == (3 if name == "roulette-heterogeneous" else 2)


def test_a_study_resolves_each_estimator_once(monkeypatch, roulette):
    """The seven roulette configurations are looked up once per study, not
    once per replication, and the report is unchanged."""
    from effectmeasures import simbench

    kwargs = dict(seed=17, reps=3, n=400, m=600)
    want = run_scenario(roulette, **kwargs)
    looked_up, lookup = [], simbench.estimator
    monkeypatch.setattr(
        simbench, "estimator", lambda *args: looked_up.append(args) or lookup(*args)
    )
    assert run_scenario(roulette, **kwargs) == want
    assert looked_up == [(e.strategy, roulette.learner) for e in default_config(roulette)]
