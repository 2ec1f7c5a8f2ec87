import gc
import math
import statistics

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
            write_report_csv(report, config, path)
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
        write_report_csv(report, config, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,rep,measure,strategy,covariate_set,estimate,ground_truth"
        assert len(lines) == 1 + 2 * len(config)
        first = lines[1].split(",")
        assert first[0] == "roulette-heterogeneous"
        assert first[1] == "0"
        assert first[4] == "stress"
        # shortest-roundtrip floats survive a parse byte-for-byte
        assert repr(float(first[5])) == first[5]


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
        result = simbench._run_one(roulette, 3, 0, 400, 600, default_config(roulette))
        assert len(result.estimates) == len(default_config(roulette))
        assert filled and min(filled) > 0
        assert [live(kind) for kind in kinds] == before


def test_a_replication_codes_each_column_once(monkeypatch):
    """The roulette configuration uses ``stress`` and ``lifestyle,stress``:
    two columns, each coded once for all seven estimates."""
    from effectmeasures import simbench, transport

    roulette = builtin_scenario("roulette-heterogeneous")
    coded = []
    code_column = transport._code_column
    monkeypatch.setattr(
        transport, "_code_column", lambda *args: coded.append(args) or code_column(*args)
    )
    result = simbench._run_one(roulette, 3, 0, 400, 600, default_config(roulette))
    assert len(result.estimates) == len(default_config(roulette))
    assert len(coded) == 2


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
    result = simbench._run_one(roulette, 3, 0, 400, 600, default_config(roulette))
    assert len(result.estimates) == len(default_config(roulette)) == 7
    assert sorted(built) == [("lifestyle", "stress"), ("stress",)]
