import ast
import inspect
import json

import pytest

from conftest import FIXTURES
from effectmeasures import cli, dataio
from effectmeasures.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_SEMANTICS,
    EXIT_SUPPORT,
    EXIT_VALIDATION,
    build_parser,
    main,
)
from effectmeasures.measures import MeasureKind
from effectmeasures.simbench import estimators
from effectmeasures.transport import Learner, Strategy, TargetSample, TrialSample

PROTECTIVE = str(FIXTURES / "protective_summary.csv")
PARADOX = str(FIXTURES / "paradox_counts.csv")
ROLES_CONT = str(FIXTURES / "roles_continuous.json")
ROLES_BIN = str(FIXTURES / "roles_binary.json")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasures:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, ["measures", "--mu0", "0.2", "--mu1", "0.12"])
        assert code == EXIT_OK
        lines = dict(line.split(None, 1) for line in out.splitlines())
        assert lines["rr"] == "0.600"
        assert lines["sr"] == "1.100"
        assert lines["rd"] == "-0.080"
        assert lines["nnt"] == "12.500 (benefit)"

    def test_harmful_pair_tagged_as_harm(self, capsys):
        code, out, _ = run(capsys, ["measures", "--mu0", "0.01", "--mu1", "0.175"])
        assert code == EXIT_OK
        assert "(harm)" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, ["measures", "--mu0", "0.015", "--mu1", "0.009", "--json"]
        )
        assert code == EXIT_OK
        by_measure = {rec["measure"]: rec for rec in json.loads(out)}
        assert by_measure["rr"]["value"] == pytest.approx(0.6)
        assert by_measure["nnt"]["value"] == pytest.approx(-1 / 0.006)
        assert by_measure["nnt"]["magnitude"] == pytest.approx(1 / 0.006)
        assert by_measure["nnt"]["tag"] == "benefit"

    def test_boundary_pair_annotated_with_exit_zero(self, capsys):
        code, out, _ = run(capsys, ["measures", "--mu0", "0", "--mu1", "0.1", "--json"])
        assert code == EXIT_OK
        by_measure = {rec["measure"]: rec for rec in json.loads(out)}
        assert "undefined" in by_measure["or"]
        assert by_measure["rd"]["value"] == pytest.approx(0.1)

    def test_swap_labels(self, capsys):
        code, out, _ = run(
            capsys,
            ["measures", "--mu0", "0.2", "--mu1", "0.12", "--swap-labels", "--json"],
        )
        assert code == EXIT_OK
        by_measure = {rec["measure"]: rec for rec in json.loads(out)}
        assert by_measure["rr"]["value"] == pytest.approx(1.1)
        assert by_measure["or"]["value"] == pytest.approx(11 / 6)

    def test_continuous_kind(self, capsys):
        code, out, _ = run(
            capsys,
            ["measures", "--mu0", "100", "--mu1", "200", "--kind", "continuous", "--json"],
        )
        assert code == EXIT_OK
        assert {rec["measure"] for rec in json.loads(out)} == {"rd", "rr", "err"}

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ["--mu0", "0.3", "--mu1", "0.3"],
                '[{"measure": "rd", "value": 0.0}, {"measure": "rr", "value": 1.0}, '
                '{"measure": "sr", "value": 1.0}, {"measure": "err", "value": 0.0}, '
                '{"measure": "rs", "value": 0.0}, {"measure": "nnt", "undefined": '
                '"NNT diverges at a null effect (mu1 == mu0)"}, {"measure": "or", '
                '"value": 1.0}, {"measure": "log_or", "value": 0.0}]',
            ),
            (
                ["--mu0", "0", "--mu1", "1"],
                '[{"measure": "rd", "value": 1.0}, {"measure": "rr", "undefined": '
                '"RR requires mu0 != 0"}, {"measure": "sr", "value": 0.0}, {"measure": '
                '"err", "undefined": "RR requires mu0 != 0"}, {"measure": "rs", "value": '
                '1.0}, {"measure": "nnt", "value": 1.0, "magnitude": 1.0, "tag": "harm"}, '
                '{"measure": "or", "undefined": "OR requires both probabilities strictly '
                'inside (0, 1)"}, {"measure": "log_or", "undefined": "OR requires both '
                'probabilities strictly inside (0, 1)"}]',
            ),
            (
                ["--mu0", "0", "--mu1", "2.5", "--kind", "continuous"],
                '[{"measure": "rd", "value": 2.5}, {"measure": "rr", "undefined": '
                '"RR requires mu0 != 0"}, {"measure": "err", "undefined": '
                '"RR requires mu0 != 0"}]',
            ),
            (
                ["--mu0", "0.2", "--mu1", "0.12", "--swap-labels"],
                '[{"measure": "rd", "value": 0.08000000000000002}, {"measure": "rr", '
                '"value": 1.0999999999999999}, {"measure": "sr", "value": 0.6}, '
                '{"measure": "err", "value": 0.09999999999999987}, {"measure": "rs", '
                '"value": 0.4}, {"measure": "nnt", "value": 12.499999999999998, '
                '"magnitude": 12.499999999999998, "tag": "harm"}, {"measure": "or", '
                '"value": 1.8333333333333335}, {"measure": "log_or", "value": '
                '0.6061358035703156}]',
            ),
            (  # OR underflows to 0: log-OR is annotated, not a crash
                ["--mu0", "0.9", "--mu1", "5e-324"],
                '[{"measure": "rd", "value": -0.9}, {"measure": "rr", "value": 5e-324}, '
                '{"measure": "sr", "value": 10.000000000000002}, {"measure": "err", '
                '"value": -1.0}, {"measure": "rs", "value": -9.000000000000002}, '
                '{"measure": "nnt", "value": -1.1111111111111112, "magnitude": '
                '1.1111111111111112, "tag": "benefit"}, {"measure": "or", "value": 0.0}, '
                '{"measure": "log_or", "undefined": "log_or is not finite for '
                "OutcomePair(mu0=0.9, mu1=5e-324, kind=<OutcomeKind.BINARY: 'binary'>)\"}]",
            ),
        ],
    )
    def test_json_bytes_pinned(self, capsys, argv, expected):
        code, out, _ = run(capsys, ["measures", *argv, "--json"])
        assert code == EXIT_OK
        assert out == expected + "\n"

    def test_out_of_range_probability(self, capsys):
        code, _, err = run(capsys, ["measures", "--mu0", "1.5", "--mu1", "0.5"])
        assert code == EXIT_VALIDATION
        assert "InvariantViolation" in err

    def test_unknown_measure_name_rejected_by_parser(self, capsys):
        code, _, _ = run(
            capsys, ["collapse", "--strata", PROTECTIVE, "--measure", "hazard"]
        )
        assert code == EXIT_VALIDATION


class TestCollapse:
    def test_risk_difference_record(self, capsys):
        code, out, _ = run(
            capsys, ["collapse", "--strata", PROTECTIVE, "--measure", "rd", "--json"]
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["collapsed"] == pytest.approx(-0.04522, abs=5e-5)
        assert record["marginal"] == pytest.approx(record["collapsed"], rel=1e-12)
        assert record["weights"]["x1"] == pytest.approx(0.47)

    def test_risk_ratio_weights_shift_mass(self, capsys):
        code, out, _ = run(
            capsys, ["collapse", "--strata", PROTECTIVE, "--measure", "rr", "--json"]
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["weights"]["x0"] == pytest.approx(0.9376, abs=5e-4)
        assert record["collapsed"] == pytest.approx(0.6, abs=5e-4)

    def test_nnt_refused_with_misleading_average_caveat(self, capsys):
        code, out, err = run(
            capsys, ["collapse", "--strata", PROTECTIVE, "--measure", "nnt", "--json"]
        )
        assert code == EXIT_SEMANTICS
        assert "not collapsible" in err
        record = json.loads(out)
        assert record["collapsible"] is False
        assert record["naive_magnitude_average"] == pytest.approx(85, abs=1)
        assert abs(record["marginal"]) == pytest.approx(22, abs=1)

    def test_or_check_logic_reports_violation(self, capsys):
        code, out, _ = run(
            capsys,
            ["collapse", "--strata", PARADOX, "--measure", "or", "--check-logic", "--json"],
        )
        assert code == EXIT_SEMANTICS
        record = json.loads(out)
        assert record["logic_respecting"] is False
        assert record["marginal"] == pytest.approx(3.904, abs=5e-3)
        assert record["stratum_range"][0] == pytest.approx(6.0, abs=5e-3)

    def test_or_check_logic_plain_output(self, capsys):
        code, out, _ = run(
            capsys, ["collapse", "--strata", PARADOX, "--measure", "or", "--check-logic"]
        )
        assert code == EXIT_SEMANTICS
        assert "logic_respecting: false" in out

    def test_rd_check_logic_respected(self, capsys):
        code, out, _ = run(
            capsys,
            ["collapse", "--strata", PARADOX, "--measure", "rd", "--check-logic", "--json"],
        )
        assert code == EXIT_OK
        assert json.loads(out)["logic_respecting"] is True

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(
            capsys, ["collapse", "--strata", "/nonexistent.csv", "--measure", "rd"]
        )
        assert code == EXIT_IO
        assert "IOError" in err


class TestPlan:
    def plan(self, capsys, *extra):
        code, out, err = run(capsys, ["plan", "--json", *extra])
        return code, (json.loads(out) if code == EXIT_OK else err)

    def test_local_rd_continuous(self, capsys):
        code, record = self.plan(
            capsys,
            "--roles", ROLES_CONT, "--measure", "rd",
            "--outcome", "continuous", "--strategy", "local",
        )
        assert code == EXIT_OK
        assert record["required_covariates"] == ["X1", "X2"]
        assert record["requires_target_y0"] is False

    def test_conditional_continuous(self, capsys):
        code, record = self.plan(
            capsys,
            "--roles", ROLES_CONT, "--measure", "rr",
            "--outcome", "continuous", "--strategy", "conditional",
        )
        assert code == EXIT_OK
        assert record["required_covariates"] == ["X1", "X2", "X3", "X4"]
        assert record["requires_target_y0"] is False

    def test_local_sr_harmful_binary(self, capsys):
        code, record = self.plan(
            capsys,
            "--roles", ROLES_BIN, "--measure", "sr", "--outcome", "binary",
            "--direction", "harmful", "--strategy", "local",
        )
        assert code == EXIT_OK
        assert record["required_covariates"] == ["stress"]
        assert record["requires_target_y0"] is True

    def test_local_or_not_collapsible(self, capsys):
        code, err = self.plan(
            capsys,
            "--roles", ROLES_BIN, "--measure", "or",
            "--outcome", "binary", "--strategy", "local",
        )
        assert code == EXIT_SEMANTICS
        assert "NonCollapsible" in err

    def test_unknown_direction_rejected(self, capsys):
        code, _, _ = run(
            capsys,
            [
                "plan", "--roles", ROLES_BIN, "--measure", "rd", "--outcome", "binary",
                "--direction", "sideways", "--strategy", "local",
            ],
        )
        assert code == EXIT_VALIDATION


@pytest.fixture
def toy_files(tmp_path):
    """The exact-frequency two-cell dataset, serialized for the CLI."""
    x, a, y = [], [], []
    for cell, arm, n, events in (
        ((0,), 0, 20, 4),
        ((1,), 0, 20, 8),
        ((0,), 1, 20, 8),
        ((1,), 1, 20, 14),
    ):
        for i in range(n):
            x.append(cell)
            a.append(arm)
            y.append(1.0 if i < events else 0.0)
    trial = TrialSample(("x",), tuple(x), tuple(a), tuple(y))
    target = TargetSample(
        ("x",),
        tuple([(0,)] * 5 + [(1,)] * 15),
        tuple([1.0] + [0.0] * 4 + [1.0] * 6 + [0.0] * 9),
    )
    trial_path = tmp_path / "trial.csv"
    target_path = tmp_path / "target.csv"
    dataio.save_trial(trial, trial_path)
    dataio.save_target(target, target_path)
    return str(trial_path), str(target_path)


class TestTransport:
    def estimate(self, capsys, trial, target, measure, strategy):
        code, out, err = run(
            capsys,
            [
                "transport", "--trial", trial, "--target", target,
                "--measure", measure, "--strategy", strategy, "--covariates", "x",
            ],
        )
        return code, (json.loads(out)["value"] if code == EXIT_OK else err)

    def test_gformula_golden(self, capsys, toy_files):
        code, value = self.estimate(capsys, *toy_files, "rd", "gformula")
        assert code == EXIT_OK
        assert value == pytest.approx(0.275, rel=1e-12)

    def test_local_rd_matches_gformula(self, capsys, toy_files):
        _, gform = self.estimate(capsys, *toy_files, "rd", "gformula")
        code, local = self.estimate(capsys, *toy_files, "rd", "local")
        assert code == EXIT_OK
        assert local == pytest.approx(gform, abs=1e-12)

    def test_ipsw_golden(self, capsys, toy_files):
        code, value = self.estimate(capsys, *toy_files, "rr", "ipsw")
        assert code == EXIT_OK
        assert value == pytest.approx(25 / 14, rel=1e-12)

    def test_unshifted_target_returns_trial_contrast(self, capsys, toy_files, tmp_path):
        trial_path, _ = toy_files
        plug = tmp_path / "same.csv"
        target = TargetSample(("x",), tuple([(0,)] * 20 + [(1,)] * 20))
        dataio.save_target(target, plug)
        code, value = self.estimate(capsys, trial_path, str(plug), "rd", "ipsw")
        assert code == EXIT_OK
        assert value == pytest.approx((8 + 14) / 40 - (4 + 8) / 40, rel=1e-12)

    def test_unseen_cell_is_support_violation(self, capsys, toy_files, tmp_path):
        trial_path, _ = toy_files
        bad = tmp_path / "bad_target.csv"
        bad.write_text("x\n0\n2\n")
        code, _, err = run(
            capsys,
            [
                "transport", "--trial", trial_path, "--target", str(bad),
                "--measure", "rd", "--strategy", "gformula", "--covariates", "x",
            ],
        )
        assert code == EXIT_SUPPORT
        assert "SupportViolation" in err

    def test_local_sr_needs_target_y0(self, capsys, toy_files, tmp_path):
        trial_path, _ = toy_files
        plain = tmp_path / "no_y0.csv"
        dataio.save_target(TargetSample(("x",), ((0,), (1,))), plain)
        code, err = self.estimate(capsys, trial_path, str(plain), "sr", "local")
        assert code == EXIT_SEMANTICS
        assert "MissingTargetControlOutcome" in err

    @pytest.mark.parametrize(
        "trial_text, target_text",
        [
            ("x,a,y\n0,0,1\n0,1,nan\n", "x\n0\n"),
            ("x,a,y\n0,0,1\ninf,1,0\n", "x\n0\n"),
            ("x,a,y\n0,0,1\n0,1,0\n", "x,y0\n0,nan\n"),
        ],
        ids=["nan-y", "inf-covariate", "nan-y0"],
    )
    def test_non_finite_input_is_validation_error(
        self, capsys, tmp_path, trial_text, target_text
    ):
        trial, target = tmp_path / "trial.csv", tmp_path / "target.csv"
        trial.write_text(trial_text)
        target.write_text(target_text)
        code, err = self.estimate(capsys, str(trial), str(target), "rd", "gformula")
        assert code == EXIT_VALIDATION
        assert "InvariantViolation" in err and "finite" in err

    @pytest.mark.parametrize("strategy", ["gformula", "ipsw"])
    def test_header_only_target_is_validation_error(
        self, capsys, toy_files, tmp_path, strategy
    ):
        trial_path, _ = toy_files
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y0\n")
        code, err = self.estimate(capsys, trial_path, str(empty), "rd", strategy)
        assert code == EXIT_VALIDATION
        assert "InvariantViolation" in err


    def test_ipsw_refuses_least_squares(self, capsys, toy_files):
        trial_path, target_path = toy_files
        code, _, err = run(
            capsys,
            [
                "transport", "--trial", trial_path, "--target", target_path,
                "--measure", "rd", "--strategy", "ipsw", "--covariates", "x",
                "--learner", "least-squares",
            ],
        )
        assert code == EXIT_VALIDATION
        accepted = [learner.value for learner in estimators()["ipsw"].learners]
        assert accepted == ["cell-means"]
        assert "InvariantViolation" in err and str(accepted) in err

    def test_duplicate_covariate_flag_is_validation_error(self, capsys, toy_files):
        trial_path, target_path = toy_files
        code, out, err = run(
            capsys,
            [
                "transport", "--trial", trial_path, "--target", target_path,
                "--measure", "rd", "--strategy", "gformula", "--covariates", "x,x",
            ],
        )
        assert code == EXIT_VALIDATION
        assert out == "" and "duplicate covariate names" in err

    def test_duplicate_trial_column_is_validation_error(self, capsys, toy_files, tmp_path):
        _, target_path = toy_files
        trial = tmp_path / "dup.csv"
        trial.write_text("x,x,a,y\n0,1,0,1\n1,0,1,0\n")
        code, err = self.estimate(capsys, str(trial), target_path, "rd", "gformula")
        assert code == EXIT_VALIDATION
        assert "InvariantViolation" in err and "duplicate covariate names" in err


def _string_literals(module) -> set[str]:
    tree = ast.parse(inspect.getsource(module))
    return {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str)}


class TestEstimatorTable:
    """``transport`` dispatches through the one estimator table."""

    @pytest.mark.parametrize("learner", list(Learner), ids=lambda l: l.value)
    @pytest.mark.parametrize("name", list(estimators()))
    def test_cli_agrees_with_a_direct_call(self, capsys, toy_files, name, learner):
        trial_path, target_path = toy_files
        code, out, err = run(
            capsys,
            [
                "transport", "--trial", trial_path, "--target", target_path,
                "--measure", "rd", "--strategy", name, "--covariates", "x",
                "--learner", learner.value, "--json",
            ],
        )
        entry = estimators()[name]
        if learner not in entry.learners:
            assert code == EXIT_VALIDATION
            assert str([l.value for l in entry.learners]) in err
            return
        assert code == EXIT_OK
        direct = entry.function(
            dataio.load_trial(trial_path), dataio.load_target(target_path),
            MeasureKind.RD, ("x",), learner,
        )
        assert direct.strategy is entry.strategy
        record = json.loads(out)
        assert record["strategy"] == name
        assert record["value"] == direct.value  # bit for bit: JSON floats round-trip

    def test_strategy_choices_come_from_the_table_and_strategy(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        choices = {
            name: next(a.choices for a in commands[name]._actions if a.dest == "strategy")
            for name in ("transport", "plan")
        }
        assert choices["transport"] == list(estimators())
        assert choices["plan"] == [s.value for s in Strategy]
        literals = _string_literals(cli)
        assert not literals & set(estimators())
        assert not literals & {s.value for s in Strategy}


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


class TestSimulate:
    def test_tiny_run_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            [
                "simulate", "--scenario", "roulette-heterogeneous", "--seed", "7",
                "--reps", "2", "--n", "400", "--m", "600", "--out", str(out_path),
            ],
        )
        assert code == EXIT_OK
        assert "sr" in out and "local" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "scenario,rep,measure,strategy,covariate_set,estimate,ground_truth"
        assert len(lines) > 1

    def test_runs_are_byte_identical(self, capsys, tmp_path):
        contents = []
        for tag in ("a", "b"):
            out_path = tmp_path / f"report_{tag}.csv"
            argv = [
                "simulate", "--scenario", "continuous-linear", "--seed", "3",
                "--reps", "2", "--n", "200", "--m", "300",
                "--workers", "1" if tag == "a" else "2", "--out", str(out_path),
            ]
            assert main(argv) == EXIT_OK
            capsys.readouterr()
            contents.append(out_path.read_bytes())
        assert contents[0] == contents[1]

    def test_json_summaries(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            [
                "simulate", "--scenario", "roulette-heterogeneous", "--seed", "7",
                "--reps", "2", "--n", "400", "--m", "600",
                "--out", str(out_path), "--json",
            ],
        )
        assert code == EXIT_OK
        summaries = json.loads(out)
        assert any(
            s["measure"] == "sr" and s["strategy"] == "local" for s in summaries
        )
        for s in summaries:
            assert s["n_failed"] == 0

    @pytest.mark.parametrize(
        "size", [["--n", "-5"], ["--m", "0"], ["--workers", "0"], ["--reps", "0"]]
    )
    def test_sizes_below_one_are_validation_errors(self, capsys, tmp_path, size):
        code, _, err = run(
            capsys,
            [
                "simulate", "--scenario", "roulette-heterogeneous", "--reps", "1",
                "--n", "50", "--m", "50", *size, "--out", str(tmp_path / "r.csv"),
            ],
        )
        assert code == EXIT_VALIDATION
        assert "InvariantViolation" in err

    def test_failed_sampling_is_counted_per_replication(self, capsys, tmp_path):
        # a one-row trial never has both arms: every replication's sampler fails
        out_path = tmp_path / "r.csv"
        code, out, _ = run(
            capsys,
            [
                "simulate", "--scenario", "continuous-linear", "--n", "1", "--m", "5",
                "--reps", "3", "--out", str(out_path), "--json",
            ],
        )
        assert code == EXIT_OK
        summaries = json.loads(out, parse_constant=_reject_constant)
        assert all(s["n_failed"] == 3 and s["median"] is None for s in summaries)
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 3 * len(summaries)
        assert all(row.split(",")[5] == "NA" for row in rows)

    def test_json_is_strict_for_a_single_replication(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            [
                "simulate", "--scenario", "roulette-heterogeneous", "--seed", "7",
                "--reps", "1", "--n", "200", "--m", "200",
                "--out", str(tmp_path / "r.csv"), "--json",
            ],
        )
        assert code == EXIT_OK
        summaries = json.loads(out, parse_constant=_reject_constant)
        assert all(s["sd"] is None for s in summaries)
        assert all(isinstance(s["median"], float) for s in summaries)

    def test_unknown_scenario(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "simulate", "--scenario", "mystery", "--reps", "1",
                "--out", str(tmp_path / "r.csv"),
            ],
        )
        assert code == EXIT_VALIDATION
        assert "UnknownScenario" in err

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "simulate", "--scenario", "roulette-heterogeneous", "--seed", "7",
                "--reps", "1", "--n", "200", "--m", "200",
                "--out", str(tmp_path / "missing" / "r.csv"),
            ],
        )
        assert code == EXIT_IO
        assert "IOError" in err


class TestGrid:
    def test_writes_lattice(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, out, _ = run(
            capsys, ["grid", "--resolution", "4", "--out", str(out_path)]
        )
        assert code == EXIT_OK
        assert "16 rows" in out
        assert len(out_path.read_text().splitlines()) == 17

    def test_resolution_floor(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["grid", "--resolution", "1", "--out", str(tmp_path / "g.csv")]
        )
        assert code == EXIT_VALIDATION
        assert "InvariantViolation" in err
