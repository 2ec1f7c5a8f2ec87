import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import FIXTURES
from effectmeasures import cli, dataio, errors, simbench
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

    def test_undefined_measure_in_the_table(self, capsys):
        code, out, _ = run(capsys, ["measures", "--mu0", "0", "--mu1", "0.1"])
        assert code == EXIT_OK
        assert "rr      undefined: RR requires mu0 != 0" in out.splitlines()

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

    def test_collapsible_measure_text(self, capsys):
        code, out, _ = run(capsys, ["collapse", "--strata", PARADOX, "--measure", "rd"])
        assert code == EXIT_OK
        assert out.splitlines() == [
            "weight f1              0.090909",
            "weight f0              0.909091",
            "collapsed 0.0627273",
            "marginal  0.0627273",
        ]

    def test_rr_weights_summing_to_zero_are_undefined(self, capsys, tmp_path):
        # continuous control means -1 and 1 in equal strata cancel
        strata = tmp_path / "cancel.csv"
        strata.write_text("stratum,proportion,mu0,mu1\na,0.5,-1.0,2.0\nb,0.5,1.0,3.0\n")
        code, _, err = run(
            capsys, ["collapse", "--strata", str(strata), "--measure", "rr", "--json"]
        )
        assert code == EXIT_SEMANTICS
        assert err.splitlines()[-1].startswith("UndefinedMeasure:")

    def test_rr_weights_that_change_sign_are_undefined(self, capsys, tmp_path):
        # continuous control means -1 and 2: normalized weights -1 and 2
        strata = tmp_path / "signs.csv"
        strata.write_text("stratum,proportion,mu0,mu1\na,0.5,-1.0,2.0\nb,0.5,2.0,3.0\n")
        code, out, err = run(
            capsys, ["collapse", "--strata", str(strata), "--measure", "rr", "--json"]
        )
        assert code == EXIT_SEMANTICS
        assert out == ""
        assert err.splitlines()[-1].startswith("UndefinedMeasure:")
        assert "change sign" in err and "Traceback" not in err

    def test_duplicate_stratum_labels_are_validation_errors(self, capsys, tmp_path):
        strata = tmp_path / "dup.csv"
        strata.write_text("stratum,proportion,mu0,mu1\na,0.5,0.1,0.2\na,0.5,0.3,0.5\n")
        code, out, err = run(
            capsys, ["collapse", "--strata", str(strata), "--measure", "rd", "--json"]
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.splitlines()[-1].startswith("InvariantViolation:")
        assert "duplicate stratum labels: ['a']" in err and "Traceback" not in err

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

    def test_non_collapsible_measure_named_by_its_value(self, capsys):
        code, err = self.plan(
            capsys,
            "--roles", ROLES_BIN, "--measure", "or",
            "--outcome", "binary", "--strategy", "local",
        )
        assert code == EXIT_SEMANTICS
        assert err.splitlines()[-1] == "NonCollapsible: or is not collapsible"

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

    def test_local_nnt_names_the_measure_by_its_value(self, capsys, toy_files):
        code, err = self.estimate(capsys, *toy_files, "nnt", "local")
        assert code == EXIT_SEMANTICS
        assert err.splitlines()[-1] == "NonCollapsible: nnt is not collapsible"

    def test_ipsw_golden(self, capsys, toy_files):
        code, value = self.estimate(capsys, *toy_files, "rr", "ipsw")
        assert code == EXIT_OK
        assert value == pytest.approx(25 / 14, rel=1e-12)

    def test_gformula_sum_beyond_the_float_range_is_undefined(self, capsys, tmp_path):
        # finite cell means whose sum over the 400 target rows overflows
        trial, target = tmp_path / "trial.csv", tmp_path / "target.csv"
        trial.write_text("x,a,y\n" + "".join(f"{i % 2},{i // 2 % 2},1e306\n" for i in range(400)))
        target.write_text("x\n" + "0\n1\n" * 200)
        code, out, err = run(
            capsys,
            [
                "transport", "--trial", str(trial), "--target", str(target),
                "--measure", "rd", "--strategy", "gformula", "--covariates", "x", "--json",
            ],
        )
        assert code == EXIT_SEMANTICS
        assert out == ""
        assert err.splitlines()[-1].startswith("UndefinedMeasure:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("learner", [l.value for l in Learner])
    @pytest.mark.parametrize("strategy", ["gformula", "local"])
    def test_rd_beyond_the_float_range_is_undefined(self, capsys, tmp_path, strategy, learner):
        """Finite arm means whose difference overflows exit 3; the same
        files scaled down print strict JSON."""
        trial, target = tmp_path / "trial.csv", tmp_path / "target.csv"
        target.write_text("x\n1\n")
        argv = [
            "transport", "--trial", str(trial), "--target", str(target), "--measure", "rd",
            "--strategy", strategy, "--learner", learner, "--covariates", "x", "--json",
        ]
        for y in ("1", "1e308"):
            trial.write_text(f"x,a,y\n0,0,{y}\n1,0,{y}\n0,1,-{y}\n1,1,-{y}\n")
            code, out, err = run(capsys, argv)
            if y == "1":
                assert code == EXIT_OK
                record = json.loads(out, parse_constant=_reject_constant)
                assert record["value"] == pytest.approx(-2.0)
            else:
                assert code == EXIT_SEMANTICS and out == ""
                assert err.splitlines()[-1].startswith("UndefinedMeasure: rd is not finite")
                assert "Traceback" not in err

    # (trial rows, target rows) whose estimates overflow inside NumPy
    _OVERFLOWING = {
        # IPSW's ratio * y
        "ratio-times-y": ("0,0,1e308\n1,0,1e308\n0,1,-1e308\n1,1,-1e308\n", "1\n"),
        # the least-squares prediction's mean over the target
        "mean-prediction": (
            "0,0,1e308\n1,0,1e308\n0,1,-1e308\n1,1,1e308\n"
            "0,0,1e308\n1,0,-1e308\n0,1,1e308\n1,1,1e308\n",
            "0\n1\n1\n",
        ),
    }

    @pytest.mark.parametrize("fixture", list(_OVERFLOWING))
    @pytest.mark.parametrize(
        "strategy, learner",
        [(name, l.value) for name, row in estimators().items() for l in row.learners],
    )
    def test_overflow_is_undefined_without_a_warning(
        self, capsys, tmp_path, fixture, strategy, learner
    ):
        trial, target = tmp_path / "trial.csv", tmp_path / "target.csv"
        rows, target_rows = self._OVERFLOWING[fixture]
        trial.write_text("x,a,y\n" + rows)
        target.write_text("x\n" + target_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys,
                [
                    "transport", "--trial", str(trial), "--target", str(target),
                    "--measure", "rd", "--strategy", strategy, "--learner", learner,
                    "--covariates", "x", "--json",
                ],
            )
        assert code == EXIT_SEMANTICS and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("UndefinedMeasure:")

    @pytest.mark.parametrize("measure", ["rr", "err"])
    @pytest.mark.parametrize(
        "target_rows",
        ["0,1e308\n0,1e308\n1,-1e308\n1,-1e308\n", "0,1e308\n0,1e308\n1,1\n1,1\n"],
        ids=["opposite-infinities", "one-infinity"],
    )
    def test_local_weights_beyond_the_float_range_are_undefined(
        self, capsys, tmp_path, target_rows, measure
    ):
        """Target ``y0`` cell sums that overflow make a raw weight
        infinite: exit 3 with one line, no warning and no NaN."""
        trial, target = tmp_path / "trial.csv", tmp_path / "target.csv"
        trial.write_text("x,a,y\n0,0,1\n0,1,2\n1,0,1\n1,1,2\n")
        target.write_text("x,y0\n" + target_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys,
                [
                    "transport", "--trial", str(trial), "--target", str(target),
                    "--measure", measure, "--strategy", "local", "--covariates", "x", "--json",
                ],
            )
        assert code == EXIT_SEMANTICS and out == ""
        assert err == (
            f"UndefinedMeasure: {measure} weights are not finite: "
            "control outcomes beyond the float range\n"
        )

    @pytest.mark.parametrize("strategy", ["gformula", "local"])
    def test_least_squares_prediction_that_overflows_is_undefined(
        self, capsys, tmp_path, strategy
    ):
        # the target's x = 5 is unseen by the trial, so only least squares reaches it
        trial, target = tmp_path / "trial.csv", tmp_path / "target.csv"
        trial.write_text("x,a,y\n0,0,1e308\n0,0,1e308\n1,0,1\n1,1,2\n0,1,1\n1,0,1\n")
        target.write_text("x\n5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys,
                [
                    "transport", "--trial", str(trial), "--target", str(target),
                    "--measure", "rd", "--strategy", strategy, "--learner", "least-squares",
                    "--covariates", "x", "--json",
                ],
            )
        assert code == EXIT_SEMANTICS and out == ""
        assert err == (
            "UndefinedMeasure: estimated pair out of range: mu0 must be finite, got -inf\n"
        )

    def test_local_rr_weights_that_change_sign_are_undefined(self, capsys, tmp_path):
        # target control means -1 and 2 in equal cells: normalized weights -1 and 2
        trial, target = tmp_path / "trial.csv", tmp_path / "target.csv"
        trial.write_text("x,a,y\n0,0,-1.0\n0,1,2.0\n1,0,2.0\n1,1,3.0\n")
        target.write_text("x,y0\n0,-1.0\n1,2.0\n")
        code, out, err = run(
            capsys,
            [
                "transport", "--trial", str(trial), "--target", str(target),
                "--measure", "rr", "--strategy", "local", "--covariates", "x",
            ],
        )
        assert code == EXIT_SEMANTICS
        assert out == ""
        assert err.splitlines()[-1].startswith("UndefinedMeasure:")
        assert "change sign" in err and "Traceback" not in err

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

    def test_unknown_covariate_is_named(self, capsys, toy_files):
        trial_path, target_path = toy_files
        code, out, err = run(
            capsys,
            [
                "transport", "--trial", trial_path, "--target", target_path,
                "--measure", "rd", "--strategy", "gformula", "--covariates", "typo",
            ],
        )
        assert code == EXIT_VALIDATION
        assert out == "" and "InvariantViolation" in err
        assert "'typo'" in err and "('x',)" in err and "tuple.index" not in err

    def test_bom_before_the_trial_header(self, capsys, toy_files, tmp_path):
        trial_path, target_path = toy_files
        with_bom = tmp_path / "bom.csv"
        with_bom.write_bytes(b"\xef\xbb\xbf" + open(trial_path, "rb").read())
        assert self.estimate(capsys, str(with_bom), target_path, "rd", "gformula") == (
            self.estimate(capsys, trial_path, target_path, "rd", "gformula")
        )

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

    def test_learner_choices_are_the_enum_values(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        learner = next(a for a in commands["transport"]._actions if a.dest == "learner")
        assert learner.choices == [l.value for l in Learner]
        assert learner.default == Learner.CELL_MEANS.value


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

    @pytest.mark.parametrize(
        "scenario, sha256",
        [
            ("roulette-heterogeneous",
             "23435de0a856cf399de00662580d5d600d78405b4d2e17e00aa3c69f67661739"),
            ("continuous-linear",
             "b369e864a4c2aa3cc730d13d6c02273271cd0a633fe8c0e3d17d46574c0696c4"),
        ],
        ids=["roulette-heterogeneous", "continuous-linear"],
    )
    def test_report_bytes_are_pinned(self, capsys, tmp_path, scenario, sha256):
        """The draw order of each study's sampler, and so every estimate,
        is fixed for a seed: a reordered draw changes these bytes."""
        out_path = tmp_path / "report.csv"
        argv = [
            "simulate", "--scenario", scenario, "--seed", "1", "--reps", "2",
            "--n", "400", "--m", "600", "--out", str(out_path),
        ]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == sha256

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

    def test_workers_beyond_the_replications_start_no_more_threads(
        self, capsys, recorded_pools, tmp_path
    ):
        code, _, _ = run(
            capsys,
            [
                "simulate", "--scenario", "roulette-heterogeneous", "--reps", "3",
                "--n", "200", "--m", "200", "--workers", "1000000",
                "--out", str(tmp_path / "r.csv"),
            ],
        )
        assert code == EXIT_OK
        cpus = simbench._usable_cpus()
        assert recorded_pools == ([min(3, cpus)] if cpus > 1 else [])

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

    def test_json_prints_one_strict_object(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, out, _ = run(
            capsys, ["grid", "--resolution", "4", "--out", str(out_path), "--json"]
        )
        assert code == EXIT_OK
        record = json.loads(out, parse_constant=_reject_constant)
        assert record == {"rows": 16, "out": str(out_path)}
        assert len(out_path.read_text().splitlines()) == 17


_ROLE_ARGS = ["--measure", "sr", "--outcome", "binary", "--strategy", "local", "--json"]
_BOUNDARY_INPUTS = {
    # id: (files by name, argv with {name} for a file's path, error type); each exits 2
    "strata-not-utf8": (
        {"strata": b"\xff\xfe"},
        ["collapse", "--strata", "{strata}", "--measure", "rd"],
        "ParseError",
    ),
    "trial-not-utf8": (
        {"trial": b"x,a,y\n0,0,1\n\xff,1,0\n", "target": b"x\n0\n1\n"},
        ["transport", "--trial", "{trial}", "--target", "{target}",
         "--measure", "rd", "--strategy", "gformula", "--covariates", "x"],
        "ParseError",
    ),
    "negative-seed": (
        {},
        ["simulate", "--scenario", "roulette-heterogeneous", "--seed", "-1",
         "--reps", "1", "--n", "50", "--m", "50", "--out", "{report}"],
        "InvariantViolation",
    ),
    "least-squares-string-covariate": (
        {"trial": b"x,tag,a,y\n0,u,0,1\n1,v,1,0\n0,u,1,1\n1,v,0,0\n",
         "target": b"x,tag\n0,u\n1,v\n"},
        ["transport", "--trial", "{trial}", "--target", "{target}",
         "--measure", "rd", "--strategy", "gformula", "--learner", "least-squares",
         "--covariates", "tag"],
        "InvariantViolation",
    ),
    "roles-number-for-names": (
        {"roles": b'{"covariates": 5, "baseline": [], "modulator": [], "shifted": []}'},
        ["plan", "--roles", "{roles}", *_ROLE_ARGS],
        "ParseError",
    ),
    "roles-top-level-list": (
        {"roles": b"[1, 2]"},
        ["plan", "--roles", "{roles}", *_ROLE_ARGS],
        "ParseError",
    ),
    "roles-nested-list": (
        {"roles": b'{"covariates": ["x"], "baseline": [["x"]], "modulator": [], "shifted": []}'},
        ["plan", "--roles", "{roles}", *_ROLE_ARGS],
        "ParseError",
    ),
    "strata-empty-arm": (
        # an arm without rows has no risk, in any measure: the table is invalid
        {"strata": b"stratum,proportion,n_a1_y1,n_a1_y0,n_a0_y1,n_a0_y0\n"
                   b"s0,0.5,0,0,1,5\ns1,0.5,3,4,1,5\n"},
        ["collapse", "--strata", "{strata}", "--measure", "rd"],
        "InvariantViolation",
    ),
    "target-only-y0": (
        {"trial": b"x,a,y\n0,0,1\n0,1,2\n", "target": b"y0\n1\n"},
        ["transport", "--trial", "{trial}", "--target", "{target}",
         "--measure", "rd", "--strategy", "gformula", "--covariates", "x"],
        "ParseError",
    ),
    "roles-string-for-names": (
        {"roles": b'{"covariates": "ls", "baseline": "l", "modulator": "s", "shifted": "ls"}'},
        ["plan", "--roles", "{roles}", *_ROLE_ARGS],
        "ParseError",
    ),
}


class TestInputBoundary:
    """Bad input exits with its documented status and a one-line error,
    never with a traceback."""

    @pytest.mark.parametrize("case", list(_BOUNDARY_INPUTS))
    def test_bad_input_exits_with_its_status(self, capsys, tmp_path, case):
        files, argv, error_type = _BOUNDARY_INPUTS[case]
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        paths = {name: str(tmp_path / name) for name in ["report", *files]}
        code, out, err = run(capsys, [arg.format_map(paths) for arg in argv])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.splitlines()[-1].startswith(f"{error_type}:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "error",
        sorted(
            (cls for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.EffectMeasureError)),
            key=lambda cls: cls.__name__,
        ),
        ids=lambda cls: cls.__name__,
    )
    def test_each_error_class_keeps_its_exit_status(self, capsys, monkeypatch, error):
        want = {
            "SupportViolation": 4,
            "NonCollapsible": 3,
            "UndefinedMeasure": 3,
            "MissingTargetControlOutcome": 3,
            "NotIdentifiable": 3,
            "DirectionViolated": 3,
        }.get(error.__name__, 2)

        def raise_it(args):
            raise error("planted")

        monkeypatch.setattr(cli, "_cmd_measures", raise_it)
        code, _, err = run(capsys, ["measures", "--mu0", "0.2", "--mu1", "0.1"])
        assert code == want
        assert err.startswith(f"{error.__name__}: ")


class TestCollapseEvaluatesOnce:
    @pytest.mark.parametrize("fixture", ["protective_summary.csv", "paradox_counts.csv"])
    @pytest.mark.parametrize("measure", [m.value for m in MeasureKind])
    def test_stratum_values_and_marginal_once(self, capsys, monkeypatch, fixture, measure):
        """One measure-kernel call for the stratum values and one for the
        marginal serve weights, collapse, naive averages and the logic check."""
        from effectmeasures import measures

        calls = []
        table = measures.measure_table
        monkeypatch.setattr(measures, "measure_table", lambda *a: calls.append(1) or table(*a))
        run(capsys, ["collapse", "--strata", str(FIXTURES / fixture), "--measure", measure,
                     "--check-logic", "--json"])
        assert len(calls) == 2

    def test_underscore_count_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "strata.csv"
        path.write_text("stratum,proportion,n_a1_y1,n_a1_y0,n_a0_y1,n_a0_y0\na,1.0,1_000,2,3,4\n")
        code, out, err = run(capsys, ["collapse", "--strata", str(path), "--measure", "rd"])
        assert code == EXIT_VALIDATION and out == ""
        assert err.splitlines()[-1].startswith("ParseError:")


_PROBE = """
import json, sys
from effectmeasures.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def _fresh_run(cwd: Path, *argvs: list[str]) -> tuple[list[int], set[str]]:
    """Run ``main`` on each of ``argvs`` in one new interpreter; return
    the exit codes and the modules loaded at the end."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs)],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    return result["codes"], set(result["modules"])


class TestStartUp:
    """The parser, ``--help`` and argument errors load no numerical module;
    each command loads the modules it runs."""

    def test_help_and_usage_errors_load_no_numpy(self, tmp_path):
        commands = list(build_parser()._subparsers._group_actions[0].choices)
        assert len(commands) == 6
        codes, modules = _fresh_run(
            tmp_path, ["--help"], *([c, "--help"] for c in commands),
            ["transport", "--measure", "xx"],
        )
        assert codes == [EXIT_OK] * 7 + [EXIT_VALIDATION]
        assert "numpy" not in modules
        assert {m for m in modules if m.startswith("effectmeasures")} == {
            "effectmeasures", "effectmeasures.cli", "effectmeasures.errors",
            "effectmeasures.vocab",
        }

    def test_each_command_loads_what_it_runs(self, tmp_path):
        codes, modules = _fresh_run(tmp_path, ["grid", "--resolution", "2", "--out", "g.csv"])
        assert codes == [EXIT_OK]
        assert "effectmeasures.dataio" in modules
        assert "effectmeasures.simbench" not in modules
        codes, modules = _fresh_run(tmp_path, [
            "simulate", "--scenario", "roulette-heterogeneous", "--reps", "1",
            "--n", "50", "--m", "50", "--out", "r.csv",
        ])
        assert codes == [EXIT_OK]
        assert "effectmeasures.simbench" in modules
        assert "effectmeasures.dataio" not in modules


_BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
)

_THREADS_PROBE = """
import os, sys
from effectmeasures.cli import main
assert main(sys.argv[1:]) == 0
print(len(os.listdir("/proc/self/task")))
"""


class TestThreadPolicy:
    """``main`` runs BLAS on one thread unless the caller set a thread
    count, and touches the environment only before NumPy loads."""

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task") or simbench._usable_cpus() < 2,
        reason="OpenBLAS starts no worker thread on one CPU; threads are counted in /proc",
    )
    @pytest.mark.parametrize(
        "caller, threads",
        [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2)],
        ids=["unset", "openblas-2", "omp-2"],
    )
    def test_threads_after_a_command(self, tmp_path, caller, threads):
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _THREADS_PROBE, "grid", "--resolution", "3", "--out", "g.csv"],
            cwd=tmp_path, env={**env, **caller}, capture_output=True, text=True, check=True,
        )
        assert int(done.stdout.splitlines()[-1]) == threads

    def test_environment_untouched_once_numpy_is_loaded(self, capsys, monkeypatch, tmp_path):
        for name in _BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        assert "numpy" in sys.modules
        before = dict(os.environ)
        assert main(["grid", "--resolution", "3", "--out", str(tmp_path / "g.csv")]) == EXIT_OK
        assert dict(os.environ) == before


class TestUnreachedRefusals:
    def test_an_empty_covariate_list(self, capsys, toy_files):
        trial, target = toy_files
        code, out, err = run(
            capsys,
            ["transport", "--trial", trial, "--target", target, "--measure", "rd",
             "--strategy", "gformula", "--covariates", ","],
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "covariate list must be non-empty" in err

    def test_a_trial_header_that_is_not_utf8(self, capsys, tmp_path):
        trial, target = tmp_path / "trial.csv", tmp_path / "target.csv"
        trial.write_bytes(b"x\xff,a,y\n0,0,1\n0,1,0\n")
        target.write_bytes(b"x\n0\n")
        code, out, err = run(
            capsys,
            ["transport", "--trial", str(trial), "--target", str(target), "--measure", "rd",
             "--strategy", "gformula", "--covariates", "x"],
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.splitlines()[-1].startswith(f"ParseError: {trial}: not UTF-8 text")
        assert "Traceback" not in err
