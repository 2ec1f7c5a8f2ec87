import hashlib
import json
import math
import tracemalloc

import pytest

from conftest import FIXTURES, random_distribution
from effectmeasures import dataio
from effectmeasures.errors import InvariantViolation, ParseError
from effectmeasures.genmodel import (
    ContinuousOutcomeModel,
    DiscreteCovariateSpace,
    EntanglementModel,
    LogitOutcomeModel,
    potential_mean,
)
from effectmeasures.measures import OutcomeKind
from effectmeasures.strata import Stratum, StratifiedDistribution
from effectmeasures.transport import TargetSample, TrialSample

import random


class TestLoadStrata:
    def test_summary_variant(self, protective_table):
        assert protective_table.kind is OutcomeKind.BINARY
        assert [s.label for s in protective_table.strata] == ["x1", "x0"]
        assert protective_table.strata[0].proportion == 0.47
        assert protective_table.strata[0].pair.mu1 == 0.009
        assert protective_table.strata[1].pair.mu0 == 0.2

    def test_counts_variant(self, paradox_counts):
        assert [s.label for s in paradox_counts.strata] == ["f1", "f0"]
        f1 = paradox_counts.strata[0]
        assert f1.counts == ((60, 40), (20, 80))
        assert f1.pair.mu1 == 0.6
        assert f1.pair.mu0 == 0.2
        assert f1.proportion == pytest.approx(1.0 / 11.0, rel=1e-12)

    def test_summary_kind_inference_continuous(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("stratum,proportion,mu0,mu1\na,0.5,10.0,12.0\nb,0.5,8.0,9.0\n")
        dist = dataio.load_strata(path)
        assert dist.kind is OutcomeKind.CONTINUOUS

    def test_summary_kind_override(self, tmp_path):
        # means inside [0, 1] read as binary unless told otherwise
        path = tmp_path / "s.csv"
        path.write_text("stratum,proportion,mu0,mu1\na,1.0,0.3,0.4\n")
        assert dataio.load_strata(path).kind is OutcomeKind.BINARY
        forced = dataio.load_strata(path, kind=OutcomeKind.CONTINUOUS)
        assert forced.kind is OutcomeKind.CONTINUOUS

    def test_tiny_proportion_drift_renormalized(self, tmp_path, caplog):
        path = tmp_path / "s.csv"
        path.write_text(
            "stratum,proportion,mu0,mu1\na,0.3333333,0.2,0.1\nb,0.6666666,0.3,0.2\n"
        )
        with caplog.at_level("INFO", logger="effectmeasures.dataio"):
            dist = dataio.load_strata(path)
        assert math.fsum(s.proportion for s in dist.strata) == pytest.approx(1.0, abs=1e-15)
        assert any("renormalizing" in r.message for r in caplog.records)

    def test_large_proportion_drift_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("stratum,proportion,mu0,mu1\na,0.5,0.2,0.1\nb,0.6,0.3,0.2\n")
        with pytest.raises(InvariantViolation):
            dataio.load_strata(path)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "stratum,share,mu0,mu1\na,1.0,0.2,0.1\n",
            "stratum,proportion,mu0,mu1\n",
            "stratum,proportion,mu0,mu1\na,1.0,0.2\n",
            "stratum,proportion,mu0,mu1\na,one,0.2,0.1\n",
            "stratum,proportion,n_a1_y1,n_a1_y0,n_a0_y1,n_a0_y0\na,1.0,1.5,2,3,4\n",
        ],
    )
    def test_malformed_input_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError):
            dataio.load_strata(path)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("stratum,proportion,mu0,mu1\na,0.5,0.2,0.1\nb,oops,0.3,0.2\n")
        with pytest.raises(ParseError) as excinfo:
            dataio.load_strata(path)
        assert excinfo.value.row == 3
        assert excinfo.value.column == "proportion"


class TestStrataRoundtrip:
    def test_summary_roundtrip_exact(self, tmp_path):
        rng = random.Random(3)
        for i in range(10):
            dist = random_distribution(rng)
            path = tmp_path / f"rt{i}.csv"
            dataio.save_strata(dist, path)
            loaded = dataio.load_strata(path)
            assert loaded.kind is dist.kind
            # pairs roundtrip exactly; proportions may move one ulp when
            # the reloaded sum is renormalized back onto 1.0
            for got, want in zip(loaded.strata, dist.strata):
                assert got.label == want.label
                assert got.pair == want.pair
                assert got.proportion == pytest.approx(want.proportion, abs=1e-15)

    def test_counts_roundtrip_exact(self, paradox_counts, tmp_path):
        path = tmp_path / "rt.csv"
        dataio.save_strata(paradox_counts, path)
        loaded = dataio.load_strata(path)
        assert [s.counts for s in loaded.strata] == [s.counts for s in paradox_counts.strata]
        assert loaded.strata[0].pair == paradox_counts.strata[0].pair


class TestTrialIO:
    def trial(self):
        return TrialSample(
            ("x", "tag"),
            ((0, "u"), (1, "v"), (0, "u"), (1, "v")),
            (0, 1, 1, 0),
            (0.0, 1.0, 0.5, 2.25),
        )

    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "trial.csv"
        dataio.save_trial(self.trial(), path)
        assert dataio.load_trial(path) == self.trial()

    def test_header_must_end_with_arm_and_outcome(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("x,y,a\n0,1.0,1\n")
        with pytest.raises(ParseError):
            dataio.load_trial(path)

    def test_arm_values_validated(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("x,a,y\n0,2,1.0\n0,0,0.0\n")
        with pytest.raises(InvariantViolation):
            dataio.load_trial(path)

    def test_needs_a_covariate_column(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("a,y\n0,1.0\n1,0.0\n")
        with pytest.raises(ParseError):
            dataio.load_trial(path)


    @pytest.mark.parametrize(
        "text, row, column",
        [
            ("x,a,y\n0,0,1.0\n0,1,one\n", 3, "y"),
            ("x,a,y\n0,0,1.0\n0,b,1.0\n", 3, "a"),
            ("x,a,y\n0,0,1.0\n0,1\n", 3, None),
        ],
    )
    def test_parse_errors_name_row_and_column(self, tmp_path, text, row, column):
        path = tmp_path / "trial.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as excinfo:
            dataio.load_trial(path)
        assert (excinfo.value.row, excinfo.value.column) == (row, column)

    def test_duplicate_covariate_columns_rejected(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("x,x,a,y\n0,1,0,1.0\n1,0,1,0.0\n")
        with pytest.raises(InvariantViolation, match="duplicate covariate names"):
            dataio.load_trial(path)
        path.write_text("x,x,y0\n0,1,1.0\n")
        with pytest.raises(InvariantViolation, match="duplicate covariate names"):
            dataio.load_target(path)

    def test_covariate_values_int_else_float_else_string(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("i,u,s,a,y\n1,1,1,0,0\n2,2.5,b,1,1\n")
        trial = dataio.load_trial(path)
        assert trial.x.tolist() == [[1, 1.0, 1], [2, 2.5, "b"]]
        assert [type(v) for v in trial.x[1].tolist()] == [int, float, str]


class TestTargetIO:
    def test_roundtrip_with_control_outcomes(self, tmp_path):
        target = TargetSample(("x",), ((0,), (1,), (1,)), (0.0, 1.0, 0.0))
        path = tmp_path / "target.csv"
        dataio.save_target(target, path)
        assert dataio.load_target(path) == target
        assert path.read_text().splitlines()[0] == "x,y0"

    def test_roundtrip_without_control_outcomes(self, tmp_path):
        target = TargetSample(("x", "z"), ((0, 3), (1, 4)))
        path = tmp_path / "target.csv"
        dataio.save_target(target, path)
        loaded = dataio.load_target(path)
        assert loaded == target
        assert loaded.y0 is None

    def test_first_bad_control_outcome_is_reported(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("x,y0\n0,one\n1,NA\n")
        with pytest.raises(ParseError) as excinfo:
            dataio.load_target(path)
        assert (excinfo.value.row, excinfo.value.column) == (2, "y0")

    def test_partial_control_outcomes_rejected(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("x,y0\n0,1.0\n1,NA\n")
        with pytest.raises(InvariantViolation):
            dataio.load_target(path)


class TestGrid:
    @staticmethod
    def read_grid(path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        rows = {}
        for line in lines[1:]:
            cells = line.split(",")
            key = (round(float(cells[0]), 10), round(float(cells[1]), 10))
            rows[key] = dict(zip(header[2:], cells[2:]))
        return header, rows

    def test_row_count_and_header(self, tmp_path):
        path = tmp_path / "grid.csv"
        dataio.emit_grid(4, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "mu0,mu1,rd,rr,sr,err,rs,nnt,or,log_or"
        assert len(lines) == 1 + 16

    def test_diagonal_point_at_odd_resolution(self, tmp_path):
        path = tmp_path / "grid.csv"
        dataio.emit_grid(3, path)
        _, rows = self.read_grid(path)
        mid = rows[(0.5, 0.5)]
        assert float(mid["rd"]) == 0.0
        assert float(mid["rr"]) == 1.0
        assert float(mid["or"]) == 1.0
        assert mid["nnt"] == "NA"

    def test_lattice_hits_reference_pair(self, tmp_path):
        path = tmp_path / "grid.csv"
        dataio.emit_grid(24, path)  # step 0.04
        _, rows = self.read_grid(path)
        cell = rows[(0.2, 0.12)]
        assert float(cell["rr"]) == pytest.approx(0.6, rel=1e-12)
        assert float(cell["sr"]) == pytest.approx(1.1, rel=1e-12)
        assert float(cell["nnt"]) == pytest.approx(-12.5, rel=1e-12)

    def test_label_swap_symmetry_of_emitted_rows(self, tmp_path):
        path = tmp_path / "grid.csv"
        dataio.emit_grid(9, path)  # step 0.1, closed under mu -> 1 - mu
        _, rows = self.read_grid(path)
        for (mu0, mu1), row in rows.items():
            image = rows[(round(1 - mu0, 10), round(1 - mu1, 10))]
            assert float(image["rd"]) == pytest.approx(-float(row["rd"]), abs=1e-12)
            assert float(image["rr"]) == pytest.approx(float(row["sr"]), rel=1e-9)
            assert float(image["or"]) == pytest.approx(1 / float(row["or"]), rel=1e-9)

    def test_resolution_floor(self, tmp_path):
        with pytest.raises(InvariantViolation):
            dataio.emit_grid(1, tmp_path / "grid.csv")

    def test_resolution_300_bytes_pinned(self, tmp_path):
        """The bytes written before the measures were computed as arrays."""
        path = tmp_path / "grid.csv"
        dataio.emit_grid(300, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "43280fdda069d1c8a9f130dce37229ffcb02a1237b8655ce3b123d26c03313de"
        )

    def test_memory_stays_flat_in_resolution(self, tmp_path):
        """Rows are computed and written one mu0 at a time: the whole
        300 x 300 lattice held at once peaks above 150 MB."""
        tracemalloc.start()
        try:
            dataio.emit_grid(300, tmp_path / "grid.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestModelIO:
    def spaces_and_models(self):
        cells = ((0, 0), (0, 1), (1, 0), (1, 1))
        space = DiscreteCovariateSpace(
            ("u", "v"), cells, {"source": (0.25,) * 4, "target": (0.1, 0.2, 0.3, 0.4)}
        )
        yield space, ContinuousOutcomeModel(
            {c: 1.0 + c[0] for c in cells}, {c: 0.5 * c[1] for c in cells}, 1.25
        )
        yield space, EntanglementModel(
            {c: 0.1 + 0.2 * c[0] for c in cells},
            {c: 0.25 for c in cells},
            {c: 0.0 for c in cells},
        )
        yield space, LogitOutcomeModel(
            {c: -1.0 + c[0] for c in cells}, {c: 0.3 + c[1] for c in cells}
        )

    def test_roundtrip_exact(self, tmp_path):
        for i, (space, model) in enumerate(self.spaces_and_models()):
            path = tmp_path / f"model{i}.json"
            dataio.save_model(space, model, path)
            loaded_space, loaded_model = dataio.load_model(path)
            assert loaded_space == space
            assert type(loaded_model) is type(model)
            for cell in space.cells:
                for a in (0, 1):
                    assert potential_mean(loaded_model, a, cell) == potential_mean(
                        model, a, cell
                    )

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            dataio.load_model(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"covariates": ["x"], "cells": [[0]]}))
        with pytest.raises(ParseError):
            dataio.load_model(path)

    def test_unknown_model_type_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "covariates": ["x"],
                    "cells": [[0]],
                    "populations": {"pop": [1.0]},
                    "model": {"type": "spline", "b": [0.0]},
                }
            )
        )
        with pytest.raises(ParseError):
            dataio.load_model(path)

    def test_vector_length_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "covariates": ["x"],
                    "cells": [[0], [1]],
                    "populations": {"pop": [0.5, 0.5]},
                    "model": {"type": "logit", "b": [0.0], "m": [1.0, 1.0]},
                }
            )
        )
        with pytest.raises(ParseError):
            dataio.load_model(path)


class TestRoles:
    def test_fixture_contents(self, roles_binary):
        assert roles_binary.all == ("lifestyle", "stress", "gender")
        assert roles_binary.modulator == frozenset({"stress", "gender"})
        assert roles_binary.shifted == frozenset({"lifestyle", "stress"})

    def test_unknown_name_rejected(self, tmp_path):
        path = tmp_path / "roles.json"
        path.write_text(
            json.dumps(
                {
                    "covariates": ["x"],
                    "baseline": ["x"],
                    "modulator": ["z"],
                    "shifted": [],
                }
            )
        )
        with pytest.raises(InvariantViolation):
            dataio.load_roles(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "roles.json"
        path.write_text(json.dumps({"covariates": ["x"]}))
        with pytest.raises(ParseError):
            dataio.load_roles(path)
