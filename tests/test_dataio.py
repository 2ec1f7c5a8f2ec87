import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, random_distribution
from effectmeasures import dataio
from effectmeasures.errors import EffectMeasureError, InvariantViolation, ParseError
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

    @pytest.mark.parametrize(
        "body, row, column",
        [
            # the first bad field of the first bad column, not of the first bad row
            ("a,0.5,x,0.1\nb,oops,0.3,0.2\n", 3, "proportion"),
            ("a,0.5,0.2,0.1\nb,0.5,0.3,y\nc,0.0,z,0.2\n", 4, "mu0"),
            # a row of the wrong arity before any bad field
            ("a,oops,0.2,0.1\nb,0.5,0.3\n", 3, None),
        ],
        ids=["across-rows", "across-columns", "arity-first"],
    )
    def test_several_bad_fields_report_arity_then_columns(self, tmp_path, body, row, column):
        path = tmp_path / "bad.csv"
        path.write_text("stratum,proportion,mu0,mu1\n" + body)
        with pytest.raises(ParseError) as excinfo:
            dataio.load_strata(path)
        assert (excinfo.value.row, excinfo.value.column) == (row, column)


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


# Field texts for the parser-agreement test. The clean ones fit the
# typed pass; each example mixes in at most two of the others, in about
# half of the fields of their role.
_CLEAN = {
    "covariate": ["0", "1", "2", "-3", "+1", "-0", "007", "9223372036854775807"],
    "a": ["0", "1", "+1", "-0"],
    "y": ["0", "1", "0.5", "-0.0", "1e-3", "2.25", "-7"],
}
_UNCLEAN = [
    ("covariate", text)
    for text in (".5", "1e3", "2.0", "1_0", "9223372036854775808", "-9223372036854775809",
                 '"1"', "NA", "u", "", "1#")
] + [("a", text) for text in ("2", "-1", "1.0", "1e0", "NA", "")] + [
    ("y", text) for text in (".5e1", "1e999", "1_0", "NA", "nan", '"1"', "", "1#")
]


@st.composite
def _csv_text(draw, columns: list[str]) -> str:
    """A CSV of ``columns`` whose fields, row ends and blank lines may or
    may not fit the typed pass."""
    unclean = draw(st.sets(st.sampled_from(_UNCLEAN), max_size=2))
    fields = {}
    for role, clean in _CLEAN.items():
        mixed = sorted(text for r, text in unclean if r == role)
        fields[role] = st.sampled_from(clean) | st.sampled_from(mixed or clean)
    roles = [{"a": "a", "y": "y", "y0": "y"}.get(name, "covariate") for name in columns]
    rows = [
        ",".join(draw(fields[role]) for role in roles) for _ in range(draw(st.integers(0, 5)))
    ]
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), "")
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + newline.join([",".join(columns)] + rows) + draw(st.sampled_from([newline, ""]))


def _outcome(load, path):
    """A loaded sample with its arrays' dtypes and exact values (signed
    zeros included), or the error's type and message."""
    try:
        sample = load(path)
    except EffectMeasureError as exc:
        return type(exc), str(exc)
    return sample, [(a.dtype, repr(a.tolist())) for a in sample._arrays() if a is not None]


class TestParserPaths:
    """The typed pass and the column parser load every file alike."""

    @staticmethod
    def agree(tmp_path, text, load, parse):
        path = tmp_path / "sample.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load, path) == _outcome(parse, path)

    @pytest.mark.parametrize(
        "text",
        [
            "x,a,y\n0,0,1\n\n1,1,0\n",
            "x,a,y\n0,0,1#\n1,1,0\n",
            "x,a,y\n0,0,1\r\n1,1,0\r\n",
            "x,a,y\r\n0,0,1\n1,1,0\n",
            '"x",a,y\n0,0,1\n1,1,0\n',
            "\n0,0,1\n1,1,0\n",
            "x,a,y\n",
            "x,a,y\n9223372036854775808,0,1\n1,1,0\n",
            "x,a,y\n1_0,0,1\n1,1,0\n",
            "x,a,y\n0,2,1\n1,1,0\n",
            "x,a,y\n0,0,1e999\n1,1,0\n",
            "x,a,y\n0,1,1\n1,1,0\n",
            "x,a,y\n0.5,0,1\n1,1,0\n",
            "x,a,y\n0,1.0,1\n1,1,0\n",
            "x,a,y\n1e3,0,1\n1,1,0\n",
        ],
    )
    def test_trial_edges(self, tmp_path, text):
        self.agree(tmp_path, text, dataio.load_trial, dataio._parse_trial)

    def test_a_field_beyond_the_csv_size_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("x,a,y\nu,0," + "7" * 140_000 + "\n")
        with pytest.raises(ParseError, match="line 2: field larger than field limit"):
            dataio.load_trial(path)

    @pytest.mark.parametrize("text", ["x,a,y\n0.5,0,1\n1,1,0\n", "x,a,y\n0,1.0,1\n1,1,0\n"])
    def test_a_loadtxt_that_casts_floats_with_a_warning(self, tmp_path, monkeypatch, text):
        """NumPy 1.23 to 1.26 read float text into an int64 field as its
        cast value and only warn; such a read must fall back, not load."""

        def casting_loadtxt(fname, dtype, **kwargs):
            with open(fname, encoding=kwargs["encoding"]) as fh:
                rows = fh.read().splitlines()[kwargs["skiprows"]:]
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return np.zeros(len(rows), dtype=dtype)

        monkeypatch.setattr(dataio.np, "loadtxt", casting_loadtxt)
        self.agree(tmp_path, text, dataio.load_trial, dataio._parse_trial)

    @pytest.mark.parametrize(
        "text", ["x\n0\n\n1\n", "x\n0\n1#\n", "x,y0\n0,NA\n1,1\n", "x,y0\n0,1#\n", "x,y0\n"]
    )
    def test_target_edges(self, tmp_path, text):
        self.agree(tmp_path, text, dataio.load_target, dataio._parse_target)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), columns=st.sampled_from([["x", "a", "y"], ["x", "z", "a", "y"]]))
    def test_trial(self, tmp_path_factory, data, columns):
        text = data.draw(_csv_text(columns))
        self.agree(tmp_path_factory.mktemp("t"), text, dataio.load_trial, dataio._parse_trial)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), columns=st.sampled_from([["x"], ["x", "y0"], ["x", "z", "y0"]]))
    def test_target(self, tmp_path_factory, data, columns):
        text = data.draw(_csv_text(columns))
        self.agree(tmp_path_factory.mktemp("t"), text, dataio.load_target, dataio._parse_target)

    @pytest.mark.parametrize(
        "trial_body, target_body",
        [("0,0,1.0\n1,1,0.0\n", "0,1.0\n1,0.0\n"), ("u,0,1.0\nv,1,0.0\n", "u,1.0\nv,0.0\n")],
        ids=["typed", "column-parser"],
    )
    def test_bom_is_not_part_of_the_first_name(self, tmp_path, trial_body, target_body):
        path = tmp_path / "sample.csv"
        path.write_bytes(("\ufeffx,a,y\n" + trial_body).encode("utf-8"))
        assert dataio.load_trial(path).covariates == ("x",)
        path.write_bytes(("\ufeffx,y0\n" + target_body).encode("utf-8"))
        assert dataio.load_target(path).covariates == ("x",)

    @pytest.mark.parametrize(
        "load, parse, text",
        [
            ("trial", "_parse_trial", "\ufeffx,a,y\n0,0,1\n1,1,0.5\n"),
            ("trial", "_parse_trial", "x,a,y\n0,0,1\n1,1,0.5"),
            ("trial", "_parse_trial", "größe,a,y\n0,0,1\n-3,1,0.5\n"),
            ("target", "_parse_target", "\ufeffx,y0\n0,1\n1,0\n"),
            ("target", "_parse_target", "x,y0\n0,1\n1,0"),
            ("target", "_parse_target", "größe\n0\n-3\n"),
        ],
    )
    def test_typed_pass_reads_the_path_once(self, tmp_path, monkeypatch, load, parse, text):
        """A byte-order mark, a last row without a newline and a non-ASCII
        name keep the typed pass: one ``np.loadtxt`` call, given the path."""
        path = tmp_path / "sample.csv"
        path.write_bytes(text.encode("utf-8"))
        calls, loadtxt = [], np.loadtxt
        monkeypatch.setattr(
            dataio.np, "loadtxt", lambda fname, **kw: calls.append(fname) or loadtxt(fname, **kw)
        )
        loaded = _outcome(getattr(dataio, f"load_{load}"), path)
        assert calls == [path]
        assert loaded == _outcome(getattr(dataio, parse), path)

    @pytest.mark.parametrize(
        "name", ["trial.csv.gz", "trial.csv.bz2", "trial.csv.xz", "trial.csv.lzma",
                 "http://host/trial.csv"],
    )
    def test_names_loadtxt_would_not_open_as_plain_files(self, tmp_path, monkeypatch, name):
        """``np.loadtxt`` would decompress such a path or fetch it as a URL;
        the column parser reads the plain local file."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)  # "http:/host" here
        (tmp_path / name).write_text("x,a,y\n0,0,1\n1,1,0\n")
        calls = []

        def refusing_loadtxt(fname, **kwargs):
            calls.append(fname)
            raise ValueError("not a plain file")

        monkeypatch.setattr(dataio.np, "loadtxt", refusing_loadtxt)
        assert _outcome(dataio.load_trial, name) == _outcome(dataio._parse_trial, name)
        assert calls == []

    def test_save_trial_files_take_the_typed_pass(self, tmp_path, monkeypatch):
        trial = TrialSample(("x", "z"), ((0, -4), (1, 7), (0, 7)), (0, 1, 1), (0.0, -0.0, 1e-300))
        path = tmp_path / "trial.csv"
        dataio.save_trial(trial, path)
        monkeypatch.setattr(dataio, "_parse_trial", None)
        assert dataio.load_trial(path) == trial

    def test_memory_of_a_large_integer_file(self, tmp_path):
        """The typed pass holds one structured array and the file's bytes;
        the column parser's lists of row texts peak near 17 MB."""
        rng = np.random.default_rng(5)
        path = tmp_path / "trial.csv"
        np.savetxt(path, rng.integers(0, 2, (100_000, 5)), fmt="%d", delimiter=",",
                   header="lifestyle,stress,gender,a,y", comments="")
        tracemalloc.start()
        try:
            trial = dataio.load_trial(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trial.n == 100_000
        assert peak < 8e6


# values at the bounds of each signed integer type, and the smallest signed
# type that holds each column
_COMPACT_COLUMNS = [
    ([-128, 0, 127], np.int8),
    ([-129, 0, 1], np.int16),
    ([0, 128], np.int16),
    ([-32768, 32767], np.int16),
    ([32768, 1], np.int32),
    ([-32769, 0], np.int32),
    ([-(2**31), 2**31 - 1], np.int32),
    ([2**31, 0], np.int64),
    ([-(2**31) - 1, 5], np.int64),
    ([2**63 - 1, 0], np.int64),
    ([-(2**63), 2**63 - 1], np.int64),
    ([7, 7], np.int8),
    ([-1, -1], np.int8),
]


class TestCompactColumns:
    """An integer covariate column is kept in the smallest signed type that
    holds its minimum and maximum, by every constructor and loader alike;
    ``.tolist()`` gives its values and ``x`` its rows in int64."""

    @pytest.mark.parametrize("values, dtype", _COMPACT_COLUMNS)
    def test_every_path_gives_the_smallest_type(self, tmp_path, monkeypatch, values, dtype):
        """Trial and target samples with the column ``values`` and a 0/1
        column: from rows, from int64 and (where the values fit) uint64
        arrays, by the typed pass and by the column parser."""
        rows = [(v, k % 2) for k, v in enumerate(values)]
        a, y = [k % 2 for k in range(len(rows))], [0.5] * len(rows)
        arrays = [np.array(rows, np.int64)]
        if min(values) >= 0:
            arrays.append(np.array(rows, np.uint64))
        samples = []
        for x in [rows, *arrays]:
            samples += [TrialSample(("x", "z"), x, a, y), TargetSample(("x", "z"), x)]
        dataio.save_trial(samples[0], tmp_path / "trial.csv")
        dataio.save_target(samples[1], tmp_path / "target.csv")
        samples += [dataio._parse_trial(tmp_path / "trial.csv")]
        samples += [dataio._parse_target(tmp_path / "target.csv")]
        monkeypatch.setattr(dataio, "_parse_trial", None)  # so only the typed pass can load
        monkeypatch.setattr(dataio, "_parse_target", None)
        samples += [dataio.load_trial(tmp_path / "trial.csv")]
        samples += [dataio.load_target(tmp_path / "target.csv")]
        for sample in samples:
            x, z = sample.columns
            assert (x.dtype, z.dtype) == (np.dtype(dtype), np.int8)
            assert x.tolist() == values and z.tolist() == [k % 2 for k in range(len(values))]
            assert sample.x.dtype == np.int64 and sample.x.tolist() == list(map(list, rows))

    def test_a_loaded_roulette_sample_holds_a_byte_per_covariate(self, tmp_path):
        """100,000 rows of 0/1 covariates: a trial holds three int8 columns,
        int8 arms and float64 outcomes, 1.2 MB; a target three int8 columns
        and float64 control outcomes, 1.1 MB (3.3 and 3.2 MB in int64)."""
        rng = np.random.default_rng(28)
        trial, target = tmp_path / "trial.csv", tmp_path / "target.csv"
        np.savetxt(trial, rng.integers(0, 2, (100_000, 5)), fmt="%d", delimiter=",",
                   header="lifestyle,stress,gender,a,y", comments="")
        np.savetxt(target, rng.integers(0, 2, (100_000, 4)), fmt="%d", delimiter=",",
                   header="lifestyle,stress,gender,y0", comments="")
        held = [
            sum(a.nbytes for a in sample._arrays())
            for sample in (dataio.load_trial(trial), dataio.load_target(target))
        ]
        assert held == [1_200_000, 1_100_000]


class TestNamedColumns:
    """The loaders hand the sample one column per covariate, and the sample
    types each once (see ``transport._column``)."""

    @pytest.fixture
    def typed(self, monkeypatch):
        """The lengths of the columns ``transport._column`` types."""
        from effectmeasures import transport

        lengths, column = [], transport._column
        monkeypatch.setattr(
            transport, "_column", lambda values: lengths.append(len(values)) or column(values)
        )
        return lengths

    @pytest.mark.parametrize(
        "load, text",
        [
            ("load_trial", "x,z,a,y\n0,5,0,1\n1,-3,1,0.5\n2,0,0,0\n"),
            ("_parse_trial", "x,z,a,y\n0,5,0,1\n1,-3,1,0.5\n2,0,0,0\n"),
            ("load_trial", "x,tag,a,y\n0,u,0,1\n1,v,1,0.5\n2,u,0,0\n"),
            ("load_trial", "x,u,a,y\n0,0.5,0,1\n1,2,1,0.5\n2,-1e3,0,0\n"),
            ("load_target", "x,z,y0\n0,5,1\n1,-3,0.5\n2,0,0\n"),
            ("_parse_target", "x,z,y0\n0,5,1\n1,-3,0.5\n2,0,0\n"),
            ("load_target", "x,tag\n0,u\n1,v\n2,u\n"),
            ("load_target", "x,u\n0,0.5\n1,2\n2,-1e3\n"),
        ],
        ids=["typed-trial", "parsed-int-trial", "int-string-trial", "int-float-trial",
             "typed-target", "parsed-int-target", "int-string-target", "int-float-target"],
    )
    def test_each_covariate_column_is_typed_once(self, tmp_path, typed, load, text):
        path = tmp_path / "sample.csv"
        path.write_text(text)
        sample = getattr(dataio, load)(path)
        assert sample.covariates == ("x", sample.covariates[1]) and sample.n == 3
        assert typed == [3, 3]

    @pytest.mark.parametrize(
        "trial_text, target_text, dtypes",
        [
            ("x,tag,a,y\n0,u,0,1\n300,v,1,0.5\n", "x,tag,y0\n0,u,1\n300,w,0\n",
             [np.int16, object]),
            ("x,u,a,y\n0,0.5,0,1\n-1,2,1,0.5\n", "x,u,y0\n0,0.5,1\n-1,2,0\n",
             [np.int8, np.float64]),
        ],
        ids=["int-string", "int-float"],
    )
    def test_mixed_files_load_as_parsed_with_their_dtypes(
        self, tmp_path, trial_text, target_text, dtypes
    ):
        """The loader gives the column parser's sample: an integer column in
        its smallest type beside a string or float column, and object rows."""
        for text, load, parse in (
            (trial_text, dataio.load_trial, dataio._parse_trial),
            (target_text, dataio.load_target, dataio._parse_target),
        ):
            path = tmp_path / "sample.csv"
            path.write_text(text)
            sample = load(path)
            assert _outcome(load, path) == _outcome(parse, path)
            assert [c.dtype for c in sample.columns] == dtypes
            assert sample.x.dtype == object
            assert [type(v) for v in sample.x[0].tolist()] == [int, type(sample.columns[1].tolist()[0])]


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
            assert loaded_model == model
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

    def test_non_numeric_model_value_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "covariates": ["x"],
                    "cells": [[0]],
                    "populations": {"pop": [1.0]},
                    "model": {"type": "logit", "b": ["high"], "m": [1.0]},
                }
            )
        )
        with pytest.raises(ParseError, match="malformed content"):
            dataio.load_model(path)

    @staticmethod
    def write_model(path, model, populations=None):
        path.write_text(
            json.dumps(
                {
                    "covariates": ["x"],
                    "cells": [[0], [1]],
                    "populations": populations or {"pop": [0.5, 0.5]},
                    "model": model,
                }
            )
        )

    FINITE = {
        "continuous": {"type": "continuous", "b": [1, 1], "m": [0, 0]},
        "entanglement": {"type": "entanglement", "b": [0.1, 0.2], "m_b": [0, 0], "m_g": [0, 0]},
        "logit": {"type": "logit", "b": [0.0, 0.5], "m": [0, 0]},
    }

    @pytest.mark.parametrize(
        "family, field, value",
        [
            ("continuous", "b", [math.nan, 1]),
            ("continuous", "m", [math.inf, 0]),
            ("continuous", "noise_sd", math.nan),
            ("continuous", "noise_sd", "Infinity"),
            ("entanglement", "m_b", [0, -math.inf]),
            ("logit", "b", [math.nan, 0.5]),
        ],
    )
    def test_non_finite_model_value_rejected(self, tmp_path, family, field, value):
        path = tmp_path / "model.json"
        self.write_model(path, dict(self.FINITE[family], **{field: value}))
        with pytest.raises(ParseError, match=f"model.{field} must be finite") as caught:
            dataio.load_model(path)
        assert caught.value.exit_code == 2

    @pytest.mark.parametrize(
        "family, key", [("continuous", "noise-sd"), ("logit", "extra"), ("logit", "m_b")]
    )
    def test_key_naming_no_field_rejected(self, tmp_path, family, key):
        path = tmp_path / "model.json"
        self.write_model(path, dict(self.FINITE[family], **{key: [0, 0]}))
        with pytest.raises(ParseError, match=f"model.{key} is not a field of '{family}'") as caught:
            dataio.load_model(path)
        assert caught.value.exit_code == 2

    def test_non_finite_population_probability_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        self.write_model(path, self.FINITE["logit"], {"pop": [math.nan, 1.0]})
        with pytest.raises(InvariantViolation, match="'pop': cell probabilities") as caught:
            dataio.load_model(path)
        assert caught.value.exit_code == 2

    def test_file_bytes_pinned(self, tmp_path):
        """``type``, then the family's fields in declaration order: a
        per-cell function as its vector, a field with a default as a number."""
        space, continuous = next(self.spaces_and_models())
        models = [model for _, model in self.spaces_and_models()]
        models.insert(1, ContinuousOutcomeModel(continuous.b, continuous.m))
        digest = hashlib.sha256()
        for i, model in enumerate(models):
            path = tmp_path / f"model{i}.json"
            dataio.save_model(space, model, path)
            digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "f62ba56c25f34b907cafafbea2a8d421003d32d1342e6ec8e25d5c0061a3b898"
        )
        assert list(json.loads(path.read_text())["model"]) == ["type", "b", "m"]

    def test_a_field_with_a_default_may_be_left_out(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {
                    "covariates": ["x"],
                    "cells": [[0], [1]],
                    "populations": {"pop": [0.5, 0.5]},
                    "model": {"type": "continuous", "b": [1, 2], "m": [0.5, -0.5]},
                }
            )
        )
        _, model = dataio.load_model(path)
        assert model == ContinuousOutcomeModel({(0,): 1.0, (1,): 2.0}, {(0,): 0.5, (1,): -0.5})

    def test_save_refuses_what_is_not_a_model(self, tmp_path):
        space, model = next(self.spaces_and_models())
        path = tmp_path / "model.json"
        with pytest.raises(InvariantViolation, match="unsupported model type dict"):
            dataio.save_model(space, {"type": "continuous", "b": model.b}, path)
        assert not path.exists()


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


class TestPythonDigitForms:
    """Python's ``int`` and ``float`` read ``_`` digit separators and
    non-ASCII digits; this CSV format has neither, so such a field is a
    ParseError at its row and column, on every parser path."""

    @pytest.mark.parametrize(
        "load, text, row, column",
        [
            ("trial", "x,a,y\n1_0,0,1\n1,1,0\n", 2, "x"),
            ("trial", "x,a,y\n0,0,1\n١,1,0\n", 3, "x"),
            ("trial", "x,tag,a,y\n0,u,0,1\n1,１,1,0\n", 3, "tag"),
            ("trial", "x,a,y\n0,0_1,1\n1,1,0\n", 2, "a"),
            ("trial", "x,a,y\n0,0,1_0\n1,1,0\n", 2, "y"),
            ("trial", "x,a,y\n0,0,0.٥\n1,1,0\n", 2, "y"),
            ("target", "x,y0\n0,0\n1,0_0\n", 3, "y0"),
            ("target", "x\n1.5\n2_5.0\n", 3, "x"),
            ("strata", "stratum,proportion,n_a1_y1,n_a1_y0,n_a0_y1,n_a0_y0\n"
                       "a,1.0,1_000,2,3,4\n", 2, "n_a1_y1"),
            ("strata", "stratum,proportion,mu0,mu1\na,0_5,0.1,0.2\nb,0.5,0.1,0.2\n",
             2, "proportion"),
        ],
        ids=["trial-x-underscore", "trial-x-arabic-indic", "trial-tag-fullwidth",
             "trial-a-underscore", "trial-y-underscore", "trial-y-arabic-indic",
             "target-y0-underscore", "target-x-float-underscore", "strata-count-underscore",
             "strata-proportion-underscore"],
    )
    def test_rejected_with_row_and_column(self, tmp_path, load, text, row, column):
        path = tmp_path / "file.csv"
        path.write_bytes(text.encode("utf-8"))
        loaders = {"trial": [dataio.load_trial, dataio._parse_trial],
                   "target": [dataio.load_target, dataio._parse_target],
                   "strata": [dataio.load_strata]}[load]
        for loader in loaders:
            with pytest.raises(ParseError) as excinfo:
                loader(path)
            assert (excinfo.value.row, excinfo.value.column) == (row, column)

    def test_whitespace_and_non_ascii_strings_stay_accepted(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("x,tag,a,y\n 1 ,café,0, 1.5\n2,u_v,1,0\n", encoding="utf-8")
        trial = dataio.load_trial(path)
        assert trial.x.tolist() == [[1, "café"], [2, "u_v"]]
        assert trial.y.tolist() == [1.5, 0.0]


class TestUnwritableAndUnreadable:
    def test_a_bool_covariate_cannot_be_saved(self, tmp_path):
        trial = TrialSample(("flag",), ((True,), (False,)), (0, 1), (0.0, 1.0))
        with pytest.raises(InvariantViolation, match="boolean covariate values"):
            dataio.save_trial(trial, tmp_path / "trial.csv")

    def test_a_header_that_is_not_utf8_falls_to_the_column_parser(self, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_bytes(b"x\xff,a,y\n0,0,1\n0,1,0\n")
        assert dataio._typed_header(path) is None
        with pytest.raises(ParseError, match="not UTF-8 text"):
            dataio.load_trial(path)
