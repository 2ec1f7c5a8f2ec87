"""File formats: stratified tables, trial/target samples, model
definitions (JSON), covariate-role files, and the measure-landscape grid.

One fixed CSV dialect: comma separator, ``.`` decimal point, UTF-8,
mandatory header, ``NA`` as the only missing-value token. Parsers reject
malformed input instead of coercing it; writers emit floats in
shortest-roundtrip form so that load(save(x)) == x.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import MISSING, fields
from operator import itemgetter

import numpy as np

from .errors import InvariantViolation, ParseError
from .genmodel import MODEL_TYPES, DiscreteCovariateSpace
from .measures import MeasureKind, OutcomeKind, OutcomePair, measure_table
from .strata import StratifiedDistribution, Stratum
from .transport import CovariateRoles, TargetSample, TrialSample

__all__ = [
    "load_strata",
    "save_strata",
    "load_trial",
    "save_trial",
    "load_target",
    "save_target",
    "emit_grid",
    "load_model",
    "save_model",
    "load_roles",
]

NA = "NA"

_COUNTS_HEADER = ["stratum", "proportion", "n_a1_y1", "n_a1_y0", "n_a0_y1", "n_a0_y0"]
_SUMMARY_HEADER = ["stratum", "proportion", "mu0", "mu1"]


def _fmt(value: float) -> str:
    return repr(float(value))


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # a field beyond csv's size limit
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # line_num reads 0 when the first chunk fails
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file, header expected")
    header = [h.strip() for h in rows[0]]
    return header, rows[1:]


def _plain(texts: list[str]) -> bool:
    """Whether no field of ``texts`` has an ``_`` or a non-ASCII
    character other than surrounding whitespace. Python's ``int`` and
    ``float`` read ``1_000`` and non-ASCII digits as numbers; this format
    has neither, while whitespace is left to ``int`` and ``float``."""
    joined = "".join(texts)
    if joined.isascii():
        return "_" not in joined
    return all("_" not in text and text.strip().isascii() for text in texts)


def _parse_value(text: str):
    """Covariate values: int if int-shaped, else float, else the string.
    A number in a form this format does not have (see :func:`_plain`)
    raises ValueError."""
    for parse in (int, float):
        try:
            value = parse(text)
        except ValueError:
            continue
        if not _plain([text]):
            raise ValueError(text)
        return value
    return text


def load_strata(path, kind: OutcomeKind | None = None) -> StratifiedDistribution:
    """Read a stratified table, counts or summary variant (by header).

    Proportions off by at most 1e-6 from summing to one (hand-typed
    decimals) are renormalized; the correction is logged. For the summary
    variant the outcome kind is inferred as binary when every mean lies
    in [0, 1], unless ``kind`` overrides the inference.
    """
    header, rows = _read_rows(path)
    if header == _COUNTS_HEADER:
        variant = "counts"
    elif header == _SUMMARY_HEADER:
        variant = "summary"
    else:
        raise ParseError(f"{path}: unrecognized strata header {header!r}")
    if not rows:
        raise ParseError(f"{path}: no data rows")

    texts = _columns(header, rows)
    labels = texts[0]
    proportions = _parse_column(texts[1], "proportion", float, "a number")
    parse, expected = (int, "an integer") if variant == "counts" else (float, "a number")
    values = [_parse_column(t, c, parse, expected) for t, c in zip(texts[2:], header[2:])]

    total = sum(proportions)
    if abs(total - 1.0) > 1e-6:
        raise InvariantViolation(
            f"{path}: stratum proportions sum to {total!r}, outside the 1e-6 tolerance"
        )
    if total != 1.0:
        import logging  # here, on the one path that logs, not in every command's start-up

        logging.getLogger(__name__).info(
            "%s: renormalizing proportions by factor %r", path, 1.0 / total
        )
        proportions = [p / total for p in proportions]

    if variant == "counts":
        strata = tuple(
            Stratum.from_counts(label, p, ((n11, n10), (n01, n00)))
            for label, p, n11, n10, n01, n00 in zip(labels, proportions, *values)
        )
        return StratifiedDistribution(strata, OutcomeKind.BINARY)

    if kind is None:
        kind = (
            OutcomeKind.BINARY
            if all(0.0 <= v <= 1.0 for column in values for v in column)
            else OutcomeKind.CONTINUOUS
        )
    strata = tuple(
        Stratum(label, p, OutcomePair(mu0, mu1, kind))
        for label, p, mu0, mu1 in zip(labels, proportions, *values)
    )
    return StratifiedDistribution(strata, kind)


def save_strata(dist: StratifiedDistribution, path) -> None:
    """Write the counts variant when every stratum carries counts, the
    summary variant otherwise."""
    if all(s.counts is not None for s in dist.strata):
        header, rest = _COUNTS_HEADER, lambda s: (*s.counts[0], *s.counts[1])
    else:
        header, rest = _SUMMARY_HEADER, lambda s: (_fmt(s.pair.mu0), _fmt(s.pair.mu1))
    _write_rows(path, header, ([s.label, _fmt(s.proportion), *rest(s)] for s in dist.strata))


def _columns(header: list[str], rows: list[list[str]]) -> list[list[str]]:
    """The fields of ``rows`` column by column, once every row has as
    many fields as the header."""
    if set(map(len, rows)) - {len(header)}:
        i = next(i for i, row in enumerate(rows, start=2) if len(row) != len(header))
        raise ParseError(f"expected {len(header)} fields, got {len(rows[i - 2])}", row=i)
    return [list(map(itemgetter(j), rows)) for j in range(len(header))]


def _parse_column(texts: list[str], column: str, parse, expected: str) -> list:
    """``parse`` applied to a column of plain fields (see :func:`_plain`);
    the first field it rejects is reported with its row."""
    try:
        if not _plain(texts):
            raise ValueError
        return list(map(parse, texts))
    except ValueError:
        for i, text in enumerate(texts, start=2):
            try:
                if not _plain([text]):
                    raise ValueError
                parse(text)
            except ValueError:
                raise ParseError(f"expected {expected}, got {text!r}", row=i, column=column) from None
        raise


def _covariate_column(texts: list[str], column: str):
    """Covariate values by the rule of :func:`_parse_value`, tried on the
    whole column first; the first number in a form this format does not
    have is reported with its row."""
    if _plain(texts):
        try:
            return np.fromiter(map(int, texts), np.int64, len(texts))
        except OverflowError:  # beyond int64: exact Python ints, cell by cell
            pass
        except ValueError:
            try:
                return np.fromiter(map(float, texts), np.float64, len(texts))
            except ValueError:
                pass
    values = []
    for i, text in enumerate(texts, start=2):
        try:
            values.append(_parse_value(text))
        except ValueError:
            raise ParseError(
                f"expected a number in ASCII digits without '_', got {text!r}",
                row=i,
                column=column,
            ) from None
    return values


# the bytes of a body the typed pass reads: integers and decimal numbers only
_TYPED_BYTES = b"0123456789,.+-eE\n"


def _typed_header(path) -> list[str] | None:
    """The header of a file that the typed pass reads as the column
    parser would, else None.

    The body must hold only ``_TYPED_BYTES``, at least one row and no
    blank line (``np.loadtxt`` skips blank lines, where the column parser
    reports a row of the wrong arity); the header no quote, carriage
    return or NUL, so that splitting it at commas is what ``csv`` does.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head, _, body = data.partition(b"\n")
    if (
        not body
        or body.startswith(b"\n")
        or b"\n\n" in body
        or body.translate(None, _TYPED_BYTES)
        or any(byte in head for byte in (b'"', b"\r", b"\0"))
    ):
        return None
    try:
        text = head.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    return [h.strip() for h in text.split(",")] if text else None


def _typed_table(path, fields: list[tuple]) -> np.ndarray | None:
    """The body of ``path`` read in one ``np.loadtxt`` pass into the
    structured dtype ``fields``, or None where a field is no number of its
    type (a float in an int64 field, an integer beyond int64) or a row has
    the wrong arity.

    ``np.loadtxt`` reads a path in chunks in C, where it reads any other
    argument one line at a time in Python. A file that changed after
    :func:`_typed_header` checked it and no longer reads fails here and
    goes to the column parser, as any failed typed read does.

    NumPy 1.23 to 1.26 parse a float in an int64 field, cast it and only
    emit a DeprecationWarning; raised as an error here, it stops the read,
    so no cast value is ever returned.
    """
    name = str(path)
    # np.loadtxt opens a path through NumPy's DataSource, which would
    # decompress these suffixes and fetch a "scheme://" name as a URL
    if name.endswith((".gz", ".bz2", ".xz", ".lzma")) or "://" in name:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(
                path, dtype=fields, delimiter=",", comments=None, ndmin=1,
                skiprows=1, encoding="utf-8",
            )
    except (ValueError, DeprecationWarning, OSError):
        return None


def _trial_covariates(path, header: list[str]) -> tuple[str, ...]:
    if header[-2:] != ["a", "y"]:
        raise ParseError(f"{path}: trial header must end with 'a,y', got {header!r}")
    covariates = tuple(header[:-2])
    if not covariates:
        raise ParseError(f"{path}: trial needs at least one covariate column")
    return covariates


def load_trial(path) -> TrialSample:
    """Trial CSV: covariate columns, then ``a`` and ``y``.

    A body of integer covariates and arms in {0, 1} is read by one typed
    pass (see :func:`_typed_header`); every other file goes to the column
    parser, which alone reports errors with their row and column.
    """
    header = _typed_header(path)
    if header is not None:
        covariates = _trial_covariates(path, header)
        fields = [("x", np.int64, (len(covariates),)), ("a", np.int64), ("y", np.float64)]
        table = _typed_table(path, fields)
        if table is not None and ((table["a"] == 0) | (table["a"] == 1)).all():
            columns = dict(zip(covariates, table["x"].T))
            return TrialSample(covariates, columns, table["a"], table["y"])
    return _parse_trial(path)


def _parse_trial(path) -> TrialSample:
    """The column parser for trial CSVs."""
    header, rows = _read_rows(path)
    covariates = _trial_covariates(path, header)
    texts = _columns(header, rows)
    del rows
    a = _parse_column(texts[-2], "a", int, "an integer")
    if not set(a) <= {0, 1}:
        i, ai = next((i, ai) for i, ai in enumerate(a, start=2) if ai not in (0, 1))
        raise InvariantViolation(f"{path}: row {i}: a must be 0 or 1, got {ai}")
    y = _parse_column(texts[-1], "y", float, "a number")
    columns = {c: _covariate_column(t, c) for t, c in zip(texts[:-2], covariates)}
    return TrialSample(covariates, columns, a, y)


def save_trial(trial: TrialSample, path) -> None:
    columns = [c.tolist() for c in trial.columns] + [trial.a.tolist(), trial.y.tolist()]
    _write_rows(path, trial.covariates + ("a", "y"), zip(*columns))


def _write_rows(path, header, rows) -> None:
    """A CSV file of ``header`` and ``rows``; a field that is an int is
    written by ``str``, a float by :func:`_fmt`, a string as given."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell_text, row)) + "\n")


def _cell_text(value) -> str:
    if isinstance(value, bool):
        raise InvariantViolation("boolean covariate values are not representable")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _target_covariates(path, header: list[str]) -> tuple[tuple[str, ...], bool]:
    """The covariates, and whether a trailing ``y0`` column follows them."""
    has_y0 = bool(header) and header[-1] == "y0"
    covariates = tuple(header[:-1]) if has_y0 else tuple(header)
    if not covariates:
        raise ParseError(f"{path}: target needs at least one covariate column")
    return covariates, has_y0


def load_target(path) -> TargetSample:
    """Target CSV: covariate columns, optional trailing ``y0``.

    A body of integer covariates is read by one typed pass, as in
    :func:`load_trial`; every other file goes to the column parser.
    """
    header = _typed_header(path)
    if header is not None:
        covariates, has_y0 = _target_covariates(path, header)
        fields = [("x", np.int64, (len(covariates),))] + ([("y0", np.float64)] if has_y0 else [])
        table = _typed_table(path, fields)
        if table is not None:
            columns = dict(zip(covariates, table["x"].T))
            return TargetSample(covariates, columns, table["y0"] if has_y0 else None)
    return _parse_target(path)


def _parse_target(path) -> TargetSample:
    """The column parser for target CSVs."""
    header, rows = _read_rows(path)
    covariates, has_y0 = _target_covariates(path, header)
    texts = _columns(header, rows)
    n = len(rows)
    del rows
    y0 = None
    if has_y0:
        y0_texts = texts.pop()
        missing = y0_texts.index(NA) if NA in y0_texts else n
        y0 = _parse_column(y0_texts[:missing], "y0", float, "a number")
        if missing < n:
            raise InvariantViolation(
                f"{path}: row {missing + 2}: y0 must cover every row or the column must be absent"
            )
    columns = {c: _covariate_column(t, c) for t, c in zip(texts, covariates)}
    return TargetSample(covariates, columns, y0)


def save_target(target: TargetSample, path) -> None:
    header, columns = target.covariates, [c.tolist() for c in target.columns]
    if target.y0 is not None:
        header, columns = header + ("y0",), columns + [target.y0.tolist()]
    _write_rows(path, header, zip(*columns))


def emit_grid(resolution: int, path) -> None:
    """All eight measures over the interior lattice of the unit square.

    Points are k/(resolution+1) for k = 1..resolution on each axis;
    undefined cells carry the literal ``NA``. The lattice is computed and
    written one mu0 row at a time, so memory stays flat in ``resolution``.
    """
    if resolution < 2:
        raise InvariantViolation("resolution must be >= 2")
    axis = np.arange(1, resolution + 1) * (1.0 / (resolution + 1))
    # tolist() gives Python floats, whose repr is the shortest round trip
    axis_text = list(map(repr, axis.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["mu0", "mu1"] + [m.value for m in MeasureKind]) + "\n")
        for mu0, mu0_text in zip(axis.tolist(), axis_text):
            table = measure_table(np.full(resolution, mu0), axis, OutcomeKind.BINARY)
            columns = [[mu0_text] * resolution, axis_text]
            columns += [map(repr, values.tolist()) for values, _ in table.values()]
            rows = "\n".join(map(",".join, zip(*columns)))
            # undefined values are NaN, and no other float's repr contains "nan"
            fh.write(rows.replace("nan", NA) + "\n")


def _read_json(path, build):
    """``build`` applied to the decoded JSON of ``path``. Content that
    ``build`` cannot take, such as a missing key, a wrong JSON type, a
    non-numeric value or text that is not UTF-8, is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"{path}: malformed content: {exc}") from None


def load_model(path):
    """JSON model file -> (DiscreteCovariateSpace, model).

    Schema: ``covariates`` (names), ``cells`` (value tuples),
    ``populations`` (id -> probability vector aligned with cells), and
    ``model``: a ``type``, one of the tags of ``genmodel.MODEL_TYPES``,
    then that family's fields. A field without a default is a per-cell
    function, a vector aligned with ``cells``; a field with a default is
    a number the file may leave out. Every model value must be finite, and
    every key of ``model`` but ``type`` must name a field of the family.
    """

    def build(raw):
        cells = tuple(tuple(cell) for cell in raw["cells"])
        space = DiscreteCovariateSpace(
            tuple(raw["covariates"]),
            cells,
            {pop: tuple(v) for pop, v in raw["populations"].items()},
        )
        spec = raw["model"]
        family = MODEL_TYPES.get(spec["type"])
        if family is None:
            raise ParseError(f"{path}: unknown model type {spec['type']!r}")
        names = [field.name for field in fields(family)]
        for key in spec:
            if key not in names and key != "type":
                raise ParseError(f"{path}: model.{key} is not a field of {family.tag!r} models")
        args = {}
        for field in fields(family):
            per_cell = field.default is MISSING
            if not per_cell and field.name not in spec:
                continue
            values = list(map(float, spec[field.name] if per_cell else [spec[field.name]]))
            if per_cell and len(values) != len(cells):
                raise ParseError(f"{path}: model.{field.name} must have one value per cell")
            if not all(map(math.isfinite, values)):
                raise ParseError(f"{path}: model.{field.name} must be finite")
            args[field.name] = dict(zip(cells, values)) if per_cell else values[0]
        return space, family(**args)

    return _read_json(path, build)


def save_model(space: DiscreteCovariateSpace, model, path) -> None:
    """The file :func:`load_model` reads: ``type``, then the fields in order."""
    if not isinstance(model, tuple(MODEL_TYPES.values())):
        raise InvariantViolation(f"unsupported model type {type(model).__name__}")
    spec = {"type": model.tag}
    for field in fields(model):
        value = getattr(model, field.name)
        spec[field.name] = [value[c] for c in space.cells] if field.default is MISSING else value
    payload = {
        "covariates": list(space.covariates),
        "cells": [list(c) for c in space.cells],
        "populations": {pop: list(v) for pop, v in space.populations.items()},
        "model": spec,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_roles(path) -> CovariateRoles:
    """JSON: ``covariates`` plus ``baseline``/``modulator``/``shifted``
    name lists."""

    def build(raw) -> CovariateRoles:
        lists = []
        for key in ("covariates", "baseline", "modulator", "shifted"):
            names = raw[key]
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ParseError(f"{path}: {key} must be a JSON list of names, got {names!r}")
            lists.append(names)
        covariates, *roles = lists
        return CovariateRoles(tuple(covariates), *map(frozenset, roles))

    return _read_json(path, build)
