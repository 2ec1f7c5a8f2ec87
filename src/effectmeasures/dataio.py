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
import logging
from operator import itemgetter

import numpy as np

from .errors import InvariantViolation, ParseError
from .genmodel import (
    ContinuousOutcomeModel,
    DiscreteCovariateSpace,
    EntanglementModel,
    LogitOutcomeModel,
)
from .measures import MeasureKind, OutcomeKind, OutcomePair, measure_table
from .measures import all_measures  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .strata import StratifiedDistribution, Stratum
from .transport import CovariateRoles, TargetSample, TrialSample, stack_columns

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

logger = logging.getLogger(__name__)

NA = "NA"

_COUNTS_HEADER = ["stratum", "proportion", "n_a1_y1", "n_a1_y0", "n_a0_y1", "n_a0_y0"]
_SUMMARY_HEADER = ["stratum", "proportion", "mu0", "mu1"]


def _fmt(value: float) -> str:
    return repr(float(value))


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty file, header expected")
    header = [h.strip() for h in rows[0]]
    return header, rows[1:]


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"expected a number, got {text!r}", row=row, column=column) from None


def _parse_int(text: str, row: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", row=row, column=column) from None


def _parse_value(text: str):
    """Covariate values: int if int-shaped, else float, else the string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
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

    labels: list[str] = []
    proportions: list[float] = []
    payload: list[tuple] = []
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", row=i)
        labels.append(row[0])
        proportions.append(_parse_float(row[1], i, "proportion"))
        if variant == "counts":
            counts = tuple(_parse_int(v, i, c) for v, c in zip(row[2:], header[2:]))
            payload.append(((counts[0], counts[1]), (counts[2], counts[3])))
        else:
            payload.append((
                _parse_float(row[2], i, "mu0"),
                _parse_float(row[3], i, "mu1"),
            ))

    total = sum(proportions)
    if abs(total - 1.0) > 1e-6:
        raise InvariantViolation(
            f"{path}: stratum proportions sum to {total!r}, outside the 1e-6 tolerance"
        )
    if total != 1.0:
        logger.info("%s: renormalizing proportions by factor %r", path, 1.0 / total)
        proportions = [p / total for p in proportions]

    if variant == "counts":
        strata = tuple(
            Stratum.from_counts(label, p, counts)
            for label, p, counts in zip(labels, proportions, payload)
        )
        return StratifiedDistribution(strata, OutcomeKind.BINARY)

    if kind is None:
        kind = (
            OutcomeKind.BINARY
            if all(0.0 <= v <= 1.0 for pair in payload for v in pair)
            else OutcomeKind.CONTINUOUS
        )
    strata = tuple(
        Stratum(label, p, OutcomePair(mu0, mu1, kind))
        for label, p, (mu0, mu1) in zip(labels, proportions, payload)
    )
    return StratifiedDistribution(strata, kind)


def save_strata(dist: StratifiedDistribution, path) -> None:
    """Write the counts variant when every stratum carries counts, the
    summary variant otherwise."""
    with_counts = all(s.counts is not None for s in dist.strata)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if with_counts:
            fh.write(",".join(_COUNTS_HEADER) + "\n")
            for s in dist.strata:
                (n11, n10), (n01, n00) = s.counts
                fh.write(
                    f"{s.label},{_fmt(s.proportion)},{n11},{n10},{n01},{n00}\n"
                )
        else:
            fh.write(",".join(_SUMMARY_HEADER) + "\n")
            for s in dist.strata:
                fh.write(
                    f"{s.label},{_fmt(s.proportion)},{_fmt(s.pair.mu0)},{_fmt(s.pair.mu1)}\n"
                )


def _columns(header: list[str], rows: list[list[str]]) -> list[list[str]]:
    """The fields of ``rows`` column by column, once every row has as
    many fields as the header."""
    if set(map(len, rows)) - {len(header)}:
        i = next(i for i, row in enumerate(rows, start=2) if len(row) != len(header))
        raise ParseError(f"expected {len(header)} fields, got {len(rows[i - 2])}", row=i)
    return [list(map(itemgetter(j), rows)) for j in range(len(header))]


def _parse_column(texts: list[str], column: str, parse, expected: str) -> list:
    """``parse`` applied to a column; the first field it rejects is reported
    with its row."""
    try:
        return list(map(parse, texts))
    except ValueError:
        for i, text in enumerate(texts, start=2):
            try:
                parse(text)
            except ValueError:
                raise ParseError(f"expected {expected}, got {text!r}", row=i, column=column) from None
        raise


def _covariate_column(texts: list[str]):
    """Covariate values by the rule of :func:`_parse_value`, tried on the
    whole column first."""
    try:
        return np.fromiter(map(int, texts), np.int64, len(texts))
    except OverflowError:  # beyond int64: exact Python ints, cell by cell
        return [_parse_value(text) for text in texts]
    except ValueError:
        pass
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        return [_parse_value(text) for text in texts]


def _covariate_rows(texts: list[list[str]], n: int):
    return stack_columns([_covariate_column(t) for t in texts], n)


def load_trial(path) -> TrialSample:
    """Trial CSV: covariate columns, then ``a`` and ``y``."""
    header, rows = _read_rows(path)
    if header[-2:] != ["a", "y"]:
        raise ParseError(f"{path}: trial header must end with 'a,y', got {header!r}")
    covariates = tuple(header[:-2])
    if not covariates:
        raise ParseError(f"{path}: trial needs at least one covariate column")
    texts = _columns(header, rows)
    del rows
    a = _parse_column(texts[-2], "a", int, "an integer")
    if not set(a) <= {0, 1}:
        i, ai = next((i, ai) for i, ai in enumerate(a, start=2) if ai not in (0, 1))
        raise InvariantViolation(f"{path}: row {i}: a must be 0 or 1, got {ai}")
    y = _parse_column(texts[-1], "y", float, "a number")
    return TrialSample(covariates, _covariate_rows(texts[:-2], len(a)), a, y)


def save_trial(trial: TrialSample, path) -> None:
    columns = [c.tolist() for c in trial.columns] + [trial.a.tolist(), trial.y.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(trial.covariates + ("a", "y")) + "\n")
        for *row, a, y in zip(*columns):
            cells = [_cell_text(v) for v in row] + [str(a), _fmt(y)]
            fh.write(",".join(cells) + "\n")


def _cell_text(value) -> str:
    if isinstance(value, bool):
        raise InvariantViolation("boolean covariate values are not representable")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def load_target(path) -> TargetSample:
    """Target CSV: covariate columns, optional trailing ``y0``."""
    header, rows = _read_rows(path)
    has_y0 = header and header[-1] == "y0"
    covariates = tuple(header[:-1]) if has_y0 else tuple(header)
    if not covariates:
        raise ParseError(f"{path}: target needs at least one covariate column")
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
    return TargetSample(covariates, _covariate_rows(texts, n), y0)


def save_target(target: TargetSample, path) -> None:
    header = target.covariates + (("y0",) if target.y0 is not None else ())
    columns = [c.tolist() for c in target.columns]
    if target.y0 is not None:
        columns.append([_fmt(v) for v in target.y0.tolist()])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(map(_cell_text, row)) + "\n")


def emit_grid(resolution: int, path) -> None:
    """All eight measures over the interior lattice of the unit square.

    Points are k/(resolution+1) for k = 1..resolution on each axis;
    undefined cells carry the literal ``NA``. The lattice is computed and
    written one mu0 row at a time, so memory stays flat in ``resolution``.
    """
    if resolution < 2:
        raise InvariantViolation("resolution must be >= 2")
    axis = np.arange(1, resolution + 1) * (1.0 / (resolution + 1))
    axis_text = list(map(_fmt, axis.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["mu0", "mu1"] + [m.value for m in MeasureKind]) + "\n")
        for mu0, mu0_text in zip(axis.tolist(), axis_text):
            table = measure_table(np.full(resolution, mu0), axis, OutcomeKind.BINARY)
            columns = [[mu0_text] * resolution, axis_text]
            columns += [map(_fmt, values.tolist()) for values, _ in table.values()]
            rows = "\n".join(map(",".join, zip(*columns)))
            # undefined values are NaN, and no other float's repr contains "nan"
            fh.write(rows.replace("nan", NA) + "\n")


def _cells_from_json(raw) -> tuple[tuple, ...]:
    return tuple(tuple(cell) for cell in raw)


def load_model(path):
    """JSON model file -> (DiscreteCovariateSpace, model).

    Schema: ``covariates`` (names), ``cells`` (value tuples),
    ``populations`` (id -> probability vector aligned with cells), and
    ``model`` with a ``type`` of "continuous" (b, m, optional noise_sd),
    "entanglement" (b, m_b, m_g) or "logit" (b, m); per-cell function
    values are vectors aligned with ``cells``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    try:
        cells = _cells_from_json(raw["cells"])
        space = DiscreteCovariateSpace(
            tuple(raw["covariates"]),
            cells,
            {pop: tuple(v) for pop, v in raw["populations"].items()},
        )
        spec = raw["model"]
        mtype = spec["type"]

        def fn(name: str) -> dict:
            values = spec[name]
            if len(values) != len(cells):
                raise ParseError(f"{path}: model.{name} must have one value per cell")
            return dict(zip(cells, (float(v) for v in values)))

        if mtype == "continuous":
            model = ContinuousOutcomeModel(fn("b"), fn("m"), float(spec.get("noise_sd", 0.0)))
        elif mtype == "entanglement":
            model = EntanglementModel(fn("b"), fn("m_b"), fn("m_g"))
        elif mtype == "logit":
            model = LogitOutcomeModel(fn("b"), fn("m"))
        else:
            raise ParseError(f"{path}: unknown model type {mtype!r}")
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from None
    return space, model


def save_model(space: DiscreteCovariateSpace, model, path) -> None:
    def vector(fn) -> list[float]:
        return [fn[c] for c in space.cells]

    if isinstance(model, ContinuousOutcomeModel):
        spec = {"type": "continuous", "b": vector(model.b), "m": vector(model.m),
                "noise_sd": model.noise_sd}
    elif isinstance(model, EntanglementModel):
        spec = {"type": "entanglement", "b": vector(model.b), "m_b": vector(model.m_b),
                "m_g": vector(model.m_g)}
    elif isinstance(model, LogitOutcomeModel):
        spec = {"type": "logit", "b": vector(model.b), "m": vector(model.m)}
    else:
        raise InvariantViolation(f"unsupported model type {type(model).__name__}")
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
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    try:
        return CovariateRoles(
            tuple(raw["covariates"]),
            frozenset(raw["baseline"]),
            frozenset(raw["modulator"]),
            frozenset(raw["shifted"]),
        )
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from None
