"""Correctness checks on the program's output files.

Each check returns a list of error messages, empty when the output is
right. The expected values come from :mod:`oracles` and from the
benchmark's own re-computation of the estimators on the input files;
none comes from the program or from a stored copy of an earlier output.

Monte-Carlo checks compare a median (or an estimate) with its exact
large-sample limit, within ``MC_SIGMAS`` standard errors taken from the
output itself. At six standard errors a correct program fails such a
check on fewer than one seed in 10^5, so a failure is a fault, not luck.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import oracles

MC_SIGMAS = 6.0
# sd(median) / sd(mean) for a large sample of a smooth distribution
_MEDIAN_EFFICIENCY = math.sqrt(math.pi / 2.0)

REPORT_HEADER = [
    "scenario", "rep", "measure", "strategy", "covariate_set", "estimate", "ground_truth",
]

# The default estimator configurations of each built-in study, in report
# order: (measure, strategy, covariates).
SIMULATE_CONFIGS = {
    "roulette-heterogeneous": (
        ("sr", "local", ("stress",)),
        ("rd", "ipsw", ("stress",)),
        ("rd", "gformula", ("stress",)),
        ("sr", "local", ("lifestyle", "stress")),
        ("rd", "ipsw", ("lifestyle", "stress")),
        ("rr", "gformula", ("lifestyle", "stress")),
        ("or", "gformula", ("lifestyle", "stress")),
    ),
    "continuous-linear": (
        ("rd", "gformula", ("X1", "X2")),
        ("rd", "local", ("X1", "X2")),
        ("rd", "gformula", ("X1", "X2", "X3", "X4")),
        ("rr", "gformula", ("X1", "X2")),
        ("rr", "gformula", ("X1", "X2", "X3", "X4")),
    ),
}
_TRUTH = {
    "roulette-heterogeneous": oracles.roulette_truth,
    "continuous-linear": oracles.continuous_truth,
}
_LIMIT = {
    "roulette-heterogeneous": oracles.roulette_limit,
    "continuous-linear": oracles.continuous_limit,
}


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text: str):
    """Parse JSON, refusing the NaN/Infinity tokens Python's parser accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(got: float, want: float, rel: float) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=0.0)


def _mc_error(name: str, value: float, limit: float, se: float) -> list[str]:
    if abs(value - limit) <= MC_SIGMAS * se:
        return []
    return [
        f"{name}: {value!r} lies {abs(value - limit) / se:.1f} standard errors "
        f"(se {se:.3g}) from its large-sample limit {limit!r}"
    ]


def check_simulate(scenario: str, reps: int, csv_path, stdout_text: str) -> list[str]:
    """Report CSV and ``--json`` summaries of one ``simulate`` run."""
    configs = SIMULATE_CONFIGS[scenario]
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != REPORT_HEADER:
        return [f"report header is {rows[:1]!r}, expected {REPORT_HEADER!r}"]
    body = rows[1:]
    if len(body) != reps * len(configs):
        return [f"report has {len(body)} rows, expected {reps} reps x {len(configs)} configs"]
    errors: list[str] = []
    values: dict[tuple, list[float]] = {cfg: [] for cfg in configs}
    for i, row in enumerate(body):
        rep, k = divmod(i, len(configs))
        measure, strategy, covariates = cfg = configs[k]
        where = f"report row {i + 2}"
        prefix = [scenario, str(rep), measure, strategy, "+".join(covariates)]
        if row[:5] != prefix or len(row) != 7:
            return [f"{where}: {row!r} is out of order or malformed"]
        if row[5] == "NA":
            errors.append(f"{where}: estimate is NA")
            continue
        estimate, truth = float(row[5]), float(row[6])
        want = float(_TRUTH[scenario](measure))
        if not _close(truth, want, 1e-12):
            errors.append(f"{where}: ground_truth {truth!r} differs from the exact {want!r}")
        if not math.isfinite(estimate):
            errors.append(f"{where}: estimate {estimate!r} is not finite")
            continue
        values[cfg].append(estimate)
    if errors:
        return errors

    try:
        summaries = strict_json(stdout_text.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return [f"--json output does not parse: {exc}"]
    if len(summaries) != len(configs):
        return [f"--json output has {len(summaries)} summaries, expected {len(configs)}"]
    for cfg, summary in zip(configs, summaries):
        measure, strategy, covariates = cfg
        name = f"{measure}/{strategy}/{'+'.join(covariates)}"
        v = np.asarray(values[cfg])
        q1, median, q3 = np.quantile(v, [0.25, 0.5, 0.75])
        expected = {
            "measure": measure,
            "strategy": strategy,
            "covariates": list(covariates),
            "n_failed": 0,
            "ground_truth": float(body[configs.index(cfg)][6]),
        }
        for key, want in expected.items():
            if summary.get(key) != want:
                errors.append(f"{name}: --json {key} is {summary.get(key)!r}, expected {want!r}")
        stats = {"median": (median, 1e-12), "q1": (q1, 1e-12), "q3": (q3, 1e-12),
                 "mean": (v.mean(), 1e-12), "sd": (v.std(ddof=1), 1e-9)}
        for key, (want, rel) in stats.items():
            got = summary.get(key)
            if not isinstance(got, float) or not _close(got, float(want), rel):
                errors.append(f"{name}: --json {key} is {got!r}, the report gives {float(want)!r}")
        se = _MEDIAN_EFFICIENCY * v.std(ddof=1) / math.sqrt(len(v))
        limit = float(_LIMIT[scenario](measure, strategy, covariates))
        errors += _mc_error(f"{name} median", float(median), limit, se)
    return errors


def check_grid(path, resolution: int) -> list[str]:
    """All lattice rows against the closed forms; NNT is ``NA`` exactly on
    the diagonal and nothing else is ever ``NA``."""
    header = "mu0,mu1," + ",".join(oracles.GRID_COLUMNS)
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[0] != header:
        return [f"grid header is {lines[0]!r}, expected {header!r}"]
    if lines[-1] != "":
        return ["grid file does not end with a newline"]
    fields = [line.split(",") for line in lines[1:-1]]
    if len(fields) != resolution * resolution:
        return [f"grid has {len(fields)} rows, expected {resolution * resolution}"]
    if any(len(f) != 10 for f in fields):
        return ["grid has a row without exactly 10 fields"]
    na = np.array([[v == "NA" for v in f] for f in fields])
    try:
        data = np.array([[math.nan if v == "NA" else float(v) for v in f] for f in fields])
    except ValueError as exc:
        return [f"grid has a non-numeric field: {exc}"]

    errors: list[str] = []
    k = np.arange(1, resolution + 1, dtype=float) / (resolution + 1)
    lattice0, lattice1 = np.repeat(k, resolution), np.tile(k, resolution)
    mu0, mu1 = data[:, 0], data[:, 1]
    for name, got, want in (("mu0", mu0, lattice0), ("mu1", mu1, lattice1)):
        bad = ~np.isclose(got, want, rtol=1e-12, atol=0.0)
        if bad.any():
            errors.append(f"{name} is off the lattice k/{resolution + 1} on {int(bad.sum())} rows")
    index = np.arange(resolution)
    diagonal = np.repeat(index, resolution) == np.tile(index, resolution)
    nnt_col = 2 + oracles.GRID_COLUMNS.index("nnt")
    expected_na = np.zeros_like(na)
    expected_na[:, nnt_col] = diagonal
    if (na != expected_na).any():
        errors.append(
            f"NA on {int(na.sum())} fields; expected exactly the {resolution} diagonal NNT fields"
        )
    expected = oracles.grid_measures(mu0, mu1)
    for col, name in enumerate(oracles.GRID_COLUMNS, start=2):
        defined = ~expected_na[:, col]
        got, want = data[defined, col], expected[name][defined]
        bad = ~np.isclose(got, want, rtol=1e-9, atol=1e-12)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            errors.append(
                f"{name} differs from its closed form on {int(bad.sum())} rows, "
                f"e.g. {float(got[i])!r} vs {float(want[i])!r}"
            )
    return errors


# ------------------------------------------------------------- transport

# (measure, strategy, covariates) of each transport command
TRANSPORT_RUNS = (
    ("rd", "gformula", ("lifestyle", "stress")),
    ("rd", "ipsw", ("lifestyle", "stress")),
    ("sr", "local", ("stress",)),
)
_BATCHES = 20


def _read_table(path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _cell_codes(table: dict[str, np.ndarray], covariates) -> np.ndarray:
    """Binary covariates -> cell index sum(x_k * 2^k)."""
    code = np.zeros(len(table[covariates[0]]), dtype=np.int64)
    for k, name in enumerate(covariates):
        code += table[name].astype(np.int64) << k
    return code


def _estimate(measure, strategy, covariates, trial, target) -> float:
    """Cell-means g-formula, IPSW with empirical density ratios, or the
    local estimator with target collapsibility weights."""
    cells = 1 << len(covariates)
    code_s, code_t = _cell_codes(trial, covariates), _cell_codes(target, covariates)
    a, y = trial["a"], trial["y"]
    p_t = np.bincount(code_t, minlength=cells) / len(code_t)
    if strategy == "ipsw":
        p_s = np.bincount(code_s, minlength=cells) / len(code_s)
        ratio = np.divide(p_t, p_s, out=np.zeros(cells), where=p_s > 0)
        mu0, mu1 = ((ratio[code_s] * y)[a == arm].mean() for arm in (0, 1))
        return float(oracles.binary_measure(measure, mu0, mu1))
    arm_mean = []
    for arm in (0, 1):
        sel = a == arm
        n = np.bincount(code_s[sel], minlength=cells)
        s = np.bincount(code_s[sel], weights=y[sel], minlength=cells)
        arm_mean.append(np.divide(s, n, out=np.full(cells, np.nan), where=n > 0))
    used = p_t > 0
    if strategy == "gformula":
        mu0, mu1 = (float(np.sum(p_t[used] * m[used])) for m in arm_mean)
        return float(oracles.binary_measure(measure, mu0, mu1))
    local = oracles.binary_measure(measure, arm_mean[0][used], arm_mean[1][used])
    y0_sum = np.bincount(code_t, weights=target["y0"], minlength=cells)
    y0_mean = y0_sum[used] / np.bincount(code_t, minlength=cells)[used]
    p = p_t[used]
    weight = {"rd": p, "rr": p * y0_mean, "sr": p * (1.0 - y0_mean)}[measure]
    return float(np.sum(weight / weight.sum() * local))


def recompute_transport(trial_path, target_path) -> dict[tuple, tuple[float, float]]:
    """For each transport run: (estimate from the files, its standard
    error from ``_BATCHES`` disjoint batches of both files)."""
    trial, target = _read_table(trial_path), _read_table(target_path)
    out = {}
    for run in TRANSPORT_RUNS:
        full = _estimate(*run, trial, target)
        split_s = np.array_split(np.arange(len(trial["a"])), _BATCHES)
        split_t = np.array_split(np.arange(len(target["y0"])), _BATCHES)
        batch = [
            _estimate(
                *run, {k: v[i] for k, v in trial.items()}, {k: v[j] for k, v in target.items()}
            )
            for i, j in zip(split_s, split_t)
        ]
        out[run] = (full, float(np.std(batch, ddof=1) / math.sqrt(_BATCHES)))
    return out


def check_transport(
    run, stdout_text: str, expected: tuple[float, float], n: int, m: int
) -> list[str]:
    """One ``transport --json`` record against the re-computation and the
    exact limit of the roulette model."""
    measure, strategy, covariates = run
    name = f"{measure}/{strategy}/{'+'.join(covariates)}"
    try:
        record = strict_json(stdout_text.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return [f"{name}: output does not parse: {exc}"]
    want = {"measure": measure, "strategy": strategy, "covariates": list(covariates),
            "n_source": n, "n_target": m}
    errors = [
        f"{name}: {key} is {record.get(key)!r}, expected {value!r}"
        for key, value in want.items() if record.get(key) != value
    ]
    value, (recomputed, se) = record.get("value"), expected
    if not isinstance(value, float) or not _close(value, recomputed, 1e-9):
        return errors + [f"{name}: value {value!r}, re-computed from the files {recomputed!r}"]
    limit = float(oracles.roulette_limit(measure, strategy, covariates))
    return errors + _mc_error(name, value, limit, se)
