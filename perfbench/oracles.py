"""Exact oracles for the benchmark's correctness checks.

Every number here is derived from the models as the scenarios state them
(rates, coefficients, moments), in exact rational arithmetic. Nothing in
this module imports the program, so a fault in ``simbench``, ``genmodel``,
``transport`` or ``measures`` cannot leak into the value it is checked
against.

* Roulette (binary heterogeneous harm): the 8 covariate cells are
  enumerated with ``fractions.Fraction``. For each estimator
  configuration the large-sample limit is the enumeration the estimator
  converges to: condition on the retained covariates with *source*
  proportions, then weight by *target* proportions.
* Continuous linear: truths from the Gaussian and Bernoulli means, and
  the limit of each per-arm least-squares g-formula as the population
  linear projection in the source, averaged over target means.
* Grid: the eight measures in closed form on NumPy arrays.
"""

from __future__ import annotations

from fractions import Fraction as F
from itertools import product

import numpy as np

# ---------------------------------------------------------------- roulette

ROULETTE_COVARIATES = ("lifestyle", "stress", "gender")
# P(covariate == 1) per population; gender does not shift.
ROULETTE_RATES = {
    "source": (F(2, 5), F(4, 5), F(1, 2)),
    "target": (F(3, 5), F(1, 5), F(1, 2)),
}
ROULETTE_CELLS = tuple(product((0, 1), repeat=3))


def roulette_baseline(lifestyle: int, stress: int, gender: int) -> F:
    """b(x): 0.2 for an unhealthy lifestyle (0.05 otherwise), doubled
    under stress, halved for gender 1."""
    return (F(1, 5) if lifestyle else F(1, 20)) * (2 if stress else 1) * (F(1, 2) if gender else 1)


def roulette_switch_on(lifestyle: int, stress: int, gender: int) -> F:
    """m_b(x): 1/4 under stress, else 1/10 for gender 1 and 1/6 for gender 0."""
    if stress:
        return F(1, 4)
    return F(1, 10) if gender else F(1, 6)


def roulette_risk(cell: tuple[int, int, int], arm: int) -> F:
    """P[Y(arm) = 1 | cell]; the switch-off probability is zero."""
    b = roulette_baseline(*cell)
    return b + arm * (1 - b) * roulette_switch_on(*cell)


def roulette_cell_probability(cell: tuple[int, int, int], population: str) -> F:
    p = F(1)
    for value, rate in zip(cell, ROULETTE_RATES[population]):
        p *= rate if value else 1 - rate
    return p


def _conditional_means(covariates, population, f) -> dict[tuple, tuple[F, F]]:
    """{retained cell: (P(cell), E[f | cell])} in ``population``."""
    idx = [ROULETTE_COVARIATES.index(c) for c in covariates]
    mass: dict[tuple, F] = {}
    total: dict[tuple, F] = {}
    for cell in ROULETTE_CELLS:
        key = tuple(cell[i] for i in idx)
        p = roulette_cell_probability(cell, population)
        mass[key] = mass.get(key, F(0)) + p
        total[key] = total.get(key, F(0)) + p * f(cell)
    return {k: (mass[k], total[k] / mass[k]) for k in mass}


def binary_measure(measure: str, mu0: F, mu1: F) -> F:
    """RD, RR, SR or OR of an exact pair of event probabilities."""
    if measure == "rd":
        return mu1 - mu0
    if measure == "rr":
        return mu1 / mu0
    if measure == "sr":
        return (1 - mu1) / (1 - mu0)
    if measure == "or":
        return (mu1 * (1 - mu0)) / (mu0 * (1 - mu1))
    raise ValueError(f"no binary oracle for {measure!r}")


def roulette_truth(measure: str) -> F:
    """The measure on the target population's marginal pair."""
    mu = [
        sum(roulette_cell_probability(c, "target") * roulette_risk(c, a) for c in ROULETTE_CELLS)
        for a in (0, 1)
    ]
    return binary_measure(measure, mu[0], mu[1])


def roulette_limit(measure: str, strategy: str, covariates: tuple[str, ...]) -> F:
    """Large-sample limit of a cell-means estimator on ``covariates``.

    The g-formula and IPSW (with empirical density ratios) share one
    limit: per-arm source means within each retained cell, averaged with
    target cell proportions. The local estimator takes the measure within
    each retained cell and recombines with target collapsibility weights:
    proportions for RD, scaled by the target control risk for RR and by
    the target control survival for SR.
    """
    src = [
        _conditional_means(covariates, "source", lambda c, a=a: roulette_risk(c, a))
        for a in (0, 1)
    ]
    tgt0 = _conditional_means(covariates, "target", lambda c: roulette_risk(c, 0))
    if strategy in ("gformula", "ipsw"):
        mu = [sum(tgt0[k][0] * src[a][k][1] for k in tgt0) for a in (0, 1)]
        return binary_measure(measure, mu[0], mu[1])
    if strategy != "local":
        raise ValueError(f"unknown strategy {strategy!r}")
    raw = {}
    for k, (p_t, y0_t) in tgt0.items():
        raw[k] = {"rd": p_t, "rr": p_t * y0_t, "sr": p_t * (1 - y0_t)}[measure]
    total = sum(raw.values())
    return sum(raw[k] / total * binary_measure(measure, src[0][k][1], src[1][k][1]) for k in raw)


# -------------------------------------------------------------- continuous

CONTINUOUS_COVARIATES = ("X1", "X2", "X3", "X4", "X5", "X6")
# (X1, X2, X3) Gaussian with unit variances and correlations 12: 0,
# 13: 0.5, 23: 0.2; X4 ~ Bernoulli (shifted), X5 ~ Bernoulli(0.8),
# X6 ~ Normal(4, 1), all independent of each other and of (X1, X2, X3).
_GAUSS_COV = ((F(1), F(0), F(1, 2)), (F(0), F(1), F(1, 5)), (F(1, 2), F(1, 5), F(1)))
_CONTINUOUS_MEANS = {
    "source": (F(6), F(5), F(8)),
    "target": (F(15), F(7), F(10)),
}
_P4 = {"source": F(4, 5), "target": F(3, 10)}
_P5 = F(4, 5)
# y = b(x) + a*m(x) + noise, both linear in x.
BASELINE_COEF = (F(1, 20), F(1, 25), F(2), F(1), F(2), F(-2))
MODULATION_COEF = (F(3, 2), F(2), F(0), F(0), F(1), F(0))


def continuous_mean(population: str) -> tuple[F, ...]:
    return _CONTINUOUS_MEANS[population] + (_P4[population], _P5, F(4))


def continuous_covariance(population: str) -> list[list[F]]:
    cov = [[F(0)] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            cov[i][j] = _GAUSS_COV[i][j]
    cov[3][3] = _P4[population] * (1 - _P4[population])
    cov[4][4] = _P5 * (1 - _P5)
    cov[5][5] = F(1)
    return cov


def _solve(a: list[list[F]], b: list[F]) -> list[F]:
    """Gauss-Jordan elimination in exact arithmetic (a is nonsingular)."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col] / m[col][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _arm_coef(arm: int) -> tuple[F, ...]:
    return tuple(b + arm * m for b, m in zip(BASELINE_COEF, MODULATION_COEF))


def _continuous_pair_truth() -> tuple[F, F]:
    mu = continuous_mean("target")
    return tuple(sum(c * x for c, x in zip(_arm_coef(a), mu)) for a in (0, 1))


def _continuous_pair_limit(covariates: tuple[str, ...]) -> tuple[F, F]:
    """Per-arm least squares of y on (1, X_S) in the source, averaged
    over the target: E_s[y_a] + beta_S . (E_t[X_S] - E_s[X_S])."""
    idx = [CONTINUOUS_COVARIATES.index(c) for c in covariates]
    mu_s, mu_t = continuous_mean("source"), continuous_mean("target")
    cov = continuous_covariance("source")
    out = []
    for arm in (0, 1):
        coef = _arm_coef(arm)
        cov_sy = [sum(cov[i][k] * coef[k] for k in range(6)) for i in idx]
        beta = _solve([[cov[i][j] for j in idx] for i in idx], cov_sy)
        mean_y = sum(c * x for c, x in zip(coef, mu_s))
        out.append(mean_y + sum(bi * (mu_t[i] - mu_s[i]) for bi, i in zip(beta, idx)))
    return out[0], out[1]


def _continuous_measure(measure: str, mu0: F, mu1: F) -> F:
    if measure == "rd":
        return mu1 - mu0
    if measure == "rr":
        return mu1 / mu0
    raise ValueError(f"no continuous oracle for {measure!r}")


def continuous_truth(measure: str) -> F:
    return _continuous_measure(measure, *_continuous_pair_truth())


def continuous_limit(measure: str, strategy: str, covariates: tuple[str, ...]) -> F:
    """Limit of the least-squares g-formula; the least-squares local
    estimator (RD only) is the same contrast of the same two fits."""
    if strategy not in ("gformula", "local") or (strategy == "local" and measure != "rd"):
        raise ValueError(f"no least-squares oracle for {measure}/{strategy}")
    return _continuous_measure(measure, *_continuous_pair_limit(covariates))


# -------------------------------------------------------------------- grid

GRID_COLUMNS = ("rd", "rr", "sr", "err", "rs", "nnt", "or", "log_or")


def grid_measures(mu0: np.ndarray, mu1: np.ndarray) -> dict[str, np.ndarray]:
    """The eight measures in closed form; NNT is NaN where mu0 == mu1."""
    diff = mu1 - mu0
    with np.errstate(divide="ignore"):
        nnt = np.where(diff == 0.0, np.nan, 1.0 / np.where(diff == 0.0, 1.0, diff))
    return {
        "rd": diff,
        "rr": mu1 / mu0,
        "sr": (1.0 - mu1) / (1.0 - mu0),
        "err": diff / mu0,
        "rs": diff / (1.0 - mu0),
        "nnt": nnt,
        "or": (mu1 * (1.0 - mu0)) / (mu0 * (1.0 - mu1)),
        "log_or": np.log(mu1) - np.log1p(-mu1) - np.log(mu0) + np.log1p(-mu0),
    }
