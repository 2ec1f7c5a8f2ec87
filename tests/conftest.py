import pathlib
import random

import pytest

from effectmeasures import dataio
from effectmeasures.measures import OutcomeKind, OutcomePair
from effectmeasures.strata import StratifiedDistribution, Stratum

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replace ``concurrent.futures.ThreadPoolExecutor`` with a stub that
    records each pool's ``max_workers`` and maps in the calling thread, so
    a test sees a study's pool sizes without starting a thread."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def protective_table():
    """Two-stratum protective-treatment table: risks 0.2->0.12 (53%) and
    0.015->0.009 (47%)."""
    return dataio.load_strata(FIXTURES / "protective_summary.csv")


@pytest.fixture
def paradox_counts():
    """Two-stratum 2x2 counts whose pooled odds ratio escapes the
    stratum range."""
    return dataio.load_strata(FIXTURES / "paradox_counts.csv")


@pytest.fixture
def roles_continuous():
    return dataio.load_roles(FIXTURES / "roles_continuous.json")


@pytest.fixture
def roles_binary():
    return dataio.load_roles(FIXTURES / "roles_binary.json")


def random_distribution(
    rng: random.Random, *, protective: bool = False
) -> StratifiedDistribution:
    """Random interior binary stratified distribution with 2-6 strata.

    ``protective`` forces mu1 < mu0 in every stratum so that all stratum
    risk differences share a sign (the NNT range property needs a
    consistent effect direction).
    """
    k = rng.randint(2, 6)
    raw = [rng.uniform(0.05, 1.0) for _ in range(k)]
    total = sum(raw)
    strata = []
    for i, w in enumerate(raw):
        mu0 = rng.uniform(0.05, 0.95)
        if protective:
            mu1 = rng.uniform(0.01, mu0 * 0.95)
        else:
            mu1 = rng.uniform(0.02, 0.98)
        strata.append(
            Stratum(f"s{i}", w / total, OutcomePair(mu0, mu1, OutcomeKind.BINARY))
        )
    return StratifiedDistribution(tuple(strata), OutcomeKind.BINARY)
