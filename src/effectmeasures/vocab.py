"""The names the CLI parses, kept free of NumPy so that ``--help`` and
argument errors load nothing else. ``measures``, ``genmodel`` and
``transport`` re-export the enums they compute with."""

from __future__ import annotations

import enum


class OutcomeKind(enum.Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


class MeasureKind(enum.Enum):
    RD = "rd"
    RR = "rr"
    SR = "sr"
    ERR = "err"
    RS = "rs"
    NNT = "nnt"
    OR = "or"
    LOG_OR = "log_or"


class MonotonicityDirection(enum.Enum):
    BENEFICIAL = "beneficial"  # treatment never causes the event: m_b == 0
    HARMFUL = "harmful"  # treatment never prevents the event: m_g == 0
    NON_MONOTONE = "non-monotone"


class Strategy(enum.Enum):
    CONDITIONAL_OUTCOME = "conditional"
    LOCAL_EFFECT = "local"


class Learner(enum.Enum):
    CELL_MEANS = "cell-means"
    LEAST_SQUARES = "least-squares"


#: The estimator names of ``simbench.estimators()`` and ``transport --strategy``.
ESTIMATOR_NAMES = ("gformula", "ipsw", "local")
