"""Command-line interface.

Subcommands: ``measures``, ``collapse``, ``plan``, ``transport``,
``simulate``, ``grid``. Human-readable tables by default; ``--json``
switches stdout to JSON. Diagnostics go to stderr.

Exit codes: 0 success, 5 I/O failure, and for a library error the
``exit_code`` its class declares (see :mod:`effectmeasures.errors`):
2 validation failure, 3 measure/plan semantics (non-collapsible,
undefined measure, missing control outcomes), 4 support violation.

The parser needs only :mod:`effectmeasures.vocab`, so ``--help`` and
argument errors never load NumPy: each handler imports the modules it
runs and calls them as module attributes (``dataio.load_trial``).

``--workers`` is the only source of compute threads: before a handler
loads NumPy, :func:`main` sets ``OMP_NUM_THREADS=1`` unless the caller set
it, so BLAS runs on one thread. No operand here is large enough to share
(least-squares designs of at most 7 columns), and an idle OpenBLAS worker
busy-waits beside the study. ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` and ``MKL_NUM_THREADS`` are read before
``OMP_NUM_THREADS``, so a caller's own count still wins.
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import os
import sys

from .errors import EffectMeasureError, NonCollapsible, SupportViolation
from .vocab import (
    ESTIMATOR_NAMES, Learner, MeasureKind, MonotonicityDirection, OutcomeKind, Strategy,
)

EXIT_OK = 0
EXIT_VALIDATION = EffectMeasureError.exit_code
EXIT_SEMANTICS = NonCollapsible.exit_code
EXIT_SUPPORT = SupportViolation.exit_code
EXIT_IO = 5


def _enum_type(kind: type[enum.Enum], error: str):
    """An argparse type for the values of ``kind``; ``error`` words a
    rejection, with ``text`` and the accepted ``values`` filled in."""

    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            values = [k.value for k in kind]
            raise argparse.ArgumentTypeError(error.format(text=text, values=values)) from None

    return parse


_measure = _enum_type(MeasureKind, "unknown measure {text!r}; choose from {values}")
_kind = _enum_type(OutcomeKind, "outcome kind must be 'binary' or 'continuous'")
_direction = _enum_type(MonotonicityDirection, "direction must be one of {values}")


def _covariate_list(text: str) -> tuple[str, ...]:
    names = tuple(c for c in text.split(",") if c)
    if not names:
        raise argparse.ArgumentTypeError("covariate list must be non-empty")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"duplicate covariate names in {text!r}")
    return names


def _nnt_tag(value: float) -> str:
    # Events are coded as harms: a negative signed NNT means treatment
    # prevents events.
    return "benefit" if value < 0 else "harm"


def _print_measure_rows(entries, as_json: bool) -> None:
    from .measures import MeasureValue
    if as_json:
        payload = []
        for entry in entries:
            if isinstance(entry, MeasureValue):
                rec = {"measure": entry.measure.value, "value": entry.value}
                if entry.measure is MeasureKind.NNT:
                    rec["magnitude"] = abs(entry.value)
                    rec["tag"] = _nnt_tag(entry.value)
                payload.append(rec)
            else:
                payload.append({"measure": entry.measure.value, "undefined": entry.reason})
        print(json.dumps(payload))
        return
    for entry in entries:
        if isinstance(entry, MeasureValue):
            if entry.measure is MeasureKind.NNT:
                print(f"{entry.measure.value:<8}{abs(entry.value):.3f} ({_nnt_tag(entry.value)})")
            else:
                print(f"{entry.measure.value:<8}{entry.value:.3f}")
        else:
            print(f"{entry.measure.value:<8}undefined: {entry.reason}")


def _cmd_measures(args) -> int:
    from . import measures
    pair = measures.OutcomePair(args.mu0, args.mu1, args.kind)
    if args.swap_labels:
        pair = measures.swap_labels(pair)
    _print_measure_rows(measures.all_measures(pair), args.json)
    return EXIT_OK


def _cmd_collapse(args) -> int:
    from . import dataio, strata
    dist = dataio.load_strata(args.strata)
    measure = args.measure
    evaluated = strata.StratifiedMeasure(measure, dist)
    try:
        weights = evaluated.weights()
    except NonCollapsible:
        weights = None
    if weights is None:
        signed = evaluated.naive_average()
        magnitude = math.fsum(
            s.proportion * abs(v) for s, v in zip(dist.strata, evaluated.values)
        )
        print(
            f"{measure.value} is not collapsible: no weighted average of stratum "
            f"values recovers the marginal.",
            file=sys.stderr,
        )
        print(
            f"naive proportion-weighted average {signed:.4g} "
            f"(magnitudes: {magnitude:.4g}) is NOT the population value.",
            file=sys.stderr,
        )
        record = {
            "measure": measure.value,
            "collapsible": False,
            "marginal": evaluated.marginal.value,
            "naive_average": signed,
            "naive_magnitude_average": magnitude,
        }
    else:
        collapsed = evaluated.collapse()
        record = {
            "measure": measure.value,
            "weights": {s.label: w for s, w in zip(dist.strata, weights.weights)},
            "collapsed": collapsed.value,
            "marginal": evaluated.marginal.value,
        }
    if args.check_logic:
        report = evaluated.logic()
        record["logic_respecting"] = report.respected
        record["stratum_range"] = [report.low, report.high]
    if args.json:
        print(json.dumps(record))
    elif weights is None:
        print(f"marginal  {record['marginal']:.6g}")
        print(f"naive     {signed:.6g} (magnitudes: {magnitude:.6g})")
    else:
        for label, w in record["weights"].items():
            print(f"weight {label:<16}{w:.6f}")
        print(f"collapsed {record['collapsed']:.6g}")
        print(f"marginal  {record['marginal']:.6g}")
    if args.check_logic and not args.json:
        print(f"logic_respecting: {str(record['logic_respecting']).lower()}")
    return EXIT_SEMANTICS if weights is None else EXIT_OK


def _cmd_plan(args) -> int:
    from . import dataio, transport
    roles = dataio.load_roles(args.roles)
    plan = transport.plan_adjustment(
        roles, args.measure, args.outcome, args.direction, Strategy(args.strategy)
    )
    record = {
        "measure": plan.measure.value,
        "outcome": plan.outcome.value,
        "direction": plan.direction.value,
        "strategy": args.strategy,
        "required_covariates": list(plan.required_covariates),
        "requires_target_y0": plan.requires_target_y0,
    }
    print(json.dumps(record) if args.json else json.dumps(record, indent=2))
    return EXIT_OK


def _cmd_transport(args) -> int:
    from . import dataio, simbench
    trial = dataio.load_trial(args.trial)
    target = dataio.load_target(args.target)
    learner = Learner(args.learner)
    est = simbench.estimator(args.strategy, learner)(
        trial, target, args.measure, args.covariates, learner
    )
    record = {
        "measure": est.measure.value,
        "strategy": args.strategy,
        "covariates": list(est.covariates_used),
        "value": est.value,
        "n_source": est.n_source,
        "n_target": est.n_target,
    }
    print(json.dumps(record))
    return EXIT_OK


def _json_number(value: float) -> float | None:
    """``null`` for an undefined statistic: JSON has no NaN."""
    return None if math.isnan(value) else value


def _cmd_simulate(args) -> int:
    from . import simbench
    scenario = simbench.builtin_scenario(args.scenario)
    report = simbench.run_scenario(
        scenario,
        seed=args.seed,
        reps=args.reps,
        n=args.n,
        m=args.m,
        workers=args.workers,
    )
    simbench.write_report_csv(report, args.out)
    if args.json:
        payload = [
            {
                "measure": s.config.measure.value,
                "strategy": s.config.strategy,
                "covariates": list(s.config.covariates),
                "ground_truth": s.ground_truth,
                **{k: _json_number(getattr(s, k)) for k in ("median", "q1", "q3", "mean", "sd")},
                "n_failed": s.n_failed,
            }
            for s in report.summaries
        ]
        print(json.dumps(payload))
    else:
        print(f"{'measure':<9}{'strategy':<10}{'covariates':<22}{'ground_truth':>13}{'median':>12}")
        for s in report.summaries:
            print(
                f"{s.config.measure.value:<9}{s.config.strategy:<10}"
                f"{'+'.join(s.config.covariates):<22}{s.ground_truth:>13.4f}{s.median:>12.4f}"
            )
    return EXIT_OK


def _cmd_grid(args) -> int:
    from . import dataio
    dataio.emit_grid(args.resolution, args.out)
    rows = args.resolution * args.resolution
    if args.json:
        print(json.dumps({"rows": rows, "out": args.out}))
    else:
        print(f"wrote {rows} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectmeasures",
        description="Compute, collapse, and generalize causal treatment-effect measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="all effect measures for one outcome pair")
    p.add_argument("--mu0", type=float, required=True)
    p.add_argument("--mu1", type=float, required=True)
    p.add_argument("--kind", type=_kind, default=OutcomeKind.BINARY)
    p.add_argument("--swap-labels", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_measures)

    p = sub.add_parser("collapse", help="collapse a stratified table")
    p.add_argument("--strata", required=True)
    p.add_argument("--measure", type=_measure, required=True)
    p.add_argument("--check-logic", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_collapse)

    p = sub.add_parser("plan", help="minimal covariate set for generalization")
    p.add_argument("--roles", required=True)
    p.add_argument("--measure", type=_measure, required=True)
    p.add_argument("--outcome", type=_kind, required=True)
    p.add_argument("--direction", type=_direction, default=MonotonicityDirection.NON_MONOTONE)
    p.add_argument("--strategy", choices=[s.value for s in Strategy], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_plan)

    p = sub.add_parser("transport", help="generalize a trial estimate to a target sample")
    p.add_argument("--trial", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--measure", type=_measure, required=True)
    p.add_argument("--strategy", choices=list(ESTIMATOR_NAMES), required=True)
    p.add_argument("--covariates", type=_covariate_list, required=True)
    p.add_argument(
        "--learner", choices=[l.value for l in Learner], default=Learner.CELL_MEANS.value
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_transport)

    p = sub.add_parser("simulate", help="run a built-in simulation study")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("grid", help="emit the measure-landscape lattice CSV")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # the parser is not kept: held through the command, it added
        # 0.1-0.2 MB to peak RSS
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    if "numpy" not in sys.modules:
        # BLAS reads its thread count once, as NumPy loads; set later, the
        # variable would only leak into a library caller's environment
        os.environ.setdefault("OMP_NUM_THREADS", "1")
    try:
        return args.run(args)
    except EffectMeasureError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
