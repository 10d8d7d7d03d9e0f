"""Command line front end.

Subcommands::

    region    admissible-region boundary as CSV
    run       the pipeline: simulate, estimate, verify; writes the
              estimates, verdict, region and manifest of a run id, exit 2
              when the verdict fails
    estimate  exponent-estimate table recomputed from a persisted run
    presets   list built-in experiment presets
    export    per-lag median max increments of a persisted run, as CSV

Exit codes: 0 success (verdict PASS or no verdict), 2 verification FAIL,
3 noise-hypothesis validation failure, 4 any other error (bad flags,
unknown names, numerical stage failures).  An error prints one
``error: <message>`` line; ``hspde --verbose <command>`` prints its
traceback first.
"""

import argparse
import sys
import traceback
from pathlib import Path
from typing import Optional

from .harness import (
    ExperimentConfig,
    HypothesisError,
    estimates_from_run,
    export_plotdata,
    list_presets,
    region_csv,
    resolve_config,
    run_experiment,
)
from .regularity import THEOREMS, RegularityQuery
from .trajio import _fmt

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERDICT_FAIL = 2
EXIT_HYPOTHESIS = 3
EXIT_ERROR = 4

class _Parser(argparse.ArgumentParser):
    # usage errors share the generic error code, keeping 2 and 3 reserved
    # for verdict and hypothesis outcomes
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(out)
    else:
        sys.stdout.write(text)


def _intish(value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _resolve(args) -> ExperimentConfig:
    if args.preset is None and args.config is None:
        raise ValueError("one of --preset or --config is required")
    raw = resolve_config(args.preset, args.config, args.overrides)
    if args.out_dir is not None:
        raw["output_dir"] = args.out_dir
    if args.persist_trajectories:
        raw["persist_trajectories"] = True
    return ExperimentConfig.from_dict(raw)


def _print_verdict(manifest, output_dir: str) -> int:
    verdict = manifest.verdict
    run_dir = Path(output_dir) / manifest.run_id
    print(f"run {manifest.run_id} -> {run_dir}")
    if verdict is None:
        print("no query configured; estimates written without a verdict")
        return EXIT_OK
    if verdict["kind"] == "alpha-sweep":
        pairs = ", ".join(
            f"alpha={_fmt(a)}: beta_hat={_fmt(b)}"
            for a, b in zip(verdict["alphas"], verdict["beta_hats"]))
        print(f"sweep ({verdict['temporal_mode']}): {pairs}")
        print(f"monotone within slack {verdict['slack']}: "
              f"{'PASS' if verdict['passed'] else 'FAIL'}")
    else:
        if verdict.get("beta_hat") is not None:
            print(f"theorem {verdict['theorem']} ({verdict['params']}): "
                  f"beta_hat={_fmt(verdict['beta_hat'])} "
                  f"gamma_hat={_fmt(verdict['gamma_hat'])}")
        else:
            print(f"theorem {verdict['theorem']} ({verdict['params']})")
        if verdict.get("note"):
            print(verdict["note"])
        n_fail = len(verdict.get("failures") or [])
        print(f"region check: {'PASS' if verdict['passed'] else 'FAIL'} "
              f"({n_fail} failing vertices)")
    return EXIT_OK if verdict["passed"] else EXIT_VERDICT_FAIL


def _cmd_region(args) -> int:
    kwargs = {"theorem": args.theorem, "d": args.d, "q": _intish(args.q)}
    for key in ("p", "alpha", "theta", "m"):
        val = getattr(args, key)
        if val is not None:
            kwargs[key] = _intish(val) if key in ("p", "m") else val
    _emit(region_csv(RegularityQuery(**kwargs), n_points=args.points),
          args.out)
    return EXIT_OK


def _cmd_presets(args) -> int:
    for name, description in list_presets():
        print(f"{name}: {description}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _resolve(args)
    manifest = run_experiment(config, workers=args.workers)
    return _print_verdict(manifest, config.output_dir)


def _cmd_estimate(args) -> int:
    _emit(estimates_from_run(args.run, workers=args.workers), args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    _emit(export_plotdata(args.run, args.kind), args.out)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="hspde",
                     description="spectral simulation and statistical "
                                 "verification of stochastic-PDE regularity")
    parser.add_argument("--verbose", action="store_true",
                        help="print the traceback of an error")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("region", help="admissible-region boundary CSV")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--points", type=int, default=33)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_region)

    workers = {"type": int, "default": None,
               "help": "worker threads of the simulation and the exponent "
                       "fits (default: one per usable CPU)"}
    p = sub.add_parser("run", help="the pipeline: simulate, estimate, "
                                   "verify; exit 2 on verdict FAIL")
    p.add_argument("--preset", default=None,
                   help="start from a built-in preset")
    p.add_argument("--config", default=None,
                   help="JSON experiment config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY.PATH=VALUE",
                   help="override a config value (JSON-parsed); beats both "
                        "file and preset")
    p.add_argument("--out-dir", default=None,
                   help="override the config's output_dir")
    p.add_argument("--workers", **workers)
    p.add_argument("--persist-trajectories", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("estimate",
                       help="exponent-estimate CSV recomputed from a "
                            "persisted run")
    p.add_argument("--run", required=True,
                   help="run directory with persisted trajectories")
    p.add_argument("--workers", **workers)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("presets", help="list built-in experiment presets")
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("export", help="plot-ready CSV from a persisted run")
    p.add_argument("kind", choices=["increments"])
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as err:
        print(f"hypothesis validation failed: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except Exception as err:  # stage failures included
        if args.verbose:
            traceback.print_exc()
        if isinstance(err, KeyError) and err.args:
            err = err.args[0]  # str() of a KeyError quotes its message
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
