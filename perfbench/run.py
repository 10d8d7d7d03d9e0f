"""hspde pipeline benchmark: time to a verdict, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all             # every workload

Run from the repository root (or anywhere: paths resolve from this file).
``--seed N`` shifts each preset's frozen plan seed by N; N = 0 (the
default) is the frozen seed, where estimates must also match the reference
tables in ``perfbench/reference``.

``--trace 0`` measures end-to-end metrics: it alternates a set-up
measurement and an untraced run of the workload, each in a fresh
interpreter, until ``--seconds`` have passed, and reports medians.
``--trace 1`` alternates an untraced and a traced run for the same time
and reports the per-layer split, the traced and untraced wall times and
their difference (the tracing overhead).  Each run's outputs
are checked; a run that raises or fails a check counts as failed.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A fuller record, with host facts and resolved configs, goes to
``.perfbench/results/``; traced runs write their spans to
``.perfbench/traces/``.  See perfbench/README.md for the workloads.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SCRATCH, SRC, WORKLOADS, compare_tables  # noqa: E402

DEADLINE_S = 170  # every invocation ends within 180 s

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "mode_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"draws": "count", "mode_steps": "count",
                   "bytes_computed": "B", "bytes": "B", "failed": "count"}


class ChildError(RuntimeError):
    pass


def child(mode: str, workload: str, seed: int, deadline: float, *extra) -> dict:
    """Run perfbench/child.py in a fresh interpreter; its last stdout line."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload,
           "--seed", str(seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError(f"{mode} run of {workload} would pass the deadline")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=HERE.parent)
    except subprocess.TimeoutExpired as err:
        raise ChildError(f"{mode} run of {workload} timed out") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} run of {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else math.nan


def repeat(seconds: float, deadline: float, run_once) -> list:
    """Call ``run_once`` at least once, and again while a call of the median
    duration so far would end at most half its length past ``seconds`` from
    the start, so that the calls fill ``seconds`` on average."""
    start = time.monotonic()
    out, took = [], []
    while not out or time.monotonic() - start + median(took) / 2 <= seconds:
        began = time.monotonic()
        try:
            out.append(run_once())
        except ChildError as err:
            print(f"run failed: {err}", file=sys.stderr)
            out.append(None)
            if time.monotonic() >= deadline:
                break
        took.append(time.monotonic() - began)
    return out


def timed_run(workload, seed, deadline):
    res = child("timed", workload, seed, deadline)
    for msg in res["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    return res


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    # set-up and timed runs alternate, so that both sample the host's speed,
    # which drifts over tens of seconds, across the whole budget
    child("setup", workload, seed, deadline)  # warm the bytecode and file caches
    setup = []

    def setup_then_run():
        setup.append(child("setup", workload, seed, deadline)["setup_s"])
        return timed_run(workload, seed, deadline)

    runs = repeat(seconds, deadline, setup_then_run)
    ok = [r for r in runs if r is not None]
    failed = sum(1 for r in runs if r is None or r["failures"])
    metrics = {
        "wall_s": median([r["wall_s"] for r in ok]),
        "mode_steps_per_s": median([r["mode_steps"] / r["wall_s"] for r in ok]),
        "setup_s": median(setup),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
    }
    record = {"setup_s": setup, "runs": runs}
    return metrics, {k: END_TO_END[k] for k in metrics}, len(runs), failed, record


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    trace_dir = SCRATCH / "traces"
    started = []

    def pair():
        timed = timed_run(workload, seed, deadline)
        started.append(None)
        out = trace_dir / f"{workload}-seed{seed}-{len(started)}.json"
        traced = child("traced", workload, seed, deadline, "--trace-out", str(out))
        for msg in traced["failures"]:
            print(f"check failed: {msg}", file=sys.stderr)
        # the fits of the traced ensembles and the traced run's own table
        # must both reproduce the untraced run's estimates
        mismatch = compare_tables(traced["fits"], timed["estimates"],
                                  "traced fits vs untraced run") \
            + compare_tables(traced["estimates"], timed["estimates"],
                             "traced run vs untraced run")
        for msg in mismatch:
            print(f"check failed: {msg}", file=sys.stderr)
        traced["failures"] = traced["failures"] + mismatch
        return timed, traced

    pairs = repeat(seconds, deadline, pair)
    done = [p for p in pairs if p is not None]
    attempted = 2 * len(pairs)
    failed = 2 * (len(pairs) - len(done)) + sum(
        bool(t["failures"]) + bool(tr["failures"]) for t, tr in done)
    layer_names = done[0][1]["layers"] if done else {}
    metrics = {name: median([tr["layers"][name] for _, tr in done])
               for name in layer_names}
    untraced = median([t["wall_s"] for t, _ in done])
    traced = median([tr["traced_wall_s"] for _, tr in done])
    metrics.update({"trace.untraced_wall_s": untraced,
                    "trace.traced_wall_s": traced,
                    "trace.overhead_s": traced - untraced})
    units = {name: "s" if name.endswith("_s")
             else PER_LAYER_UNITS[name.rsplit(".", 1)[1]] for name in metrics}
    record = {"runs": pairs}
    return metrics, units, attempted, failed, record


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    measure = per_layer if trace else end_to_end
    metrics, units, attempted, failed, record = measure(workload, seed, seconds,
                                                        deadline)
    runs = [r for r in record["runs"] if r is not None]
    first = (runs[0][0] if trace else runs[0]) if runs else {}
    print(f"== {workload}: seed offset {seed}, {'traced' if trace else 'untraced'}, "
          f"{attempted} run(s), {seconds:g} s budget")
    if first:
        host = first["host"]
        blas = host["blas"]
        print(f"   host: nproc={host['nproc']} python={host['python']} "
              f"numpy={host['numpy']} blas={blas['name']} {blas['version']} "
              f"threads={blas['threads']} workers={host['workers']} "
              f"plan.seed={first['config']['plan']['seed']}")
    for name, value in metrics.items():
        print(f"   {name:<34} {value:>16.6g} {units[name]}")
    print(f"   {'failed_frac':<34} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} runs failed)")
    SCRATCH.joinpath("results").mkdir(parents=True, exist_ok=True)
    SCRATCH.joinpath("results", f"{workload}-seed{seed}-trace{int(trace)}.json") \
        .write_text(json.dumps({"workload": workload, "seed_offset": seed,
                                "trace": trace, "metrics": metrics,
                                "attempted": attempted, "failed": failed,
                                **record}, indent=1) + "\n")
    return {"correct": failed == 0 and bool(runs), "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hspde" / "__init__.py").is_file():
        print(f"error: no hspde sources under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
    except ChildError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": val for name, r in results.items()
                        for metric, val in r["metrics"].items()},
        }
    if any(math.isnan(m["value"]) for m in summary["metrics"].values()):
        print("error: no run completed", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
