"""One measured process of the benchmark; ``run.py`` starts it.

    python3 perfbench/child.py {setup|timed|traced|reference} \
        --workload NAME --seed OFFSET [--trace-out PATH]

* ``setup``: times ``import hspde`` plus the workload's public build calls
  in this fresh interpreter.
* ``timed``: one untraced run of the workload (``run_experiment`` and, for
  read-back workloads, ``estimates_from_run`` and the increments export),
  then the correctness checks.
* ``traced``: the same run with spans around calls into each hspde layer;
  then every replica is sampled and integrated once more, outside the
  pipeline, on the plans the run used, and those ensembles and their
  fitted exponents are checked against the run's own.
* ``reference``: writes the estimate table at the frozen preset seed into
  ``perfbench/reference/`` (run after a change that is meant to move the
  numbers).

The result is one JSON object on the last line of stdout.
"""

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

# numpy and hspde are imported inside functions: ``setup`` times their import.
from workloads import (ENSEMBLE_RTOL, REFERENCE_DIR, SCRATCH, SRC, WORKLOADS,
                       compare_tables, parse_table, plan_seed, reference_table)

# Replica chunk of the traced sampling/integration pass: the same budget
# ``convolve`` gives its worker batches (increments plus mode increments).
CHUNK_BYTES = 256 << 20


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_hspde():
    sys.path.insert(0, str(SRC))
    import hspde

    if Path(hspde.__file__).resolve().parent != SRC / "hspde":
        raise RuntimeError(f"imported hspde from {hspde.__file__}, not {SRC}")
    return hspde


def resolve(hspde, name: str, seed_offset: int, output_dir) -> dict:
    wl = WORKLOADS[name]
    seed = plan_seed(hspde.get_preset(wl.preset)["plan"]["seed"], seed_offset)
    return hspde.resolve_config(wl.preset,
                                overrides=wl.overrides_for(seed, output_dir))


def blas_facts() -> dict:
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def host_facts(workers: int) -> dict:
    import numpy as np

    return {"nproc": nproc(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas_facts(), "workers": workers}


# ---------------------------------------------------------------- setup ----

def setup_main(name: str, seed_offset: int) -> dict:
    t0 = time.perf_counter()
    hspde = import_hspde()
    cfg = resolve(hspde, name, seed_offset, SCRATCH)
    if cfg["operator"]["kind"] != "laplacian":
        raise ValueError("setup timing covers Laplacian workloads only")
    domain = hspde.SpectralDomain(**cfg["domain"])
    hspde.build_laplacian_system(domain, shift=float(cfg["operator"].get("shift", 0.0)))
    noise = hspde.make_cameron_martin(domain, float(cfg["noise"]["theta"]),
                                      int(cfg["noise"]["truncation"]))
    query = cfg.get("query")
    if query and query["theorem"] == "colored":
        g = cfg["g"]
        G = hspde.g_preset(g["name"], float(g["m"]), float(g["q"]))
        # 1/p = 1/2 - theta/d + 1/m, the integrability the colored query implies
        p = 1.0 / (0.5 - float(query["theta"]) / query["d"] + 1.0 / float(query["m"]))
        if not hspde.validate_noise_hypotheses(G, noise, p=p, d=query["d"])["ok"]:
            raise ValueError("noise hypotheses fail")
    return {"setup_s": time.perf_counter() - t0}


# ----------------------------------------------------------- pipeline ----

def run_pipeline(hspde, name: str, cfg: dict, workers: int, span):
    """The measured window: the run, plus the read-back calls if any."""
    with span("harness.run_experiment"):
        manifest = hspde.run_experiment(cfg, workers=workers)
    run_dir = Path(cfg["output_dir"]) / manifest.run_id
    readback = None
    if WORKLOADS[name].readback:
        with span("harness.estimates_from_run"):
            estimates = hspde.harness.estimates_from_run(run_dir)
        with span("harness.export_plotdata"):
            increments = hspde.export_plotdata(run_dir, kind="increments")
        readback = (estimates, increments)
    return manifest, run_dir, readback


def untraced(_name: str):
    return contextlib.nullcontext()


def alpha_count(cfg: dict) -> int:
    return len(cfg["sweep"]["alpha"]) if cfg.get("sweep") else 1


def mode_steps(cfg: dict) -> int:
    """replicas x alphas x steps x retained Laplacian modes."""
    modes = cfg["domain"]["mode_cutoff"] ** cfg["domain"]["dimension"]
    return cfg["plan"]["replicas"] * alpha_count(cfg) * cfg["plan"]["steps"] * modes


def _finite(cell) -> bool:
    return isinstance(cell, float) and math.isfinite(cell)


def check_run(hspde, name: str, seed_offset: int, cfg: dict, manifest,
              run_dir: Path, readback, scratch: Path) -> tuple:
    """Correctness checks of one run; returns (failures, estimate rows)."""
    wl = WORKLOADS[name]
    failures = [f"stage {stage}: {state}"
                for stage, state in manifest.stages.items() if state != "ok"]
    est_text = (run_dir / "estimates.csv").read_text()
    rows = parse_table(est_text)
    alphas = alpha_count(cfg)
    if len(rows) != 3 * alphas:
        failures.append(f"{len(rows)} estimate rows for {alphas} alpha(s)")
    for row in rows:
        if not (_finite(row["value"]) and _finite(row["fit_r2"])):
            failures.append(f"non-finite estimate {row}")

    verdict = manifest.verdict
    if verdict is None or not (run_dir / "verdict.json").is_file():
        failures.append("no verdict")
    elif wl.verdict == "steps_ok":
        if len(verdict.get("steps_ok", ())) != alphas - 1:
            failures.append("sweep verdict lacks its steps")
        elif seed_offset == 0 and not all(verdict["steps_ok"]):
            failures.append(f"sweep steps fail: {verdict['steps_ok']}")
    elif wl.verdict == "passed":
        if verdict.get("kind") != "region" or verdict.get("vacuous"):
            failures.append("no region verdict")
        elif seed_offset == 0 and not verdict["passed"]:
            failures.append("region verdict FAIL at the frozen seed")
    elif wl.verdict == "vacuous" and not verdict.get("vacuous"):
        # the empty region follows from the query alone, at every seed
        failures.append("region verdict is not vacuous")

    if seed_offset == 0:
        failures += compare_tables(rows, reference_table(name), "reference")

    if readback is not None:
        estimates, increments = readback
        if estimates.encode() != est_text.encode():
            failures.append("estimates_from_run differs from estimates.csv")
        table = parse_table(increments)
        if not increments.startswith("axis,lag,median_max_increment\n") \
                or not table or not all(_finite(row["lag"]) and
                                        _finite(row["median_max_increment"])
                                        for row in table):
            failures.append("increments export is malformed or non-finite")
        if seed_offset == 0:
            # unlike the exponents, the increments are not scale-invariant
            failures += compare_tables(table, reference_table(f"{name}-increments"),
                                       "increments reference")
        for sidecar in sorted(run_dir.glob("trajectories*.json")):
            stem = sidecar.with_suffix("")
            copy = hspde.save_trajectories(hspde.load_trajectories(str(stem)),
                                           str(scratch / "roundtrip"))
            for ext in (".bin", ".json"):
                if Path(copy + ext).read_bytes() != Path(str(stem) + ext).read_bytes():
                    failures.append(f"{stem.name}{ext} does not round-trip")
    return failures, rows


# -------------------------------------------------------------- timed ----

def timed_main(name: str, seed_offset: int) -> dict:
    hspde = import_hspde()
    workers = nproc()
    scratch = Path(tempfile.mkdtemp(prefix="timed-", dir=SCRATCH))
    try:
        cfg = resolve(hspde, name, seed_offset, scratch / "runs")
        t0 = time.perf_counter()
        manifest, run_dir, readback = run_pipeline(hspde, name, cfg, workers,
                                                   untraced)
        wall = time.perf_counter() - t0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures, rows = check_run(hspde, name, seed_offset, cfg, manifest,
                                   run_dir, readback, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"wall_s": wall, "peak_rss_mb": peak_kb / 1024.0,
            "mode_steps": mode_steps(cfg), "failures": failures,
            "estimates": rows, "host": host_facts(workers), "config": cfg}


# ------------------------------------------------------------- traced ----

class Tracer:
    """Spans kept in memory and written out once, when the run ends.

    Every span is a layer-boundary call made from the main thread: its
    name is ``<layer>.<function>``, and it records start, end (seconds
    since the tracer started), its parent span and the shared trace id.
    Counters are bumped at the same boundaries.
    """

    def __init__(self):
        import collections
        import uuid

        self.trace_id = uuid.uuid4().hex
        self.t0 = time.perf_counter()
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._next_id = 0
        self._patches = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        except Exception:
            self.counts[name.split(".")[0] + ".failed"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"trace_id": self.trace_id, "id": span_id,
                               "parent": parent, "name": name,
                               "start": start - self.t0, "end": end - self.t0})

    def patch(self, module, attr: str, name, after=None):
        """Route ``module.attr`` through a span; ``name`` may be a callable
        of the call's arguments, ``after(counts, result, *args)`` counts."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self.counts, result, *args)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def seconds(self, name: str) -> float:
        return sum((s["end"] - s["start"] for s in self.spans if s["name"] == name), 0.0)


def _file_bytes(stem: str) -> int:
    return sum(os.path.getsize(stem + ext) for ext in (".bin", ".json"))


def instrument(tracer: Tracer, hspde, captured: list) -> None:
    """Spans around the public calls the pipeline makes into each layer.

    Calls are wrapped where they are looked up: ``harness`` for the
    pipeline stages, ``regularity`` for the fits that ``verify_region``
    repeats.  ``simulate`` also hands its plan and ensemble to ``captured``.
    """
    harness, regularity = hspde.harness, hspde.regularity

    def temporal(ens, mode="pointwise", **_):
        return f"regularity.estimate_temporal_exponent:{mode}"

    def on_simulate(counts, ens, plan, *_):
        captured.append((plan, ens))

    def on_save(counts, stem, *_):
        counts["trajio.bytes"] += _file_bytes(stem)

    def on_load(counts, ens, path, *_):
        counts["trajio.bytes"] += _file_bytes(os.path.splitext(str(path))[0])

    tracer.patch(harness, "build_laplacian_system", "spectral.build_laplacian_system")
    tracer.patch(harness, "make_cameron_martin", "noise.make_cameron_martin")
    tracer.patch(harness, "validate_noise_hypotheses", "noise.validate_noise_hypotheses")
    tracer.patch(harness, "simulate", "convolve.simulate", after=on_simulate)
    for module in (harness, regularity):
        tracer.patch(module, "estimate_temporal_exponent", temporal)
        tracer.patch(module, "estimate_spatial_exponent",
                     "regularity.estimate_spatial_exponent")
    tracer.patch(harness, "verify_region", "regularity.verify_region")
    tracer.patch(harness, "save_trajectories", "trajio.save_trajectories", after=on_save)
    tracer.patch(harness, "load_trajectories", "trajio.load_trajectories", after=on_load)


def sample_and_integrate(tracer: Tracer, hspde, plan, out) -> None:
    """Draw every replica's increments and integrate them, chunk by chunk,
    into ``out`` (replicas, recorded times, recorded points)."""
    import dataclasses
    import numpy as np

    modes = plan.system.mode_count
    per_replica = plan.steps * (plan.noise.truncation + modes) * 8
    chunk = max(1, CHUNK_BYTES // per_replica)
    tg = plan.time_grid
    for start in range(0, plan.replicas, chunk):
        stop = min(start + chunk, plan.replicas)
        with tracer.span("noise.sample_wiener_increments"):
            incs = np.stack([hspde.sample_wiener_increments(plan.noise, tg, plan.seed, r)
                             for r in range(start, stop)])
        with tracer.span("convolve.simulate_from_increments"):
            ens = hspde.simulate_from_increments(
                dataclasses.replace(plan, replicas=stop - start), incs)
        reps, _, steps = incs.shape
        tracer.counts["noise.draws"] += incs.size
        tracer.counts["convolve.mode_steps"] += reps * steps * modes
        # computed, not measured: increments read, mode increments formed,
        # recorded values written
        tracer.counts["convolve.bytes_computed"] += 8 * (
            incs.size + reps * steps * modes + ens.values.size)
        out[start:stop] = ens.values


def fit_rows(hspde, alpha: float, values, like, estimator: dict) -> list:
    """The estimate-stage fits of ``harness`` on ``values``, as table rows."""
    import dataclasses
    import numpy as np

    ens = dataclasses.replace(like, values=values)
    fits = (
        ("pointwise", hspde.estimate_temporal_exponent(
            ens, mode="pointwise", point_index=estimator.get("point_index"))),
        ("sup-space", hspde.estimate_temporal_exponent(ens, mode="sup-space")),
        ("pooled", hspde.estimate_spatial_exponent(ens, times=estimator.get("times"))),
    )
    return [{"alpha": float(alpha), "kind": est.kind, "mode": mode,
             "value": float(est.value), "fit_r2": float(est.fit_r2),
             "lag_lo": float(est.lag_range[0]), "lag_hi": float(est.lag_range[1]),
             "replicas": float(np.isfinite(est.per_replica).sum())}
            for mode, est in fits]


LAYER_SECONDS = {
    "spectral.build_s": "spectral.build_laplacian_system",
    "noise.basis_s": "noise.make_cameron_martin",
    "noise.sample_s": "noise.sample_wiener_increments",
    "convolve.integrate_s": "convolve.simulate_from_increments",
    "convolve.simulate_s": "convolve.simulate",
    "regularity.temporal_pointwise_s": "regularity.estimate_temporal_exponent:pointwise",
    "regularity.temporal_sup_s": "regularity.estimate_temporal_exponent:sup-space",
    "regularity.spatial_s": "regularity.estimate_spatial_exponent",
    "regularity.verify_s": "regularity.verify_region",
    "trajio.save_s": "trajio.save_trajectories",
    "trajio.load_s": "trajio.load_trajectories",
    "harness.reestimate_s": "harness.estimates_from_run",
    "harness.export_increments_s": "harness.export_plotdata",
}
LAYER_COUNTS = ("noise.draws", "convolve.mode_steps", "convolve.bytes_computed",
                "trajio.bytes", "spectral.failed", "noise.failed",
                "convolve.failed", "regularity.failed", "trajio.failed",
                "harness.failed")


def traced_main(name: str, seed_offset: int, trace_out: Path) -> dict:
    import numpy as np

    hspde = import_hspde()
    workers = nproc()
    scratch = Path(tempfile.mkdtemp(prefix="traced-", dir=SCRATCH))
    tracer = Tracer()
    captured = []
    try:
        cfg = resolve(hspde, name, seed_offset, scratch / "runs")
        try:
            instrument(tracer, hspde, captured)
            t0 = time.perf_counter()
            manifest, run_dir, readback = run_pipeline(hspde, name, cfg, workers,
                                                       tracer.span)
            wall = time.perf_counter() - t0
            traced = [np.empty_like(ens.values) for _, ens in captured]
            for (plan, _), values in zip(captured, traced):
                with tracer.span("bench.sample_and_integrate"):
                    sample_and_integrate(tracer, hspde, plan, values)
        finally:
            tracer.restore()
        failures, rows = check_run(hspde, name, seed_offset, cfg, manifest,
                                   run_dir, readback, scratch)
        fits = []
        for (plan, ens), values in zip(captured, traced):
            err = np.abs(values - ens.values).max() / np.abs(ens.values).max()
            if not err <= ENSEMBLE_RTOL:
                failures.append(f"traced ensemble at alpha={plan.alpha} is off "
                                f"by {err:.3g} relative (> {ENSEMBLE_RTOL:g})")
            fits += fit_rows(hspde, plan.alpha, values, ens, cfg["estimator"])
        if readback is not None:
            stem = run_dir / "trajectories"
            if hspde.load_trajectories(str(stem)).values.tobytes() != \
                    captured[0][1].values.tobytes():
                failures.append("persisted trajectories differ from the run's")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(json.dumps({"trace_id": tracer.trace_id,
                                     "spans": tracer.spans}, indent=1) + "\n")
    layers = {metric: tracer.seconds(span) for metric, span in LAYER_SECONDS.items()}
    layers.update({metric: tracer.counts[metric] for metric in LAYER_COUNTS})
    return {"traced_wall_s": wall, "layers": layers, "failures": failures,
            "estimates": rows, "fits": fits, "trace_file": str(trace_out)}


# ---------------------------------------------------------- reference ----

def reference_main(name: str) -> dict:
    hspde = import_hspde()
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=SCRATCH))
    try:
        cfg = resolve(hspde, name, 0, scratch / "runs")
        manifest, run_dir, readback = run_pipeline(hspde, name, cfg, nproc(),
                                                   untraced)
        REFERENCE_DIR.mkdir(exist_ok=True)
        written = [REFERENCE_DIR / f"{name}.csv"]
        shutil.copyfile(run_dir / "estimates.csv", written[0])
        if readback is not None:
            written.append(REFERENCE_DIR / f"{name}-increments.csv")
            written[1].write_text(readback[1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"written": [str(path) for path in written]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "timed", "traced", "reference"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)
    SCRATCH.mkdir(exist_ok=True)
    if args.mode == "setup":
        result = setup_main(args.workload, args.seed)
    elif args.mode == "timed":
        result = timed_main(args.workload, args.seed)
    elif args.mode == "traced":
        if args.trace_out is None:
            ap.error("traced needs --trace-out")
        result = traced_main(args.workload, args.seed, args.trace_out)
    else:
        result = reference_main(args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
