"""Experiment orchestration: configs, staged pipeline, persistence.

An experiment is described by a plain JSON-able dictionary (schema below),
resolved from up to three layers with rising precedence: preset defaults,
then a config file, then individual overrides.  ``run_experiment``
builds and checks the run in one start, then drives the simulate ->
estimate -> verify pipeline, persisting estimate tables, region tables,
verdicts and a run manifest under ``output_dir/<run_id>``.  The run id
is a content hash of the resolved config but ``output_dir``, so re-running
the same experiment, into any directory, gives the same id and reproduces
every persisted output, ``manifest.json`` included, byte for byte; the
manifest lists every deterministic output, itself included.
Wall-clock stage timings go to ``timings.json``, which is not listed.  A
run is staged in ``output_dir/.<run_id>.partial``, cleared first, and
lands whole: once its manifest is written, on success or stage failure,
the staging directory replaces ``output_dir/<run_id>``; a run killed
before then leaves the earlier run as it was.  Simulation and fits
default to one thread per CPU the process may use.

The pipeline takes one alpha at a time: it simulates the alpha's
ensemble, persists it when asked, fits it once and releases it before the
next alpha is simulated, so a sweep holds at most one ensemble.  A
persisted ensemble is simulated straight into its mapped payload file,
which is deleted again if the simulation fails, so persisting it writes
only its sidecar.  Region verdicts take the ``sup-space`` and ``pooled``
rows of the estimate table, so ``estimator.times`` shapes both the table
and the verdict; ``estimator.temporal_mode`` steers sweep verdicts only.

A config is a JSON object of sections and top-level values.  The key
table ``_KEYS``, with the ``operator`` and ``g`` kinds of ``_KINDS``, gives
every key its JSON type and default, and ``from_dict`` refuses, naming the
key, whatever the table does not admit.  ``run_experiment``'s start builds
every object and every alpha's plan, each refusing its own bad values,
refuses a record over ``RECORD_BYTES``, reads the plans' record for the
estimator indices and the short-record refusal, and checks a region
query's d and fractional alpha against the plans, so every value is
checked before any directory exists.  The one refusal still left to a
stage is a plan with one replica over the 256 MiB buffer budget, at
simulate.
"""

import contextlib
import copy
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, get_type_hints

import numpy as np

from ._threads import worker_count
from .convolve import RECORD_BYTES, RecordSpec, SimulationPlan, simulate
from .noise import GProcess, g_preset, make_cameron_martin, validate_noise_hypotheses
from .presets import get_preset, list_presets, operator_preset
from .regularity import (
    _MIN_SAMPLES,
    Rational,
    RegularityQuery,
    _check_provenance,
    _confront_region,
    _confront_sweep,
    _derived_integrability,
    _increment_profiles,
    _refuse_no_times,
    _refuse_out_of_range,
    _refuse_short_record,
    estimate_spatial_exponent,
    estimate_temporal_exponent,
    exponent_budget,
    gamma_ceiling,
    region_boundary,
    select_sigma_delta,
    verify_region,  # not called here: perfbench's tracer patches it
)
from .spectral import (
    SpectralDomain,
    build_laplacian_system,
    build_variable_coefficient_system,
    diagonal_system,
)
from .trajio import _fmt, _json, _payload, export_trajectories_csv, \
    load_trajectories, save_trajectories

__all__ = [
    "ExperimentConfig", "RunManifest", "StageError", "HypothesisError",
    "resolve_config", "run_experiment", "estimates_from_run",
    "export_plotdata", "region_csv", "list_presets", "get_preset",
]


class _Type(NamedTuple):
    """A JSON type of config values: its name, test and refusal."""

    name: str
    holds: Callable[[object], bool]
    refusal: str = "config keys need {name} values, got {path}={value!r}"

    def check(self, path: str, value) -> None:
        if not self.holds(value):
            raise ValueError(self.refusal.format(name=self.name, path=path,
                                                 value=value))


def _list_of(item: _Type, name: str) -> _Type:
    return _Type(name, lambda value: isinstance(value, (list, tuple))
                 and all(map(item.holds, value)))


def _nullable(kind: _Type) -> _Type:
    return kind._replace(holds=lambda v: v is None or kind.holds(v))


def _one_of(*choices: str) -> _Type:
    known = sorted(choices)
    return _Type(str(known), lambda value: value in known,
                 "unknown {path} {value!r}; known: {name}")


# exact types: a bool is neither an integer nor a number
_INTEGER = _Type("integer", lambda value: type(value) is int)
_NUMBER = _Type("number", lambda value: type(value) in (int, float))
_STRING = _Type("string", lambda value: type(value) is str)
_OBJECT = _Type("object", lambda value: type(value) is dict)
_NUMBER_LIST = _list_of(_NUMBER, "number list")
# the refusal of the types named by a phrase rather than a noun
_NEEDS = "config key {path} needs {name}, got {value!r}"
_BOOL = _Type("true or false", lambda value: type(value) is bool, _NEEDS)
_ALPHAS = _Type("a list of at least two distinct numbers",
                lambda value: _NUMBER_LIST.holds(value) and len(value) > 1
                and len(set(value)) == len(value), _NEEDS)
_TIMES = _Type("integer or integer list", lambda value: _INTEGER.holds(value)
               or isinstance(value, (list, tuple))
               and all(map(_INTEGER.holds, value)))
# the JSON types of the dataclass field annotations that config keys take
_ANNOTATED = {int: _INTEGER, Rational: _NUMBER, str: _STRING, bool: _BOOL,
              dict: _OBJECT, Optional[Rational]: _nullable(_NUMBER),
              Optional[dict]: _nullable(_OBJECT)}


def _typed(cls) -> dict:
    """{field: (JSON type, default)} of a dataclass, by its annotations."""
    hints = get_type_hints(cls)
    return {f.name: (_ANNOTATED[hints[f.name]], f.default
                     if f.default_factory is MISSING else f.default_factory())
            for f in fields(cls)}


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name.  The message names
    the alpha of a stage that runs once per alpha."""

    def __init__(self, stage: str, cause: Exception,
                 alpha: Optional[float] = None):
        at = "" if alpha is None else f" at alpha {_fmt(alpha)}"
        self.status = f"failed{at}: {cause}"  # the manifest's stage entry
        super().__init__(f"stage {stage!r} {self.status}")
        self.stage = stage
        self.cause = cause


class HypothesisError(RuntimeError):
    """The configured noise violates the hypotheses the query relies on."""


def _deep_merge(base: dict, top: dict) -> dict:
    out = dict(base)
    for key, val in top.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _parse_override(text: str):
    if "=" not in text:
        raise ValueError(f"override {text!r} is not of the form key.path=value")
    path, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings stay strings
    return path.split("."), value


def resolve_config(preset: Optional[str] = None,
                   config_file=None,
                   overrides=None) -> dict:
    """Layer preset defaults, a JSON config file, and overrides.

    Precedence grows left to right: overrides beat the file, the file
    beats the preset.  ``overrides`` is a list of ``key.path=value``
    strings with JSON-parsed values.
    """
    merged: dict = {}
    if preset is not None:
        merged = get_preset(preset)
    if config_file is not None:
        with open(config_file, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not _OBJECT.holds(loaded):
            raise ValueError(f"config file {config_file} must hold a JSON "
                             f"object, got {type(loaded).__name__}")
        if "preset" in loaded:
            _STRING.check("preset", loaded["preset"])
            base = get_preset(loaded.pop("preset"))
            loaded = _deep_merge(base, loaded)
        merged = _deep_merge(merged, loaded)
    for text in overrides or ():
        path, value = _parse_override(text)
        node = merged
        for key in path[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ValueError(f"cannot descend into {key!r} in {text!r}")
        node[path[-1]] = value
    return merged


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, immutable experiment description."""

    domain: dict
    noise: dict
    plan: dict
    operator: dict = field(default_factory=lambda: {"kind": "laplacian"})
    g: dict = field(default_factory=lambda: {"kind": "identity"})
    query: Optional[dict] = None
    sweep: Optional[dict] = None
    estimator: dict = field(default_factory=dict)
    output_dir: str = "runs"
    persist_trajectories: bool = False
    note: str = ""
    name: str = "custom"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """``raw`` checked against the key table, its sections kept as given
        (``plan`` over its defaults)."""
        unknown, missing = [], []

        def walk(name: Optional[str], section: dict) -> None:
            prefix = "" if name is None else f"{name}."
            keys = _keys(name, section)
            unknown.extend(sorted(prefix + key for key in section
                                  if key not in keys))
            for key, (kind, default) in keys.items():
                if key in section:
                    kind.check(prefix + key, section[key])
                elif default is MISSING:
                    missing.append(prefix + key)

        walk(None, raw)
        sections = {name: dict(value) for name, value in raw.items()
                    if (name in _KEYS or name in _KINDS)
                    and _OBJECT.holds(value)}
        # a selection of no time is refused in the estimators' own words
        _refuse_no_times("estimator.times",
                         sections.get("estimator", {}).get("times"))
        for name, section in sections.items():
            walk(name, section)
        for keys, what in ((unknown, "unknown"), (missing, "missing")):
            if keys:
                raise ValueError(f"{what} config keys: {keys}")
        if {"/", os.sep} & set(raw.get("name", "")):
            raise ValueError("config key name needs a plain path component, "
                             f"got {raw['name']!r}")
        sections["plan"] = _resolved("plan", sections["plan"])
        return cls(**{f.name: sections.get(f.name, raw[f.name])
                      for f in fields(cls) if f.name in raw})

    def to_dict(self) -> dict:
        """The experiment: every field but ``output_dir``, where it lands."""
        return {k: v for k, v in asdict(self).items() if k != "output_dir"}

    @property
    def run_id(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        digest = hashlib.sha1(canon.encode("utf-8")).hexdigest()[:10]
        return f"{self.name}-{digest}"


# The key table: config section -> key -> (JSON type, default), where
# MISSING marks a required key.  None is the top level, whose sections are
# the other entries and those of _KINDS.
_KEYS = {
    None: {**_typed(ExperimentConfig), "description": (_STRING, "")},
    "domain": _typed(SpectralDomain),
    "noise": {"theta": (_NUMBER, MISSING), "truncation": (_INTEGER, MISSING)},
    "plan": {"seed": (_INTEGER, MISSING), "alpha": (_NUMBER, 2.0),
             "T": (_NUMBER, 1.0), "steps": (_INTEGER, 4096),
             "replicas": (_INTEGER, 8), "time_stride": (_INTEGER, 1),
             "space_count": (_INTEGER, 64)},
    "query": _typed(RegularityQuery),
    "sweep": {"alpha": (_ALPHAS, MISSING), "slack": (_NUMBER, 0.03)},
    "estimator": {
        "temporal_mode": (_one_of("pointwise", "sup-space"), "pointwise"),
        "times": (_nullable(_TIMES), None),
        "point_index": (_nullable(_INTEGER), None)},
}
_EXPONENTS = {"m": (_NUMBER, MISSING), "q": (_NUMBER, MISSING)}  # of a g
# section -> kind -> (keys as in _KEYS, builder).  A builder takes the
# kind's keys (an operator's the domain section first) and looks its callees
# up in this module when called, so perfbench's tracer patches here bind.
_KINDS = {
    "operator": {
        "laplacian": ({"shift": (_NUMBER, 0.0)}, lambda domain, shift:
                      build_laplacian_system(SpectralDomain(**domain),
                                             shift=shift)),
        "varcoef": ({"name": (_STRING, MISSING)}, lambda domain, name:
                    build_variable_coefficient_system(
                        SpectralDomain(**domain), operator_preset(name))),
        "diagonal": ({"eigenvalues": (_NUMBER_LIST, MISSING)},
                     lambda domain, eigenvalues: diagonal_system(eigenvalues)),
    },
    "g": {
        "identity": ({}, GProcess.identity),
        "preset": ({"name": (_STRING, MISSING), **_EXPONENTS}, g_preset),
        "scalar": ({"value": (_NUMBER, MISSING), **_EXPONENTS},
                   lambda value, m, q: GProcess.multiplication(value, m=m,
                                                               q=q)),
        "table": ({"values": (_list_of(_NUMBER_LIST, "2-d number list"),
                              MISSING), **_EXPONENTS}, lambda values, m, q:
                  GProcess.from_table(values, m=m, q=q)),
    },
}


def _keys(name: Optional[str], section: dict) -> dict:
    """{key: (JSON type, default)} of config section ``name`` (None: the top
    level); those of ``operator`` and ``g`` follow the section's kind,
    checked first."""
    if name not in _KINDS:
        return _KEYS[name]
    kind = _one_of(*_KINDS[name])
    kind.check(f"{name}.kind", section.get("kind"))
    return {"kind": (kind, MISSING), **_KINDS[name][section["kind"]][0]}


def _resolved(name: str, section: dict) -> dict:
    """Config section ``name`` over the defaults of its optional keys."""
    return {**{key: default for key, (_, default)
               in _keys(name, section).items() if default is not MISSING},
            **section}


def _build(name: str, section: dict, *args):
    """The object that an ``operator`` or ``g`` section describes."""
    keys = _resolved(name, section)
    return _KINDS[name][keys.pop("kind")][1](*args, **keys)


@dataclass
class RunManifest:
    """Everything needed to reproduce and audit one experiment run.

    ``timings`` (wall seconds per stage) stays out of ``as_dict`` and so
    out of ``manifest.json``; it is persisted as ``timings.json``.
    """

    run_id: str
    config: dict
    versions: dict
    derived: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    verdict: Optional[dict] = None
    note: str = ""

    def as_dict(self) -> dict:
        out = asdict(self)
        del out["timings"]
        return out


def _versions() -> dict:
    from . import __version__

    return {"hspde": __version__, "numpy": np.__version__}


def _query_params(query: RegularityQuery) -> str:
    parts = [f"d={query.d}", f"q={query.q}"]
    if query.p is not None:
        parts.append(f"p={query.p}")
    if query.theorem == "fractional":
        parts.append(f"alpha={query.alpha}")
    if query.theta is not None:
        parts.append(f"theta={query.theta}")
    if query.m is not None:
        parts.append(f"m={query.m}")
    return ";".join(parts)


def region_csv(query: RegularityQuery, n_points: int = 33) -> str:
    """Boundary polyline as plot-ready CSV text."""
    params = _query_params(query)
    lines = ["beta,gamma_max,theorem,params"] + [
        f"{_fmt(beta)},{_fmt(gamma)},{query.theorem},{params}"
        for beta, gamma in region_boundary(query, n_points=n_points)]
    return "\n".join(lines) + "\n"


def _derived_block(system, query) -> dict:
    out = {"effective_shift": float(system.effective_shift),
           "operator_family": system.family}
    if query is None:
        return out
    budget = exponent_budget(query)
    out["budget"] = float(budget)
    out["derived_p"] = float(_derived_integrability(query)) \
        if query.theorem == "colored" else None
    if budget > 0 and query.theorem != "remark33":
        beta = budget / 2
        gamma = gamma_ceiling(query, beta) / 2
        sel = select_sigma_delta(query, beta, gamma)
        out["sigma"] = float(sel.sigma)
        out["delta"] = float(sel.delta)
        out["selection_at"] = [float(beta), float(gamma)]
    return out


def _fit_ensemble(ens, estimator: dict, workers: Optional[int]) -> dict:
    """The three exponent fits of one ensemble under ``estimator``, keyed by
    table mode, each taking its replicas' profiles on ``workers`` threads."""
    estimator = _resolved("estimator", estimator)
    return {
        "pointwise": estimate_temporal_exponent(
            ens, mode="pointwise", point_index=estimator["point_index"],
            workers=workers),
        "sup-space": estimate_temporal_exponent(ens, mode="sup-space",
                                                workers=workers),
        "pooled": estimate_spatial_exponent(ens, times=estimator["times"],
                                            workers=workers),
    }


def _estimates_csv(fits) -> str:
    """The estimate table of (alpha, ``_fit_ensemble`` result) pairs."""
    lines = ["alpha,kind,mode,value,fit_r2,lag_lo,lag_hi,replicas"]
    for alpha, by_mode in fits:
        for mode, est in by_mode.items():
            lines.append(
                f"{_fmt(alpha)},{est.kind},{mode},{_fmt(est.value)},"
                f"{_fmt(est.fit_r2)},{_fmt(est.lag_range[0])},"
                f"{_fmt(est.lag_range[1])},"
                f"{int(np.sum(np.isfinite(est.per_replica)))}")
    return "\n".join(lines) + "\n"


def _simulate_into(plan: SimulationPlan, workers: int, stem: Optional[str]):
    """``simulate(plan)``; given a ``stem``, straight into the mapped payload
    of ``<stem>.bin``, which is deleted again if ``simulate`` raises."""
    if stem is None:
        return simulate(plan, workers=workers)
    payload = _payload(stem, plan.record_shape)
    try:
        return simulate(plan, workers=workers, out=payload)
    except BaseException:  # a kill too leaves no half-written payload
        Path(stem + ".bin").unlink(missing_ok=True)
        raise


def run_experiment(config, workers: Optional[int] = None) -> RunManifest:
    """Start a run, then simulate -> estimate -> verify and persist results.

    ``config`` is an ExperimentConfig or a raw dict.  The start builds the
    system, noise space, G, query and one ``SimulationPlan`` per alpha
    (``sweep.alpha`` in order, or ``plan.alpha`` alone), and makes every
    check the module docstring lists, a negative ``workers`` included; a
    noise-hypothesis violation surfaces as HypothesisError.  The manifest
    and ``timings.json`` record the start as the "build" stage.  Each
    alpha's ensemble is then simulated by one ``simulate`` call, persisted
    when ``persist_trajectories`` is set (simulated into its mapped
    payload, so the persist-trajectories stage writes the sidecar),
    fitted, and released before the next alpha is simulated;
    ``estimates.csv`` is written once, after the loop.  The simulate,
    persist-trajectories and estimate stages time the sum over alphas and
    read "ok" once they passed for every alpha.  A
    stage failure aborts with the stage name, and the alpha of a per-alpha
    stage, after landing the run with its partial manifest, where a stage
    that ran for some alphas only reads "incomplete".  Every run ends with
    the verify stage, so a run id names one set of files.  ``workers``
    threads (None or 0: one per CPU the process may use) run the
    simulation's replica batches and the fits' replica profiles; with
    ``workers=1`` the run starts no thread.
    """
    if not isinstance(config, ExperimentConfig):
        config = ExperimentConfig.from_dict(config)
    workers = worker_count(workers)
    t0 = time.perf_counter()
    system = _build("operator", config.operator, config.domain)
    noise = make_cameron_martin(system.domain, **config.noise)
    G = _build("g", config.g)
    query = RegularityQuery(**config.query) if config.query else None
    if query is not None and query.theorem == "colored":
        p = float(_derived_integrability(query))
        report = validate_noise_hypotheses(G, noise, p=p, d=query.d)
        if not report["ok"]:
            bad = [c["name"] for c in report["clauses"] if not c["ok"]]
            raise HypothesisError(
                f"noise hypotheses violated: {'; '.join(bad)}")
    plan = config.plan
    alphas = list(config.sweep["alpha"]) if config.sweep \
        else [float(plan["alpha"])]
    plans = [SimulationPlan(
        system=system, noise=noise, G=G, seed=plan["seed"],
        alpha=float(alpha), T=float(plan["T"]), steps=plan["steps"],
        replicas=plan["replicas"],
        record=RecordSpec(plan["time_stride"], plan["space_count"]))
        for alpha in alphas]
    record = 8 * math.prod(plans[0].record_shape)  # float64 values
    if record > RECORD_BYTES:
        raise ValueError(f"the record needs {record} bytes, over RECORD_BYTES "
                         f"= {RECORD_BYTES}; shrink plan.replicas, "
                         "plan.time_stride or plan.space_count")
    n_times, per_axis = plans[0].record.shape(system.domain.grid_size,
                                              plan["steps"])
    estimator = _resolved("estimator", config.estimator)
    times = estimator["times"]
    _refuse_out_of_range("estimator.point_index", estimator["point_index"],
                         per_axis ** system.domain.dimension)
    _refuse_out_of_range("estimator.times", times if isinstance(times, list)
                         else None, n_times)  # a number counts the times
    _refuse_short_record(n_times, per_axis)
    if query is not None and not config.sweep:
        _check_provenance({"dimension": system.domain.dimension,
                           "alpha": plans[0].alpha}, query)
    manifest = RunManifest(run_id=config.run_id, config=config.to_dict(),
                           versions=_versions(),
                           derived=_derived_block(system, query),
                           stages={"build": "ok"}, note=config.note)
    manifest.timings["build"] = time.perf_counter() - t0

    run_dir = Path(config.output_dir) / config.run_id
    staging = run_dir.with_name(f".{config.run_id}.partial")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)

    def emit(name: str, text: str, listed: bool = True) -> None:
        """Write run file ``name``; list it in the manifest if ``listed``."""
        (staging / name).write_text(text, encoding="utf-8")
        if listed:
            manifest.outputs.append(name)

    def persist_manifest():
        manifest.outputs.append("manifest.json")  # before it is serialised
        emit("manifest.json", _json(manifest.as_dict()), listed=False)
        emit("timings.json", _json(manifest.timings), listed=False)
        shutil.rmtree(run_dir, ignore_errors=True)
        staging.rename(run_dir)  # same filesystem: nothing is copied

    @contextlib.contextmanager
    def stage(name: str, alpha=None, done: bool = True):
        """Time the body as stage ``name``, or its part for ``alpha``; the
        "ok" and "incomplete" rules are those of ``run_experiment``."""
        t0 = time.perf_counter()
        try:
            yield
        except Exception as err:
            error = StageError(name, err, alpha)
            manifest.stages[name] = error.status
            manifest.timings[name] = manifest.timings.get(name, 0.0) \
                + time.perf_counter() - t0
            for other in manifest.timings:
                manifest.stages.setdefault(other, "incomplete")
            persist_manifest()
            raise error from err
        manifest.timings[name] = manifest.timings.get(name, 0.0) \
            + time.perf_counter() - t0
        if done:
            manifest.stages[name] = "ok"

    fits = {}
    for alpha, sim_plan in zip(alphas, plans):
        last = sim_plan is plans[-1]
        tag = "trajectories" if len(alphas) == 1 \
            else f"trajectories-alpha-{_fmt(alpha)}"
        with stage("simulate", alpha, last):
            ens = _simulate_into(sim_plan, workers, str(staging / tag)
                                 if config.persist_trajectories else None)
        if config.persist_trajectories:
            with stage("persist-trajectories", alpha, last):
                save_trajectories(ens, str(staging / tag))
            manifest.outputs.extend([f"{tag}.bin", f"{tag}.json"])
        with stage("estimate", alpha, done=False):
            fits[alpha] = _fit_ensemble(ens, estimator, workers)
        del ens  # before the next alpha's ensemble is simulated

    with stage("estimate"):
        emit("estimates.csv", _estimates_csv(fits.items()))
    with stage("verify"):
        if config.sweep:
            manifest.verdict = _confront_sweep(
                fits, estimator["temporal_mode"],
                _resolved("sweep", config.sweep)["slack"])
        elif query is not None:
            by_mode = fits[alphas[0]]
            manifest.verdict = {
                **_confront_region(query, by_mode["sup-space"],
                                   by_mode["pooled"]).as_dict(),
                "kind": "region", "theorem": query.theorem,
                "params": _query_params(query)}
    if manifest.verdict is not None:
        emit("verdict.json", _json(manifest.verdict))
    if query is not None and exponent_budget(query) > 0:
        emit("region.csv", region_csv(query))
    persist_manifest()
    return manifest


def _load_run(run_dir) -> dict:
    manifest_path = Path(run_dir) / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"unknown run id: no manifest under {run_dir}")
    return json.loads(manifest_path.read_text(encoding="utf-8"))


def _trajectory_files(run_dir: Path, manifest: dict) -> list:
    """The sidecars of a run's persisted trajectories, in the order its
    manifest lists them (the run's alpha order); at least one."""
    traj = [run_dir / name for name in manifest["outputs"]
            if name.startswith("trajectories") and name.endswith(".json")]
    if not traj:
        raise FileNotFoundError(
            "run has no persisted trajectories; re-run with "
            "persist_trajectories enabled")
    return traj


def _increment_profile_csv(ens) -> str:
    """Median dyadic max-increment profiles, plot-ready: the estimators'
    per-replica profiles, in time pooled over every recorded point and in
    space pooled over every recorded time."""
    lines = ["axis,lag,median_max_increment"]
    axes = {"time": {}}
    if ens.space_shape[0] >= _MIN_SAMPLES:
        axes["space"] = {"times": np.arange(ens.values.shape[1])}
    for axis, where in axes.items():
        lags, profiles = _increment_profiles(ens, axis, **where)
        for lag, per_replica in zip(lags, profiles.T):
            lines.append(f"{axis},{_fmt(lag)},{_fmt(np.median(per_replica))}")
    return "\n".join(lines) + "\n"


def estimates_from_run(run_dir, workers: Optional[int] = None) -> str:
    """Recompute the estimate table from a run's persisted trajectories,
    on ``workers`` threads (default: one per CPU)."""
    manifest = _load_run(run_dir)
    estimator = manifest["config"]["estimator"]
    fits = []
    for path in _trajectory_files(Path(run_dir), manifest):
        ens = load_trajectories(str(path))
        fits.append((float(ens.provenance["alpha"]),
                     _fit_ensemble(ens, estimator, workers)))
    return _estimates_csv(fits)


def export_plotdata(run_dir, kind: str, out_path=None, max_replicas=None):
    """Plot-ready CSV for a persisted run.

    ``increments`` returns CSV text; ``trajectory`` writes a (possibly
    large) CSV to ``out_path`` (default inside the run dir) and returns the
    path.  Both read a sweep's first alpha.  A run's region boundary is its
    own ``region.csv``.
    """
    manifest = _load_run(run_dir)
    run_dir = Path(run_dir)
    if kind not in ("increments", "trajectory"):
        raise ValueError(f"unknown export kind {kind!r}")
    ens = load_trajectories(_trajectory_files(run_dir, manifest)[0])
    if kind == "increments":
        return _increment_profile_csv(ens)
    out_path = Path(out_path or run_dir / "trajectory-export.csv")
    export_trajectories_csv(ens, out_path, max_replicas=max_replicas)
    return out_path
