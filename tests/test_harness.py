import collections
import copy
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import weakref
from dataclasses import MISSING
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hspde
from hspde import cli, convolve, harness, regularity
from hspde.harness import (
    ExperimentConfig,
    HypothesisError,
    StageError,
    estimates_from_run,
    export_plotdata,
    region_csv,
    resolve_config,
    run_experiment,
)
from hspde.presets import get_preset, list_presets, operator_preset
from hspde.regularity import RegularityQuery
from hspde.spectral import EllipticOperatorSpec
from hspde.trajio import load_trajectories

CONTRACT_PRESETS = [
    "laplacian-d1",
    "laplacian-d2",
    "varcoef-d1",
    "heat-white-d1-baseline",
    "colored-d1-thm31",
    "fractional-alpha-sweep",
]


def small_config(out_dir, **extra):
    cfg = {
        "name": "unit",
        "domain": {"dimension": 1, "grid_size": 64, "mode_cutoff": 64},
        "noise": {"theta": 0.0, "truncation": 64},
        "plan": {"seed": 11, "steps": 2048, "replicas": 4, "space_count": 64},
        "query": {"theorem": "prop32", "d": 1, "q": 8, "p": 4},
        "output_dir": str(out_dir),
    }
    cfg.update(extra)
    return cfg


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    cfg = small_config(out)
    manifest = run_experiment(cfg)
    return cfg, manifest, out / manifest.run_id


def test_one_worker_starts_no_thread(completed_run, tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    _, _, run_dir = completed_run
    monkeypatch.setattr(hspde._threads, "ThreadPoolExecutor", no_pool)
    manifest = run_experiment(small_config(tmp_path, persist_trajectories=True),
                              workers=1)
    serial = tmp_path / manifest.run_id
    # the default run took its batches and fits on one thread per CPU
    assert (serial / "estimates.csv").read_bytes() == \
        (run_dir / "estimates.csv").read_bytes()
    assert estimates_from_run(serial, workers=1).encode() == \
        (serial / "estimates.csv").read_bytes()


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_contract_preset_names_all_present():
    names = dict(list_presets())
    for name in CONTRACT_PRESETS:
        assert name in names and names[name]


def test_every_preset_yields_a_valid_config():
    for name, _ in list_presets():
        raw = get_preset(name)
        config = ExperimentConfig.from_dict(raw)
        assert config.run_id.startswith(name + "-")
        assert len(config.run_id.rsplit("-", 1)[1]) == 10
        if config.query is not None:
            RegularityQuery(**config.query)


def test_preset_copies_are_independent():
    a = get_preset("laplacian-d1")
    a["plan"]["seed"] = -1
    assert get_preset("laplacian-d1")["plan"]["seed"] != -1


def test_unknown_preset_lists_available():
    with pytest.raises(KeyError, match="available"):
        get_preset("not-a-preset")


def test_operator_presets():
    spec = operator_preset("smooth-varcoef")
    assert isinstance(spec, EllipticOperatorSpec)
    with pytest.raises(KeyError, match="available"):
        operator_preset("not-an-operator")


# ---------------------------------------------------------------------------
# config resolution: flags > file > preset
# ---------------------------------------------------------------------------

def test_resolution_precedence(tmp_path):
    file_cfg = tmp_path / "cfg.json"
    file_cfg.write_text(json.dumps({"plan": {"replicas": 3, "steps": 512}}))
    merged = resolve_config("laplacian-d1", file_cfg,
                            ["plan.replicas=2", "plan.T=0.5"])
    assert merged["plan"]["replicas"] == 2      # override beats file
    assert merged["plan"]["steps"] == 512       # file beats preset
    assert merged["plan"]["T"] == 0.5           # override beats preset
    assert merged["plan"]["seed"] == 101        # untouched preset value


KEYS = (st.sampled_from(["plan", "domain", "noise", "query", "name", "seed",
                         "steps", "theta"])
        | st.text("abxyz_", min_size=1, max_size=3))
VALUES = (st.integers(-10**6, 10**6) | st.booleans() | st.none()
          | st.text("abc", max_size=3) | st.lists(st.integers(0, 9), max_size=2))


@settings(max_examples=80, deadline=None)
@given(path=st.lists(KEYS, min_size=1, max_size=3), file_value=VALUES,
       override=st.none() | VALUES)
def test_resolution_precedence_on_arbitrary_keys(path, file_value, override):
    # the file sets one nested key, an optional override sets it again
    preset = get_preset("laplacian-d1")
    nested = file_value
    for key in reversed(path):
        nested = {key: nested}
    overrides = [] if override is None \
        else [".".join(path) + "=" + json.dumps(override)]
    with tempfile.TemporaryDirectory() as tmp:
        file_cfg = Path(tmp) / "cfg.json"
        file_cfg.write_text(json.dumps(nested))
        merged = resolve_config("laplacian-d1", file_cfg, overrides)
    node = merged
    for key in path:
        node = node[key]
    assert node == (file_value if override is None else override)
    # whatever the file does not name keeps its preset value
    base, top = preset, merged
    for key in path[:-1]:
        for other, value in base.items():
            if other != key:
                assert top[other] == value
        if not isinstance(base.get(key), dict):
            break
        base, top = base[key], top[key]
    else:
        assert {k: v for k, v in top.items() if k != path[-1]} == \
            {k: v for k, v in base.items() if k != path[-1]}


def test_config_file_may_reference_a_preset(tmp_path):
    file_cfg = tmp_path / "cfg.json"
    file_cfg.write_text(json.dumps({"preset": "laplacian-d1",
                                    "plan": {"seed": 5}}))
    merged = resolve_config(None, file_cfg, [])
    assert merged["plan"]["seed"] == 5
    assert merged["domain"]["grid_size"] == 128


def test_override_values_are_json_parsed():
    merged = resolve_config("laplacian-d1", None,
                            ["query=null", "g.kind=preset", "plan.seed=9"])
    assert merged["query"] is None
    assert merged["g"]["kind"] == "preset"
    assert merged["plan"]["seed"] == 9
    with pytest.raises(ValueError, match="form"):
        resolve_config("laplacian-d1", None, ["plan.seed"])


def test_seed_is_required(tmp_path):
    cfg = small_config(tmp_path)
    del cfg["plan"]["seed"]
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig.from_dict(cfg)
    cfg["plan"] = {}
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig.from_dict(cfg)


def every_section_config(out_dir):
    return small_config(out_dir, estimator={"temporal_mode": "pointwise"},
                        sweep={"alpha": [1.0, 2.0]},
                        operator={"kind": "laplacian"},
                        g={"kind": "preset", "name": "bump", "m": 8, "q": 16})


@pytest.mark.parametrize("path", [
    "typo_section", "plan.replcas", "plan.scheme", "noise.thetta",
    "estimator.temporal_mdoe", "sweep.slak", "operator.shfit", "g.nmae",
    "domain.grid_sise", "query.thetaa",
])
def test_unknown_config_keys_rejected(tmp_path, path):
    cfg = every_section_config(tmp_path)
    section, _, key = path.rpartition(".")
    (cfg[section] if section else cfg)[key] = 2
    with pytest.raises(ValueError, match=rf"unknown config keys: \['{path}'\]"):
        ExperimentConfig.from_dict(cfg)
    with pytest.raises(ValueError, match=path):
        run_experiment(cfg)
    assert not any(tmp_path.iterdir())  # refused before any stage ran


@pytest.mark.parametrize("path, value, message", [
    ("operator.kind", "lapalcian", "unknown operator.kind 'lapalcian'"),
    ("g.kind", "bmup", "unknown g.kind 'bmup'"),
    ("g.m", None, r"missing config keys: \['g.m'\]"),
    ("noise.truncation", None, r"missing config keys: \['noise.truncation'\]"),
    ("estimator.temporal_mode", "sup_space",
     "unknown estimator.temporal_mode 'sup_space'"),
    *(("sweep.alpha", alphas,
       "sweep.alpha needs a list of at least two distinct numbers")
      for alphas in ([], [1.0], [1.0, 1], [1.0, True], "1.0,2.0", 2.0,
                     [1.0, "2.0"])),
    # numpy would wrap a negative index
    ("estimator.point_index", -1, r"point_index \[-1\]: not an index"),
    ("estimator.times", [-1, 5], r"times \[-1\]: not an index"),
    # a selection of no time fails no index check
    ("estimator.times", [], r"estimator.times \[\]: selects no time"),
    *(("estimator.times", count, "estimator.times .*: selects no time; a "
       "count of times must be a positive integer")
      for count in (0, -3, 2.5, True, "32")),
    # bool() would read each as true and persist every ensemble
    *(("persist_trajectories", flag, "persist_trajectories needs true or "
       f"false, got {flag!r}") for flag in ("false", "0", "no", 0)),
    # float() and int() would run these at alpha 1 or truncation 12, or
    # fail naming no key
    *((path, value,
       "need number values, got " + re.escape(f"{path}={value!r}"))
      for path, value in (("plan.alpha", True), ("plan.T", "abc"),
                          ("noise.theta", "0.5"), ("noise.theta", [0.5]))),
    *(("noise.truncation", value, "need integer values, got "
       f"noise.truncation={value!r}") for value in (12.5, True, "12", 12.0)),
    # a slack of true would run as 1 and pass a falling sweep; a string
    # would fail only at verify, after every alpha was simulated
    *((path, value,
       "need number values, got " + re.escape(f"{path}={value!r}"))
      for path, value in (("sweep.slack", True), ("sweep.slack", "x"),
                          ("query.q", "8"), ("query.p", "4"),
                          ("query.alpha", False), ("query.theta", [0.5]),
                          ("query.m", "8"))),
    *(("query.d", value, f"need integer values, got query.d={value!r}")
      for value in (1.0, True, "1")),
])
def test_config_errors_refused_before_any_stage(tmp_path, path, value,
                                                message):
    cfg = every_section_config(tmp_path)
    section, _, key = path.rpartition(".")
    target = cfg[section] if section else cfg
    if value is None:
        del target[key]
    else:
        target[key] = value
    if "not an index" not in message:  # the record is the start's to read
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(cfg)
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("plan, inside, outside", [
    ({}, {"point_index": 63}, {"point_index": 64}),
    ({"space_count": 40}, {"point_index": 41}, {"point_index": 42}),
    ({}, {"times": [0, 512]}, {"times": [513]}),
    ({"time_stride": 2}, {"times": [0, 256]}, {"times": [257]}),
    ({}, {"times": 5000}, {"times": [5000]}),  # a number counts times
    ({}, {"point_index": 0}, {"point_index": 1.5}),
    ({}, {"times": [1]}, {"times": [True]}),  # time 0 is all zero
    ({}, {"times": [512]}, {"times": []}),
    ({}, {"times": 1}, {"times": 0}),
])
def test_estimator_indices_follow_the_record(tmp_path, plan, inside,
                                             outside):
    # 128 grid points at space count 40 record 42, over the 33-point floor
    cfg = small_config(tmp_path / "inside")
    cfg["domain"]["grid_size"] = 128
    cfg["plan"].update({"steps": 512, "replicas": 2, **plan})
    run_experiment(dict(cfg, estimator=inside), workers=1)
    # an index outside the record, a list or count of no time, or a value
    # that is no integer
    message = "selects no time" if outside.get("times") in ([], 0) \
        else "config keys need integer" if outside in (
            {"point_index": 1.5}, {"times": [True]}) else "not an index into"
    out = tmp_path / "outside"
    with pytest.raises(ValueError, match=message):
        run_experiment(dict(cfg, estimator=outside, output_dir=str(out)))
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("seed", None), ("steps", 2048.0), ("replicas", True),
    ("time_stride", "1"), ("space_count", 64.5),
])
def test_plan_integers_refused_before_any_stage(tmp_path, key, value):
    cfg = every_section_config(tmp_path)
    cfg["plan"][key] = value
    message = re.escape(f"need integer values, got plan.{key}={value!r}")
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(cfg)
    with pytest.raises(ValueError, match=f"plan.{key}"):
        run_experiment(cfg)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("section, value", [
    ("sweep", [1.0, 2.0]), ("query", "prop32"), ("estimator", None),
    ("operator", "laplacian"), ("g", []),
])
def test_sections_must_be_objects(tmp_path, section, value):
    cfg = every_section_config(tmp_path)
    cfg[section] = value
    message = f"config keys need object values, got {section}="
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(cfg)
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg)
    assert not any(tmp_path.iterdir())
    # no query and no sweep: both may be null
    cfg = dict(every_section_config(tmp_path), query=None, sweep=None)
    config = ExperimentConfig.from_dict(cfg)
    assert config.query is None and config.sweep is None


# one JSON value of each kind; the walk below feeds every key of the key
# table each of them that its type does not admit
JSON_SAMPLES = (True, 1, 2.5, "x", None, [], [1, 2.5], [[2.5]], {})


def _admitted(keys: dict) -> dict:
    """The required keys of a key-table section, each at the first JSON
    sample its type admits (None where none is)."""
    return {key: next((v for v in JSON_SAMPLES if kind.holds(v)), None)
            for key, (kind, default) in keys.items() if default is MISSING}


def _walked_keys() -> dict:
    """{key path: (type, config)} of every key of the key table, the
    operator and g kinds' included.  ``config`` holds every required key,
    and the key's section with its kind, at values their types admit."""
    base = _admitted(harness._KEYS[None])
    for name in base:
        base[name] = _admitted(harness._KEYS[name])
    sections = [(name, keys, {}) for name, keys in harness._KEYS.items()]
    sections += [(name, harness._keys(name, {"kind": kind}), {"kind": kind})
                 for name, kinds in harness._KINDS.items() for kind in kinds]
    walked = {}
    for name, keys, kind in sections:
        config = copy.deepcopy(base)
        if name is not None:
            config[name] = {**_admitted(keys), **kind}
        for key, (key_type, _) in keys.items():
            walked[key if name is None else f"{name}.{key}"] = (key_type,
                                                                 config)
    return walked


WALKED_KEYS = _walked_keys()


@pytest.mark.parametrize("path", sorted(WALKED_KEYS))
def test_every_key_refuses_every_other_json_kind(tmp_path, capsys,
                                                 monkeypatch, path):
    # taken from the key table, so a key added later is walked too
    key_type, config = WALKED_KEYS[path]
    section, _, key = path.rpartition(".")
    monkeypatch.chdir(tmp_path)
    refused = [value for value in JSON_SAMPLES if not key_type.holds(value)]
    assert refused, f"{path} admits every JSON kind"
    for value in refused:
        cfg = copy.deepcopy(config)
        (cfg[section] if section else cfg)[key] = value
        Path("cfg.json").write_text(json.dumps(cfg))
        code, _, err = run_cli(["run", "--config", "cfg.json"], capsys)
        assert (code, path in err) == (4, True), (value, err)
        assert os.listdir(tmp_path) == ["cfg.json"]


# the overrides of the runs CI's console-script step expects to run
CI_RUNS = [
    ("fractional-alpha-sweep", [
        "domain.grid_size=127", "domain.mode_cutoff=64",
        "noise.truncation=64", "plan.steps=1024", "plan.replicas=2",
        "sweep.alpha=[2.0,1.0]"]),
    ("laplacian-d1", ["plan.steps=48"]),
    ("laplacian-d1", ["plan.steps=1024", "plan.replicas=2"]),
    ("fractional-alpha-sweep", [
        "domain.grid_size=255", "domain.mode_cutoff=128",
        "noise.truncation=128", "plan.space_count=64", "plan.steps=1024",
        "plan.replicas=2", "sweep.alpha=[1.0,2.0]"]),
]


def test_presets_and_shipped_overrides_pass_the_key_table(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = [(name, []) for name, _ in list_presets()] + CI_RUNS + [
        (wl.preset, wl.overrides_for(0, tmp_path))
        for wl in workloads.WORKLOADS.values()]
    for preset, overrides in runs:
        ExperimentConfig.from_dict(resolve_config(preset,
                                                  overrides=overrides))


def test_preset_run_ids_are_pinned():
    # the run id hashes the stored config, so it pins manifest.json too
    assert {name: ExperimentConfig.from_dict(get_preset(name)).run_id
            for name, _ in list_presets()} == {
        "laplacian-d1": "laplacian-d1-2ebb5b8a5c",
        "laplacian-d2": "laplacian-d2-22c4d7a648",
        "varcoef-d1": "varcoef-d1-6c5f988797",
        "heat-white-d1-baseline": "heat-white-d1-baseline-4ff4e051dd",
        "colored-d1-thm31": "colored-d1-thm31-d3e47b14af",
        "fractional-alpha-sweep": "fractional-alpha-sweep-9bbeae455d",
    }


def test_run_id_and_manifest_leave_out_the_output_dir(tmp_path):
    # one experiment run into two directories, on one and on two threads
    cfg = small_config(tmp_path)
    cfg["plan"].update({"steps": 512, "replicas": 2})
    run_ids = {workers: run_experiment(
        dict(cfg, output_dir=str(tmp_path / f"workers-{workers}")),
        workers=workers).run_id for workers in (1, 2)}
    assert run_ids[1] == run_ids[2]
    for name in ("manifest.json", "estimates.csv", "verdict.json"):
        first, second = ((tmp_path / f"workers-{workers}" / run_ids[workers]
                          / name).read_bytes() for workers in (1, 2))
        assert first == second, name


def test_every_preset_record_fits_the_limit():
    for name, _ in list_presets():
        cfg = ExperimentConfig.from_dict(get_preset(name))
        plan, domain = cfg.plan, cfg.domain
        n_times, per_axis = convolve.RecordSpec(
            plan["time_stride"], plan["space_count"]).shape(
                domain["grid_size"], plan["steps"])
        record = 8 * plan["replicas"] * n_times \
            * per_axis ** domain["dimension"]
        assert record <= convolve.RECORD_BYTES, name


def test_run_id_tracks_content(tmp_path):
    a = ExperimentConfig.from_dict(small_config(tmp_path))
    b = ExperimentConfig.from_dict(small_config(tmp_path))
    assert a.run_id == b.run_id
    c_cfg = small_config(tmp_path)
    c_cfg["plan"]["seed"] = 12
    assert ExperimentConfig.from_dict(c_cfg).run_id != a.run_id


# ---------------------------------------------------------------------------
# pipeline persistence
# ---------------------------------------------------------------------------

def test_standard_outputs_exist(completed_run):
    _, manifest, run_dir = completed_run
    for name in ("estimates.csv", "region.csv", "verdict.json",
                 "manifest.json"):
        assert name in manifest.outputs
        assert (run_dir / name).is_file()
    assert all(status == "ok" for status in manifest.stages.values())


def test_estimates_table_schema(completed_run):
    _, _, run_dir = completed_run
    lines = (run_dir / "estimates.csv").read_text().splitlines()
    assert lines[0] == "alpha,kind,mode,value,fit_r2,lag_lo,lag_hi,replicas"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[1], r[2]) for r in rows] == [
        ("temporal", "pointwise"), ("temporal", "sup-space"),
        ("spatial", "pooled")]
    assert all(r[0] == "2" and r[7] == "4" for r in rows)
    assert all(0.0 <= float(r[3]) <= 1.5 for r in rows)


def test_rerun_is_byte_identical(completed_run):
    cfg, _, run_dir = completed_run
    before = {name: (run_dir / name).read_bytes()
              for name in ("estimates.csv", "region.csv", "verdict.json")}
    run_experiment(cfg)
    for name, payload in before.items():
        assert (run_dir / name).read_bytes() == payload


def test_rerun_writes_identical_manifest(tmp_path):
    cfg = small_config(tmp_path)
    cfg["plan"].update({"steps": 512, "replicas": 2})
    manifest = run_experiment(cfg)
    run_dir = tmp_path / manifest.run_id
    first = (run_dir / "manifest.json").read_bytes()
    # the persisted manifest is the returned one: it lists itself
    assert json.loads(first) == manifest.as_dict()
    run_experiment(cfg)
    assert (run_dir / "manifest.json").read_bytes() == first
    # wall-clock timings live beside the manifest, outside the outputs
    assert "timings" not in json.loads(first)
    timings = json.loads((run_dir / "timings.json").read_text())
    assert set(timings) == set(manifest.stages)
    assert "timings.json" not in manifest.outputs


def test_manifest_reproduces_the_run(completed_run):
    _, manifest, run_dir = completed_run
    stored = json.loads((run_dir / "manifest.json").read_text())
    assert stored["run_id"] == manifest.run_id
    assert stored["versions"]["numpy"] == np.__version__
    echo = ExperimentConfig.from_dict(stored["config"])
    assert echo.run_id == manifest.run_id
    derived = stored["derived"]
    assert derived["budget"] == pytest.approx(0.125)
    assert 0 < derived["sigma"] < 0.5 and 0 < derived["delta"] < 0.5


def test_trajectories_only_persisted_on_request(completed_run, tmp_path):
    _, _, run_dir = completed_run
    assert not list(run_dir.glob("trajectories*"))
    cfg = small_config(tmp_path, persist_trajectories=True)
    cfg["plan"].update({"steps": 512, "replicas": 2})
    manifest = run_experiment(cfg)
    persisted = tmp_path / manifest.run_id
    assert (persisted / "trajectories.bin").is_file()
    assert (persisted / "trajectories.json").is_file()
    recomputed = estimates_from_run(persisted)
    assert recomputed == (persisted / "estimates.csv").read_text()


def test_sweep_read_back_follows_the_run_order(tmp_path):
    # "trajectories-alpha-1.5" sorts before "trajectories-alpha-1" by name;
    # the read-back takes the run's own alpha order from the manifest
    cfg = small_config(tmp_path, query=None, persist_trajectories=True,
                       sweep={"alpha": [1.0, 1.5, 2.0]})
    cfg["plan"].update({"steps": 512, "replicas": 2})
    run_dir = tmp_path / run_experiment(cfg, workers=1).run_id
    assert estimates_from_run(run_dir, workers=1).encode() == \
        (run_dir / "estimates.csv").read_bytes()
    first = load_trajectories(str(run_dir / "trajectories-alpha-1.json"))
    assert export_plotdata(run_dir, kind="increments") == \
        harness._increment_profile_csv(first)


def test_stage_error_names_stage_and_keeps_partial_manifest(tmp_path,
                                                          monkeypatch):
    def failing(plan, **kwargs):
        raise RuntimeError("no room for this ensemble")

    monkeypatch.setattr(harness, "simulate", failing)
    with pytest.raises(StageError) as err:
        run_experiment(small_config(tmp_path))
    assert err.value.stage == "simulate"
    manifests = list(tmp_path.glob("*/manifest.json"))
    assert len(manifests) == 1
    stages = json.loads(manifests[0].read_text())["stages"]
    assert stages == {"build": "ok", "simulate": "failed at alpha 2: no room "
                                                 "for this ensemble"}


def test_hypothesis_violation_aborts_build(tmp_path):
    cfg = small_config(
        tmp_path,
        noise={"theta": 0.05, "truncation": 64},
        g={"kind": "preset", "name": "bump", "m": 8, "q": 16},
        query={"theorem": "colored", "d": 1, "q": 16, "theta": 0.05, "m": 8})
    with pytest.raises(HypothesisError, match="theta"):
        run_experiment(cfg)
    assert not any(tmp_path.iterdir())


def test_sweep_produces_monotonicity_verdict(tmp_path):
    cfg = small_config(tmp_path, query=None,
                       sweep={"alpha": [1.0, 2.0], "slack": 0.03})
    cfg["plan"].update({"steps": 1024, "replicas": 2, "T": 0.5})
    manifest = run_experiment(cfg)
    verdict = manifest.verdict
    assert verdict["kind"] == "alpha-sweep"
    assert verdict["alphas"] == [1.0, 2.0]
    assert len(verdict["beta_hats"]) == 2
    assert verdict["slack"] == 0.03
    assert isinstance(verdict["passed"], bool)
    est = (tmp_path / manifest.run_id / "estimates.csv").read_text()
    assert sum(1 for line in est.splitlines()[1:]) == 6  # 3 rows per alpha


def _small_sweep(out_dir, alphas) -> dict:
    """A 127-point, 1024-step, 2-replica sweep whose beta_hat falls from
    alpha 1 to alpha 2 by more than the slack."""
    cfg = resolve_config(preset="fractional-alpha-sweep", overrides=[
        "domain.grid_size=127", "domain.mode_cutoff=64",
        "noise.truncation=64", "plan.steps=1024", "plan.replicas=2",
        f"sweep.alpha={json.dumps(alphas)}"])
    cfg["output_dir"] = str(out_dir)
    return cfg


def test_sweep_verdict_compares_alphas_ascending(tmp_path):
    verdicts = {}
    for alphas in ([1.0, 2.0], [2.0, 1.0]):
        manifest = run_experiment(_small_sweep(tmp_path, alphas), workers=1)
        verdicts[tuple(alphas)] = \
            (tmp_path / manifest.run_id / "verdict.json").read_bytes()
    assert verdicts[(1.0, 2.0)] == verdicts[(2.0, 1.0)]
    verdict = json.loads(verdicts[(2.0, 1.0)])
    assert verdict["alphas"] == [1.0, 2.0]
    assert verdict["beta_hats"][1] < verdict["beta_hats"][0] - 0.03
    assert verdict["passed"] is False


def _fail_simulate(monkeypatch, error=RuntimeError, call=2):
    """Make ``harness.simulate`` raise ``error`` on its ``call``-th call,
    after writing into its ``out``, as a kill mid-run would."""
    calls = []

    def failing(plan, **kwargs):
        calls.append(plan.alpha)
        if len(calls) == call:
            if kwargs.get("out") is not None:
                kwargs["out"][0] = 1.0
            raise error("no room for this ensemble")
        return simulate(plan, **kwargs)

    simulate = harness.simulate
    monkeypatch.setattr(harness, "simulate", failing)


def test_later_alpha_failure_leaves_an_honest_manifest(tmp_path, monkeypatch):
    _fail_simulate(monkeypatch)
    cfg = small_config(tmp_path, query=None, persist_trajectories=True,
                       sweep={"alpha": [1.0, 1.5, 2.0]})
    cfg["plan"].update({"steps": 512, "replicas": 2})
    with pytest.raises(StageError) as err:
        run_experiment(cfg, workers=1)
    assert err.value.stage == "simulate"
    assert "at alpha 1.5" in str(err.value)
    run_dir = tmp_path / ExperimentConfig.from_dict(cfg).run_id
    manifest = json.loads((run_dir / "manifest.json").read_text())
    timings = json.loads((run_dir / "timings.json").read_text())
    assert manifest["stages"]["simulate"] == \
        "failed at alpha 1.5: no room for this ensemble"
    # the first alpha was persisted and fitted, the sweep was not
    assert manifest["stages"]["persist-trajectories"] == "incomplete"
    assert manifest["stages"]["estimate"] == "incomplete"
    assert set(timings) == set(manifest["stages"])
    assert manifest["outputs"] == ["trajectories-alpha-1.bin",
                                   "trajectories-alpha-1.json",
                                   "manifest.json"]
    assert not (run_dir / "estimates.csv").exists()


def test_failed_rerun_leaves_none_of_the_earlier_outputs(tmp_path,
                                                         monkeypatch):
    cfg = small_config(tmp_path, persist_trajectories=True,
                       sweep={"alpha": [1.0, 1.5, 2.0]})
    cfg["plan"].update({"steps": 512, "replicas": 2})
    run_dir = tmp_path / run_experiment(cfg, workers=1).run_id
    assert {"estimates.csv", "verdict.json", "region.csv"} \
        <= set(os.listdir(run_dir))
    assert os.listdir(tmp_path) == [run_dir.name]  # no staging directory
    _fail_simulate(monkeypatch)
    with pytest.raises(StageError, match="at alpha 1.5"):
        run_experiment(cfg, workers=1)
    outputs = json.loads((run_dir / "manifest.json").read_text())["outputs"]
    assert outputs == ["trajectories-alpha-1.bin",
                       "trajectories-alpha-1.json", "manifest.json"]
    assert sorted(os.listdir(run_dir)) == sorted(outputs + ["timings.json"])
    assert os.listdir(tmp_path) == [run_dir.name]
    # nor does a single alpha's: its payload is deleted with the failure
    single = small_config(tmp_path / "single", persist_trajectories=True)
    single["plan"].update({"steps": 512, "replicas": 2})
    run_dir = tmp_path / "single" / run_experiment(single, workers=1).run_id
    with monkeypatch.context() as patch:
        _fail_simulate(patch, call=1)
        with pytest.raises(StageError, match="at alpha 2: no room"):
            run_experiment(single, workers=1)
    outputs = json.loads((run_dir / "manifest.json").read_text())["outputs"]
    assert outputs == ["manifest.json"]
    assert sorted(os.listdir(run_dir)) == ["manifest.json", "timings.json"]
    assert os.listdir(run_dir.parent) == [run_dir.name]


def test_killed_rerun_leaves_the_earlier_run_whole(tmp_path, monkeypatch):
    # a run that dies without landing (no manifest written) leaves the
    # earlier run as it was; the next run clears its staging and lands
    cfg = small_config(tmp_path, query=None, persist_trajectories=True,
                       sweep={"alpha": [1.0, 2.0]})
    cfg["plan"].update({"steps": 512, "replicas": 2})
    run_dir = tmp_path / run_experiment(cfg, workers=1).run_id
    earlier = {path.name: path.read_bytes() for path in run_dir.iterdir()}
    staging = tmp_path / f".{run_dir.name}.partial"
    with monkeypatch.context() as patch:
        _fail_simulate(patch, error=KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg, workers=1)
    assert {path.name: path.read_bytes() for path in run_dir.iterdir()} \
        == earlier
    assert sorted(os.listdir(staging)) == ["trajectories-alpha-1.bin",
                                           "trajectories-alpha-1.json"]
    manifest = run_experiment(cfg, workers=1)
    assert os.listdir(tmp_path) == [run_dir.name]
    assert sorted(os.listdir(run_dir)) == \
        sorted(manifest.outputs + ["timings.json"])
    assert all((run_dir / name).read_bytes() == earlier[name]
               for name in manifest.outputs)
    # a single alpha killed in simulate leaves no payload in staging
    single = small_config(tmp_path / "single", persist_trajectories=True)
    single["plan"].update({"steps": 512, "replicas": 2})
    run_dir = tmp_path / "single" / run_experiment(single, workers=1).run_id
    earlier = {path.name: path.read_bytes() for path in run_dir.iterdir()}
    assert "trajectories.bin" in earlier
    with monkeypatch.context() as patch:
        _fail_simulate(patch, error=KeyboardInterrupt, call=1)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(single, workers=1)
    assert os.listdir(run_dir.with_name(f".{run_dir.name}.partial")) == []
    assert {path.name: path.read_bytes() for path in run_dir.iterdir()} \
        == earlier


@pytest.mark.parametrize("name", ["../victim.txt", "/abs/victim.txt",
                                  "sub/victim.txt", "..", "", 7])
def test_rerun_replaces_the_run_directory_whole(tmp_path, name):
    # nothing reads an earlier manifest: whatever names it lists, the run
    # directory is replaced as a whole and nothing outside it is touched
    cfg = small_config(tmp_path)
    cfg["plan"].update({"steps": 512, "replicas": 2})
    run_dir = tmp_path / ExperimentConfig.from_dict(cfg).run_id
    run_dir.mkdir()
    (tmp_path / "victim.txt").write_text("kept")
    (run_dir / "manifest.json").write_text(json.dumps({"outputs": [name]}))
    (run_dir / "stale.csv").write_text("unlisted")
    manifest = run_experiment(cfg, workers=1)
    assert (tmp_path / "victim.txt").read_text() == "kept"
    assert sorted(os.listdir(tmp_path)) == [run_dir.name, "victim.txt"]
    assert sorted(os.listdir(run_dir)) == \
        sorted(manifest.outputs + ["timings.json"])


def test_pipeline_holds_one_ensemble_at_a_time(tmp_path, monkeypatch):
    alphas, alive = [], []

    def watched(plan, **kwargs):
        gc.collect()
        assert [ref for ref in alive if ref() is not None] == [], \
            f"an earlier ensemble outlived its alpha at alpha {plan.alpha}"
        alphas.append(plan.alpha)
        ens = simulate(plan, **kwargs)
        alive.append(weakref.ref(ens.values))
        return ens

    simulate = harness.simulate
    monkeypatch.setattr(harness, "simulate", watched)
    cfg = small_config(tmp_path, query=None, persist_trajectories=True,
                       sweep={"alpha": [2.0, 1.0, 1.5]})
    cfg["plan"].update({"steps": 512, "replicas": 2})
    manifest = run_experiment(cfg, workers=1)
    # one call per alpha, in the listed order: perfbench's tracer and CI's
    # traced smoke run capture exactly these calls
    assert alphas == [2.0, 1.0, 1.5]
    assert manifest.verdict["alphas"] == [1.0, 1.5, 2.0]
    gc.collect()
    assert all(ref() is None for ref in alive)


def test_sweep_verdict_needs_a_temporal_mode(tmp_path):
    cfg = small_config(tmp_path, query=None, sweep={"alpha": [1.0, 2.0]},
                       estimator={"temporal_mode": "pooled"})
    with pytest.raises(ValueError, match="temporal_mode"):
        run_experiment(cfg)
    assert not any(tmp_path.iterdir())  # refused before any stage ran


@pytest.mark.parametrize("plan, message", [
    ({"steps": 48}, "need at least 64 recorded times, the record has 49"),
    ({"space_count": 16}, "need at least 33 recorded points per spatial "
                          "axis, the record has 16"),
])
def test_short_record_refused_before_any_directory(tmp_path, plan, message):
    # the fits' sample floors are read off the plan's record, so every run
    # fails before it simulates
    cfg = small_config(tmp_path)
    cfg["plan"].update(plan)
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, workers=1)
    assert not any(tmp_path.iterdir())


def _diagonal_config(out_dir, count, grid_size, **extra):
    """A config on ``count`` eigenvalues whose domain section says
    ``grid_size`` points, which a diagonal operator's grid ignores."""
    cfg = small_config(out_dir, operator={
        "kind": "diagonal",
        "eigenvalues": [np.pi**2 * k**2 for k in range(1, count + 1)]},
        **extra)
    cfg["domain"] = {"dimension": 1, "grid_size": grid_size,
                     "mode_cutoff": 16}
    cfg["noise"]["truncation"] = 16
    cfg["plan"].update({"steps": 512, "replicas": 2})
    return cfg


def test_short_record_reads_the_diagonal_grid(tmp_path):
    # a diagonal operator's grid has one point per eigenvalue, whatever the
    # domain section says: 64 eigenvalues fit, 16 do not
    with pytest.raises(ValueError, match="the record has 16"):
        run_experiment(_diagonal_config(tmp_path, 16, 64), workers=1)
    assert not any(tmp_path.iterdir())
    manifest = run_experiment(_diagonal_config(tmp_path, 64, 16), workers=1)
    assert manifest.stages["estimate"] == "ok"


def test_index_check_reads_the_diagonal_grid(tmp_path):
    # 64 eigenvalues record 64 points: an index the domain section's 16
    # points lack is taken, one its 80 points hold is refused up front
    inside = _diagonal_config(tmp_path, 64, 16,
                              estimator={"point_index": 40})
    manifest = run_experiment(inside, workers=1)
    assert manifest.stages["estimate"] == "ok"
    outside = _diagonal_config(tmp_path / "outside", 64, 80,
                               estimator={"point_index": 70})
    with pytest.raises(ValueError, match=re.escape(
            "estimator.point_index [70]: not an index into [0, 64)")):
        run_experiment(outside, workers=1)
    assert not (tmp_path / "outside").exists()


def test_vacuous_region_run(tmp_path):
    cfg = get_preset("laplacian-d2")
    cfg["output_dir"] = str(tmp_path)
    manifest = run_experiment(cfg)
    verdict = manifest.verdict
    assert verdict["passed"] is True
    assert verdict["beta_hat"] is None
    assert "empty region" in verdict["note"]
    assert "region.csv" not in manifest.outputs
    assert not (tmp_path / manifest.run_id / "region.csv").exists()


def _count_fits(monkeypatch) -> collections.Counter:
    """Count exponent fits by mode, wherever the pipeline looks them up."""
    calls = collections.Counter()

    def counted(fit, spatial):
        def wrapper(ens, *args, **kwargs):
            calls["pooled" if spatial else kwargs.get("mode", "pointwise")] += 1
            return fit(ens, *args, **kwargs)
        return wrapper

    for module in (harness, regularity):
        monkeypatch.setattr(module, "estimate_temporal_exponent", counted(
            module.estimate_temporal_exponent, spatial=False))
        monkeypatch.setattr(module, "estimate_spatial_exponent", counted(
            module.estimate_spatial_exponent, spatial=True))
    return calls


def test_region_run_fits_each_ensemble_once(tmp_path, monkeypatch):
    calls = _count_fits(monkeypatch)
    cfg = small_config(tmp_path)
    cfg["plan"].update({"steps": 512, "replicas": 2})
    manifest = run_experiment(cfg)
    assert manifest.verdict["kind"] == "region"
    assert manifest.verdict["beta_hat"] is not None
    assert calls == {"pointwise": 1, "sup-space": 1, "pooled": 1}


def _estimate_table(run_dir) -> dict:
    lines = (run_dir / "estimates.csv").read_text().splitlines()[1:]
    return {row[2]: float(row[3]) for row in (ln.split(",") for ln in lines)}


def test_region_verdict_reads_the_estimate_table(tmp_path):
    # non-default spatial times shape the pooled row and the verdict alike
    cfg = small_config(tmp_path, estimator={"times": [100, 400, 700, 1000]})
    cfg["plan"].update({"steps": 1024, "replicas": 2})
    manifest = run_experiment(cfg)
    run_dir = tmp_path / manifest.run_id
    table = _estimate_table(run_dir)
    verdict = json.loads((run_dir / "verdict.json").read_text())
    assert verdict["beta_hat"] == table["sup-space"]
    assert verdict["gamma_hat"] == table["pooled"]


def test_query_dimension_mismatch_refused_before_any_directory(tmp_path):
    cfg = small_config(tmp_path,
                       query={"theorem": "prop32", "d": 2, "q": 12, "p": 6})
    cfg["plan"].update({"steps": 512, "replicas": 2})
    with pytest.raises(ValueError, match="1-dimensional, query says d=2"):
        run_experiment(cfg)
    assert not any(tmp_path.iterdir())


def test_tracing_patch_points_are_callable():
    # perfbench's tracer wraps these module attributes by name
    for name in ("build_laplacian_system", "make_cameron_martin",
                 "validate_noise_hypotheses", "simulate",
                 "estimate_temporal_exponent", "estimate_spatial_exponent",
                 "verify_region", "save_trajectories", "load_trajectories"):
        assert callable(getattr(harness, name))
    for name in ("estimate_temporal_exponent", "estimate_spatial_exponent"):
        assert callable(getattr(regularity, name))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_export_region_matches_query(completed_run):
    # every run whose region is not empty writes the query's boundary
    _, manifest, run_dir = completed_run
    text = (run_dir / "region.csv").read_text()
    query = RegularityQuery("prop32", d=1, q=8, p=4)
    assert text == region_csv(query)
    assert "region.csv" in manifest.outputs
    first = text.splitlines()[1].split(",")
    assert (float(first[0]), float(first[1])) == (0.0, 0.25)


def test_export_requires_persisted_trajectories(completed_run):
    _, _, run_dir = completed_run
    with pytest.raises(FileNotFoundError, match="persist"):
        export_plotdata(run_dir, "increments")


def test_export_unknown_kind_and_missing_run(completed_run, tmp_path):
    _, _, run_dir = completed_run
    with pytest.raises(ValueError, match="kind"):
        export_plotdata(run_dir, "heatmap")
    with pytest.raises(FileNotFoundError, match="unknown run"):
        export_plotdata(tmp_path / "no-such-run", "increments")


def test_export_increments_and_trajectory(tmp_path):
    cfg = small_config(tmp_path, persist_trajectories=True)
    cfg["plan"].update({"steps": 512, "replicas": 2})
    manifest = run_experiment(cfg)
    run_dir = tmp_path / manifest.run_id
    inc = export_plotdata(run_dir, "increments").splitlines()
    assert inc[0] == "axis,lag,median_max_increment"
    axes = {line.split(",")[0] for line in inc[1:]}
    assert axes == {"time", "space"}
    path = export_plotdata(run_dir, "trajectory", max_replicas=1)
    header = path.read_text().splitlines()[0]
    assert header.startswith("replica,")


# Two small seeded runs, one per dimension, and the exact text their
# estimate table and increments export produced (x86-64, numpy 2.4,
# OpenBLAS).  The estimators and the export share one increment-profile
# routine; these bytes pin that they still compute what they did.
PINNED_RUNS = {
    "d1": {
        "name": "pin-d1",
        "domain": {"dimension": 1, "grid_size": 64, "mode_cutoff": 64},
        "noise": {"theta": 0.0, "truncation": 64},
        "plan": {"seed": 11, "steps": 512, "replicas": 3, "space_count": 64},
        "query": {"theorem": "prop32", "d": 1, "q": 8, "p": 4},
        "persist_trajectories": True,
    },
    "d2": {
        "name": "pin-d2",
        "domain": {"dimension": 2, "grid_size": 35, "mode_cutoff": 8},
        "noise": {"theta": 0.5, "truncation": 64},
        "g": {"kind": "preset", "name": "bump", "m": 8.0, "q": 16.0},
        "plan": {"seed": 5, "steps": 256, "replicas": 3, "space_count": 35},
        "persist_trajectories": True,
    },
}
PINNED_TEXT = {
    "d1": {
        "estimates": (
            "alpha,kind,mode,value,fit_r2,lag_lo,lag_hi,replicas\n"
            "2,temporal,pointwise,0.18144886749384212,0.86844090603897106,0.0078125,0.25,3\n"
            "2,temporal,sup-space,0.15350626523171826,0.95986771550850603,0.0078125,0.25,3\n"
            "2,spatial,pooled,0.52132971184409216,1,0.061538461538461542,0.12307692307692308,3\n"
        ),
        "increments": (
            "axis,lag,median_max_increment\n"
            "time,0.0078125,0.92741642936822499\n"
            "time,0.015625,1.0918566157238589\n"
            "time,0.03125,1.2461181145976372\n"
            "time,0.0625,1.3860953935132021\n"
            "time,0.125,1.6968067452342024\n"
            "time,0.25,1.703833279739263\n"
            "space,0.061538461538461542,0.68138673892578694\n"
            "space,0.12307692307692308,0.95324982092306321\n"
        ),
    },
    "d2": {
        "estimates": (
            "alpha,kind,mode,value,fit_r2,lag_lo,lag_hi,replicas\n"
            "2,temporal,pointwise,0.088885047892667629,0.52520467330542253,0.015625,0.25,3\n"
            "2,temporal,sup-space,0.061166379592814124,0.41029013189359098,0.015625,0.25,3\n"
            "2,spatial,pooled,0.56930152934061318,1,0.1111111111111111,0.22222222222222221,3\n"
        ),
        "increments": (
            "axis,lag,median_max_increment\n"
            "time,0.015625,0.4666679454983268\n"
            "time,0.03125,0.50636401260743669\n"
            "time,0.0625,0.54032651417542221\n"
            "time,0.125,0.61508153670436161\n"
            "time,0.25,0.55993465428747136\n"
            "space,0.1111111111111111,0.27426856074896533\n"
            "space,0.22222222222222221,0.38287699525016827\n"
        ),
    },
}


@pytest.mark.parametrize("key", sorted(PINNED_RUNS))
def test_estimates_and_increments_match_pinned_text(key, tmp_path):
    manifest = run_experiment(dict(PINNED_RUNS[key], output_dir=str(tmp_path)),
                              workers=2)
    run_dir = tmp_path / manifest.run_id
    want = PINNED_TEXT[key]
    assert (run_dir / "estimates.csv").read_text() == want["estimates"]
    assert export_plotdata(run_dir, "increments") == want["increments"]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse errors route through SystemExit
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_region_worked_example(capsys):
    code, out, _ = run_cli(["region", "--theorem", "prop32", "--d", "1",
                            "--q", "8", "--p", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta,gamma_max,theorem,params"
    assert lines[1] == "0,0.25,prop32,d=1;q=8;p=4"
    assert len(lines) == 34


def test_cli_region_needs_query_flags(capsys):
    code, _, err = run_cli(["region", "--d", "1", "--q", "8"], capsys)
    assert code == 4


def test_cli_presets_lists_contract_names(capsys):
    code, out, _ = run_cli(["presets"], capsys)
    assert code == 0
    for name in CONTRACT_PRESETS:
        assert name in out


def test_cli_gamma_norm_table(capsys):
    code, out, _ = run_cli(["gamma-norm", "--kind", "identity", "--N", "4",
                            "--p", "2", "--samples", "20000", "--seed", "7"],
                           capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "estimate,std_error,N,samples"
    est, se, n, samples = lines[1].split(",")
    assert float(est) == pytest.approx(2.0, abs=5 * float(se))
    assert (n, samples) == ("4", "20000")


def test_cli_gamma_norm_other_kinds(capsys):
    for kind in ("gaussian", "rank-one"):
        code, out, _ = run_cli(["gamma-norm", "--kind", kind, "--N", "6",
                                "--p", "4", "--samples", "5000",
                                "--seed", "3"], capsys)
        assert code == 0
        assert float(out.splitlines()[1].split(",")[0]) > 0


def test_cli_fracpow_check_hits_tolerance(capsys):
    code, out, _ = run_cli(["fracpow-check", "--nodes", "200"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z,method,relative_error,nodes"
    assert len(lines) == 7
    for line in lines[1:]:
        z, method, err, nodes = line.split(",")
        assert method in ("quadrature", "balakrishnan")
        assert float(err) < 1e-7
        assert nodes == "200"


def test_cli_run_and_verify_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(tmp_path / "runs")))
    code, out, _ = run_cli(["run", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert "PASS" in out
    code, out, _ = run_cli(["run", "--config", str(cfg_path),
                            "--set", "query.p=400", "--set", "query.q=400"],
                           capsys)
    assert code == 2
    assert "FAIL" in out


def test_cli_hypothesis_failure_exits_3(tmp_path, capsys):
    cfg = small_config(
        tmp_path / "runs",
        noise={"theta": 0.05, "truncation": 64},
        g={"kind": "preset", "name": "bump", "m": 8, "q": 16},
        query={"theorem": "colored", "d": 1, "q": 16, "theta": 0.05, "m": 8})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
    assert code == 3
    assert "hypothesis" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("flags, message", [
    # none of these needs an ensemble, or a directory, to be refused; an
    # unknown operator preset is test_cli_stage_error_exits_4's case
    (["--preset", "laplacian-d2", "--set", "query.d=1"],
     "simulation is 2-dimensional, query says d=1"),
    (["--preset", "fractional-alpha-sweep",
      "--set", "sweep.alpha=[1.0,1.5,2.5]"],
     r"alpha must lie in \(0, 2\], got 2.5"),
    (["--preset", "laplacian-d1", "--set", "noise.truncation=500"],
     "requested truncation 500"),
    (["--preset", "laplacian-d1", "--set", "query.p=1"], "p must exceed"),
    # a cast or a clamp would run these, persisting or on one thread
    (["--preset", "laplacian-d1", "--set", "persist_trajectories=no"],
     "persist_trajectories needs true or false, got 'no'"),
    (["--preset", "laplacian-d1", "--workers", "-3"],
     "workers must be a positive count, or 0 for one per CPU; got -3"),
    (["--preset", "laplacian-d1", "--set", "plan.alpha=true"],
     "need number values, got plan.alpha=True"),
    (["--preset", "laplacian-d1", "--set", "plan.T=abc"],
     "need number values, got plan.T='abc'"),
    (["--preset", "laplacian-d1", "--set", "noise.theta=null"],
     "need number values, got noise.theta=None"),
    (["--preset", "laplacian-d1", "--set", "noise.truncation=12.5"],
     "need integer values, got noise.truncation=12.5"),
    (["--preset", "laplacian-d1", "--set", "domain.grid_size=1.5"],
     "need integer values, got domain.grid_size=1.5"),
    (["--preset", "fractional-alpha-sweep", "--set", "sweep.slack=true"],
     "need number values, got sweep.slack=True"),
    (["--preset", "fractional-alpha-sweep", "--set", "sweep.slack=x"],
     "need number values, got sweep.slack='x'"),
    (["--preset", "fractional-alpha-sweep", "--set", "sweep.slack=null"],
     "need number values, got sweep.slack=None"),
    (["--preset", "laplacian-d1", "--set", "query.d=1.0"],
     "need integer values, got query.d=1.0"),
    (["--preset", "laplacian-d1", "--set", 'query.p="4"'],
     "need number values, got query.p='4'"),
    (["--preset", "laplacian-d1", "--set", "query.q=null"],
     "need number values, got query.q=None"),
    # a cast would run these at shift 1, and call q = 1 a violated hypothesis
    (["--preset", "laplacian-d1", "--set", "operator.shift=true"],
     "need number values, got operator.shift=True"),
    (["--preset", "colored-d1-thm31", "--set", "g.q=true"],
     "need number values, got g.q=True"),
    (["--preset", "laplacian-d1", "--set", "output_dir=null"],
     "need string values, got output_dir=None"),
    (["--preset", "laplacian-d1", "--set", 'name="a/b"'],
     "config key name needs a plain path component, got 'a/b'"),
    # refused by arithmetic on the plan's record shape, allocating nothing
    (["--preset", "laplacian-d1", "--set", "plan.replicas=1000000"],
     "the record needs 4195328000000 bytes, over RECORD_BYTES = 1073741824; "
     "shrink plan.replicas, plan.time_stride or plan.space_count"),
    (["--preset", "laplacian-d1", "--set", "estimator.point_index=-1"],
     r"estimator.point_index \[-1\]: not an index"),
    (["--preset", "laplacian-d1", "--set", "estimator.times=[]"],
     r"estimator.times \[\]: selects no time"),
    (["--preset", "fractional-alpha-sweep", "--set", "sweep.alpha=[]"],
     "sweep.alpha needs a list of at least two distinct numbers"),
])
def test_cli_bad_value_exits_4_before_any_directory(
        tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["run", *flags], capsys)
    assert code == 4
    assert re.search(message, err)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("content, message", [
    ([1], "config file {path} must hold a JSON object, got list"),
    ("abc", "config file {path} must hold a JSON object, got str"),
    ({"preset": ["x"]}, "config keys need string values, got preset=['x']"),
])
def test_cli_config_file_of_the_wrong_type_exits_4_before_any_directory(
        tmp_path, capsys, monkeypatch, content, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(content))
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
    assert (code, err) == (4, f"error: {message.format(path=cfg_path)}\n")
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_cli_stage_error_exits_4(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(
        tmp_path / "runs", operator={"kind": "varcoef", "name": "nope"})))
    code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
    assert code == 4
    assert err.startswith("error: ") and "'nope'" in err
    assert not (tmp_path / "runs").exists()


def test_ci_folding_sweep_folds(tmp_path, monkeypatch):
    # the small sweep that CI's console-script step runs at workers 1 and 2:
    # 128 sines on a 255-point grid, recorded at stride 4, fold onto the
    # 63 points (i + 1) / 64, over the 33-point spatial floor
    cfg = resolve_config("fractional-alpha-sweep", overrides=[
        "domain.grid_size=255", "domain.mode_cutoff=128",
        "noise.truncation=128", "plan.space_count=64", "plan.steps=1024",
        "plan.replicas=2", "sweep.alpha=[1.0,2.0]",
        f"output_dir={json.dumps(str(tmp_path))}"])
    folds, simulate = [], harness.simulate

    def recorded(plan, **kwargs):
        folds.append(convolve._Core.build(plan).fold)
        return simulate(plan, **kwargs)

    monkeypatch.setattr(harness, "simulate", recorded)
    assert run_experiment(cfg, workers=1).verdict["passed"]
    assert folds == [64, 64]


def test_cli_non_integer_seed_exits_4_before_any_directory(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["run", "--preset", "laplacian-d1",
                            "--set", "plan.seed=null"], capsys)
    assert code == 4
    assert "plan.seed" in err
    assert not any(tmp_path.iterdir())


def test_cli_short_record_exits_4_before_any_directory(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags = ["--preset", "laplacian-d1", "--out-dir", "short",
             "--set", "plan.steps=48"]
    code, _, err = run_cli(["run", *flags], capsys)
    assert code == 4
    assert "need at least 64 recorded times" in err
    assert not any(tmp_path.iterdir())


def test_cli_colored_query_without_integrability_exits_4(
        tmp_path, capsys, monkeypatch):
    # 1/p = 1/2 - theta/d + 1/m is not positive: no derived integrability
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["run", "--preset", "colored-d1-thm31",
                            "--set", "query.theta=0.7",
                            "--set", "noise.theta=0.7"], capsys)
    assert code == 4
    assert err == "error: theta too large for the derived integrability\n"
    assert not any(tmp_path.iterdir())


def test_cli_verbose_adds_the_traceback(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(
        tmp_path / "runs", operator={"kind": "varcoef", "name": "nope"})))
    code, out, err = run_cli(["run", "--config", str(cfg_path)], capsys)
    assert code == 4
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    code, verbose_out, verbose = run_cli(
        ["--verbose", "run", "--config", str(cfg_path)], capsys)
    assert code == 4
    assert verbose_out == out
    assert verbose.startswith("Traceback (most recent call last):")
    assert verbose.endswith(err)


def test_cli_needs_a_config_source(capsys):
    code, _, err = run_cli(["run"], capsys)
    assert code == 4
    assert "--preset" in err


def test_cli_simulate_then_estimate_from_run(tmp_path, capsys, monkeypatch):
    cfg = small_config(tmp_path / "runs")
    cfg["plan"].update({"steps": 512, "replicas": 2})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["run", "--config", str(cfg_path),
                            "--persist-trajectories"], capsys)
    assert code == 0
    run_dir = Path(out.splitlines()[0].split(" -> ")[1])
    code, out, _ = run_cli(["estimate", "--run", str(run_dir)], capsys)
    assert code == 0
    assert out == (run_dir / "estimates.csv").read_text()
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["estimate", "--run", str(run_dir), "--out",
                            "table.csv"], capsys)
    assert (code, out) == (0, "table.csv\n")
    assert Path("table.csv").read_bytes() == \
        (run_dir / "estimates.csv").read_bytes()
    # estimate reads a run: without one it exits 4, and it takes no config
    code, out, err = run_cli(["estimate"], capsys)
    assert (code, out) == (4, "")
    assert "--run" in err
    code, out, err = run_cli(["estimate", "--preset", "laplacian-d1"], capsys)
    assert (code, out) == (4, "")


def _cli_run(tmp_path, capsys, cfg) -> tuple:
    """(exit code, printed lines after the run line) of ``hspde run``."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["run", "--config", str(cfg_path)], capsys)
    run_line, *lines = out.splitlines()
    assert run_line.startswith("run ")
    return code, lines


def test_cli_prints_sweep_no_query_and_vacuous_verdicts(tmp_path, capsys):
    code, lines = _cli_run(tmp_path, capsys,
                           _small_sweep(tmp_path / "sweep", [1.0, 2.0]))
    assert code == 2
    assert re.fullmatch(r"sweep \(pointwise\): alpha=1: beta_hat=\S+, "
                        r"alpha=2: beta_hat=\S+", lines[0])
    assert lines[1:] == ["monotone within slack 0.03: FAIL"]
    short = {"steps": 512, "replicas": 2}
    cfg = small_config(tmp_path / "none", query=None)
    cfg["plan"].update(short)
    assert _cli_run(tmp_path, capsys, cfg) == (0, [
        "no query configured; estimates written without a verdict"])
    # budget 1/2 - 1/2 - 1/4 < 0: the region is empty
    cfg = small_config(tmp_path / "vacuous", query={
        "theorem": "prop32", "d": 1, "q": 2, "p": 4})
    cfg["plan"].update(short)
    assert _cli_run(tmp_path, capsys, cfg) == (0, [
        "theorem prop32 (d=1;q=2;p=4)",
        "empty region: budget <= 0, nothing to verify",
        "region check: PASS (0 failing vertices)"])


def test_cli_exports_a_persisted_run(tmp_path, capsys):
    cfg = small_config(tmp_path / "runs", persist_trajectories=True)
    cfg["plan"].update({"steps": 512, "replicas": 2})
    run_dir = tmp_path / "runs" / run_experiment(cfg, workers=1).run_id
    code, out, _ = run_cli(["export", "increments", "--run", str(run_dir)],
                           capsys)
    assert (code, out) == (0, export_plotdata(run_dir, "increments"))
    target = tmp_path / "trajectory.csv"
    code, out, _ = run_cli(["export", "trajectory", "--run", str(run_dir),
                            "--out", str(target), "--max-replicas", "1"],
                           capsys)
    assert (code, out) == (0, f"{target}\n")
    assert target.read_text().splitlines()[0].startswith("replica,")
    # a header-only CSV is no export of a run that has replicas
    for count in ("0", "-1"):
        code, _, err = run_cli(["export", "trajectory", "--run", str(run_dir),
                                "--out", str(tmp_path / "none.csv"),
                                "--max-replicas", count], capsys)
        assert (code, err) == (4, f"error: max_replicas must be at least 1, "
                                  f"got {count}\n")
    assert not (tmp_path / "none.csv").exists()


def test_cli_export_region_without_run(capsys):
    # a region CSV from query flags is `hspde region`'s job, and a run's is
    # its region.csv; export reads a run's trajectories, and refuses the
    # query flags rather than ignore them
    code, out, err = run_cli(["export", "increments"], capsys)
    assert (code, out) == (4, "")
    assert "--run" in err
    code, out, err = run_cli(["export", "increments", "--run", "r",
                              "--theorem", "prop32", "--d", "1", "--q", "8",
                              "--points", "5"], capsys)
    assert (code, out) == (4, "")
    assert "unrecognized arguments" in err
    code, out, err = run_cli(["export", "region", "--run", "r"], capsys)
    assert (code, out) == (4, "")
    assert "invalid choice: 'region'" in err


def test_cli_export_missing_run_errors(tmp_path, capsys):
    code, _, err = run_cli(["export", "increments",
                            "--run", str(tmp_path / "missing")], capsys)
    assert code == 4
    assert "unknown run" in err


def test_console_script_is_wired():
    # the child interpreter imports the package this suite imported
    src = str(Path(hspde.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hspde.cli", "presets"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "laplacian-d1" in proc.stdout
