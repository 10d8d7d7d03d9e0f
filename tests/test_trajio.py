"""Trajectory container round-trips and CSV export."""

import csv
import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hspde.spectral import SpectralDomain, build_laplacian_system
from hspde.noise import GProcess, make_cameron_martin
from hspde.convolve import RecordSpec, SimulationPlan, simulate
from hspde.trajio import (
    _payload,
    save_trajectories,
    load_trajectories,
    export_trajectories_csv,
)


@pytest.fixture(scope="module")
def ensemble():
    dom = SpectralDomain(1, 16, 6)
    plan = SimulationPlan(
        system=build_laplacian_system(dom),
        noise=make_cameron_martin(dom, 0.5, 6),
        G=GProcess.identity(),
        seed=14,
        T=0.5,
        steps=16,
        replicas=3,
        record=RecordSpec(time_stride=2, space_count=8),
    )
    return simulate(plan)


def test_roundtrip_is_bitwise(tmp_path, ensemble):
    stem = save_trajectories(ensemble, str(tmp_path / "run"))
    back = load_trajectories(stem)
    assert np.array_equal(back.values, ensemble.values)
    assert back.values.dtype == np.float64
    assert np.array_equal(back.time_grid, ensemble.time_grid)
    assert np.array_equal(back.space_indices, ensemble.space_indices)
    assert back.space_shape == ensemble.space_shape
    assert back.space_weight == ensemble.space_weight
    assert back.provenance == ensemble.provenance


# NaNs (quiet, signalling, with payload, negative), infinities, signed zeros,
# subnormals and the extremes of the normal range, as float64 bit patterns
SPECIAL_BITS = [0x7FF8000000000000, 0x7FF0000000000001, 0x7FF8DEADBEEF0001,
                0xFFF8000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                0x0000000000000000, 0x8000000000000000, 0x0000000000000001,
                0x800FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF]


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 5))
       .flatmap(lambda shape: arrays(
           np.uint64, shape,
           elements=st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1))))
def test_roundtrip_is_bitwise_for_any_shape_and_bit_pattern(ensemble, bits):
    ens = dataclasses.replace(ensemble, values=bits.view(np.float64))
    with tempfile.TemporaryDirectory() as tmp:
        back = load_trajectories(save_trajectories(ens, os.path.join(tmp, "r")))
    assert back.values.shape == bits.shape
    assert np.array_equal(back.values.view(np.uint64), bits)


def test_manifest_carries_format_tag(tmp_path, ensemble):
    stem = save_trajectories(ensemble, str(tmp_path / "run.bin"))
    with open(stem + ".json") as fh:
        manifest = json.load(fh)
    assert manifest["format"] == "hspde-traj-1"
    assert manifest["dtype"] == "<f8"
    assert manifest["shape"] == list(ensemble.values.shape)
    assert manifest["provenance"]["seed"] == 14


def test_unknown_format_rejected(tmp_path, ensemble):
    stem = save_trajectories(ensemble, str(tmp_path / "run"))
    with open(stem + ".json") as fh:
        manifest = json.load(fh)
    manifest["format"] = "hspde-traj-999"
    with open(stem + ".json", "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match="format"):
        load_trajectories(stem)


def test_truncated_payload_rejected(tmp_path, ensemble):
    stem = save_trajectories(ensemble, str(tmp_path / "run"))
    with open(stem + ".bin", "rb") as fh:
        payload = fh.read()
    with open(stem + ".bin", "wb") as fh:
        fh.write(payload[: len(payload) // 2])
    with pytest.raises(ValueError, match="manifest promises"):
        load_trajectories(stem)


def test_resave_over_a_loaded_payload_keeps_both(tmp_path, ensemble):
    # the loaded values map the payload; saving them back to the same stem
    # must not truncate the file under the mapping
    stem = save_trajectories(ensemble, str(tmp_path / "run"))
    before = (tmp_path / "run.bin").read_bytes()
    back = load_trajectories(stem)
    save_trajectories(back, stem)
    assert np.array_equal(back.values, ensemble.values)
    assert (tmp_path / "run.bin").read_bytes() == before
    # writes to the loaded values stay private to them
    back.values[0, 0, 0] = 7.0
    assert (tmp_path / "run.bin").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["run.bin", "run.json"]


def test_simulated_payload_is_written_in_place(tmp_path, ensemble):
    stem = str(tmp_path / "run")
    old = load_trajectories(save_trajectories(ensemble, stem))
    payload = _payload(stem, ensemble.values.shape)
    payload[...] = 2 * ensemble.values
    on_disk = dataclasses.replace(ensemble, values=payload)
    written = os.stat(stem + ".bin")
    save_trajectories(on_disk, stem)  # the sidecar only
    assert os.stat(stem + ".bin").st_ino == written.st_ino
    # the earlier load still reads the bytes it was loaded from
    assert np.array_equal(old.values, ensemble.values)
    assert np.array_equal(load_trajectories(stem).values, 2 * ensemble.values)
    # a slice of the mapping is not the whole payload: it is written out
    save_trajectories(dataclasses.replace(ensemble, values=payload[:1]), stem)
    assert np.array_equal(load_trajectories(stem).values,
                          2 * ensemble.values[:1])


def test_csv_export(tmp_path, ensemble):
    path = str(tmp_path / "run.csv")
    export_trajectories_csv(ensemble, path, max_replicas=2)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replica", "t", "x1", "value"]
    n_t, n_s = ensemble.values.shape[1], ensemble.values.shape[2]
    assert len(rows) == 1 + 2 * n_t * n_s
    r, it, js = 1, 2, 3
    row = rows[1 + r * n_t * n_s + it * n_s + js]
    assert float(row[1]) == ensemble.time_grid[it]
    assert float(row[2]) == ensemble.space_points[js, 0]
    assert float(row[3]) == ensemble.values[r, it, js]


def test_csv_export_refuses_huge_payloads(tmp_path, ensemble):
    big = replace_values(ensemble, np.zeros((300, 300, 300)))
    with pytest.raises(ValueError, match="CSV limit"):
        export_trajectories_csv(big, str(tmp_path / "big.csv"))


def replace_values(ens, values):
    import dataclasses

    return dataclasses.replace(ens, values=values)
