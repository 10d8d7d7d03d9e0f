"""Trajectory container I/O.

An ensemble is stored as two files sharing a path stem: ``<stem>.bin``
holds the raw values (little-endian float64, C order, laid out as
replica x time x space) and ``<stem>.json`` is the sidecar manifest with
format tag "hspde-traj-1", array geometry, grids and run provenance.
The binary payload round-trips bit for bit.

A payload is written once, never truncated in place.  A persisted run
simulates straight into the shared mapping of a fresh ``<stem>.bin``
(``_payload``); saving that ensemble then writes only the sidecar.  Every
other save writes ``<stem>.bin.tmp`` and renames it over ``<stem>.bin``.
A load maps the payload copy-on-write instead of copying it: writes to
the loaded values stay private, and a later save to the same stem, or a
new payload there, gets a new file, so the mapping keeps reading the
bytes it was loaded from.  This relies on POSIX semantics, where renaming
over or unlinking a mapped file leaves the mapping intact.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import mmap
import os
from typing import Optional

import numpy as np

from .convolve import TrajectoryEnsemble

__all__ = ["save_trajectories", "load_trajectories", "export_trajectories_csv"]

FORMAT_TAG = "hspde-traj-1"
CSV_CELL_LIMIT = 2_000_000


def _fmt(value) -> str:
    """17 significant digits, enough to round-trip a float64: the format of
    every number the package writes to CSV."""
    return format(float(value), ".17g")


def _json(obj) -> str:
    """``obj`` as the package's JSON text: indent 1, sorted keys, newline."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _stem(path: str) -> str:
    root, ext = os.path.splitext(path)
    return root if ext in (".bin", ".json") else path


def _payload(stem: str, shape: tuple) -> np.memmap:
    """A fresh ``<stem>.bin`` of ``shape`` float64 values, mapped writable
    and shared, for ``simulate`` to write the ensemble into.  Any old
    payload is unlinked first, so its live mappings keep their bytes."""
    path = stem + ".bin"
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    nbytes = 8 * math.prod(shape)
    with open(path, "xb") as fh:
        fh.truncate(nbytes)
        if hasattr(os, "posix_fallocate"):
            # a full disk fails here, not as SIGBUS on a write to the mapping
            os.posix_fallocate(fh.fileno(), 0, nbytes)
    return np.memmap(path, dtype="<f8", mode="r+", shape=shape)


def _is_payload(values, path: str) -> bool:
    """Whether ``values`` is a shared mapping of the whole file ``path``,
    as ``_payload`` makes (not a view of one): its values already are the
    file's bytes."""
    return (isinstance(values, np.memmap) and values.mode != "c"
            and isinstance(values.base, mmap.mmap) and values.offset == 0
            and values.filename == os.path.abspath(path)
            and os.path.isfile(path)
            and values.nbytes == os.path.getsize(path))


def save_trajectories(ens: TrajectoryEnsemble, path: str) -> str:
    """Write <stem>.bin plus <stem>.json; returns the stem.

    The payload is written only if ``ens.values`` is not already the
    shared mapping of <stem>.bin, to a new file renamed over the old one.
    """
    stem = _stem(path)
    if not _is_payload(ens.values, stem + ".bin"):
        values = np.ascontiguousarray(ens.values, dtype="<f8")
        with open(stem + ".bin.tmp", "wb") as fh:
            fh.write(values.data)  # the array's own buffer: no payload-sized copy
        os.replace(stem + ".bin.tmp", stem + ".bin")
    manifest = {
        "format": FORMAT_TAG,
        "dtype": "<f8",
        "order": "C",
        "shape": list(np.shape(ens.values)),
        "time_grid": np.asarray(ens.time_grid, dtype=float).tolist(),
        "space_points": np.asarray(ens.space_points, dtype=float).tolist(),
        "space_indices": np.asarray(ens.space_indices).astype(int).tolist(),
        "space_shape": list(ens.space_shape),
        "space_weight": float(ens.space_weight),
        "provenance": ens.provenance,
    }
    with open(stem + ".json", "w") as fh:
        fh.write(_json(manifest))
    return stem


def load_trajectories(path: str) -> TrajectoryEnsemble:
    stem = _stem(path)
    with open(stem + ".json") as fh:
        manifest = json.load(fh)
    tag = manifest.get("format")
    if tag != FORMAT_TAG:
        raise ValueError(f"unsupported trajectory format {tag!r}")
    shape = tuple(manifest["shape"])
    held = os.path.getsize(stem + ".bin")
    expect = math.prod(shape)
    if held != 8 * expect:
        raise ValueError(f"payload holds {held} bytes, manifest promises "
                         f"{expect} values of 8 bytes")
    return TrajectoryEnsemble(
        # copy-on-write: no save truncates the file under the mapping
        values=np.memmap(stem + ".bin", dtype="<f8", mode="c", shape=shape),
        time_grid=np.asarray(manifest["time_grid"], dtype=float),
        space_points=np.asarray(manifest["space_points"], dtype=float),
        space_indices=np.asarray(manifest["space_indices"], dtype=int),
        space_shape=tuple(manifest["space_shape"]),
        space_weight=float(manifest["space_weight"]),
        provenance=manifest["provenance"],
    )


def export_trajectories_csv(ens: TrajectoryEnsemble, path: str,
                            max_replicas: Optional[int] = None) -> str:
    """Long-format CSV: replica, t, one coordinate column per axis, value.

    Meant for plotting small ensembles; refuses payloads beyond
    2e6 cells (use the binary container for those).
    """
    if max_replicas is not None and max_replicas < 1:
        raise ValueError(f"max_replicas must be at least 1, got {max_replicas}")
    n_rep = ens.replicas if max_replicas is None else min(max_replicas, ens.replicas)
    n_cells = n_rep * ens.values.shape[1] * ens.values.shape[2]
    if n_cells > CSV_CELL_LIMIT:
        raise ValueError(
            f"{n_cells} cells exceeds the CSV limit {CSV_CELL_LIMIT}; "
            "save the binary container instead"
        )
    d = ens.space_points.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replica", "t"] + [f"x{i + 1}" for i in range(d)] + ["value"])
        for r in range(n_rep):
            for it, t in enumerate(ens.time_grid):
                for js in range(ens.values.shape[2]):
                    coords = [_fmt(c) for c in ens.space_points[js]]
                    writer.writerow(
                        [r, _fmt(t)] + coords + [_fmt(ens.values[r, it, js])]
                    )
    return path
