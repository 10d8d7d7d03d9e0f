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
import json
import math
import mmap
import os

import numpy as np

from .convolve import TrajectoryEnsemble

__all__ = ["save_trajectories", "load_trajectories"]

FORMAT_TAG = "hspde-traj-1"


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
