"""Workload definitions and output checks shared by the benchmark processes.

Stdlib only: the orchestrating process (``run.py``) imports this module
without importing numpy or hspde, so that every hspde import it measures
happens in a fresh child interpreter.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SCRATCH = ROOT / ".perfbench"

# Reference tables (estimates, and the increments export of read-back
# workloads) may legitimately move by ~1e-15 relative when the simulation
# core is restructured (reordered sums, block synthesis); the exponent fits
# amplify that by at most a few orders, so 1e-9 separates rounding from a
# real change in the numbers.
ESTIMATE_RTOL = 1e-9
ESTIMATE_ATOL = 1e-12
# Traced ensembles come from ``simulate_from_increments`` on replica chunks
# rather than from the worker batches of ``simulate``.  While chunks and
# batches coincide the two agree bitwise; regrouping replicas alone moves
# values by ~6e-15 relative to the largest value.
ENSEMBLE_RTOL = 1e-10


@dataclass(frozen=True)
class Workload:
    preset: str
    # verdict required at the preset's frozen seed: "passed" (region PASS),
    # "steps_ok" (every sweep step holds) or "vacuous" (empty region)
    verdict: str
    overrides: dict = field(default_factory=dict)
    readback: bool = False  # also time estimates_from_run + increments export

    def overrides_for(self, seed: int, output_dir) -> list:
        """``key.path=value`` overrides for ``hspde.resolve_config``."""
        items = dict(self.overrides)
        items["plan.seed"] = seed
        items["output_dir"] = str(output_dir)
        return [f"{key}={json.dumps(val)}" for key, val in items.items()]


# Why each workload exists: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "sweep-identity-d1": Workload(
        preset="fractional-alpha-sweep",
        verdict="steps_ok",
        overrides={"plan.replicas": 2},
    ),
    "colored-bump-d1": Workload(
        preset="colored-d1-thm31",
        verdict="passed",
    ),
    "persist-d2": Workload(
        preset="laplacian-d2",
        verdict="vacuous",
        overrides={"plan.replicas": 8, "persist_trajectories": True},
        readback=True,
    ),
}


def plan_seed(preset_seed: int, seed_offset: int) -> int:
    """``--seed n`` shifts the preset's frozen seed; n = 0 is the default."""
    seed = preset_seed + seed_offset
    if seed < 0:
        raise ValueError(f"seed offset {seed_offset} gives a negative seed")
    return seed


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(text: str) -> list:
    """CSV text -> list of dict rows, with floats where a cell is numeric."""
    return [{key: _cell(val) for key, val in raw.items()}
            for raw in csv.DictReader(io.StringIO(text))]


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=ESTIMATE_RTOL, abs_tol=ESTIMATE_ATOL)


def compare_tables(got: list, want: list, what: str) -> list:
    """Differences between two parsed tables, as failure messages."""
    if len(got) != len(want):
        return [f"{what}: {len(got)} rows, expected {len(want)}"]
    failures = []
    for i, (g, w) in enumerate(zip(got, want)):
        if set(g) != set(w):
            failures.append(f"{what}: row {i} columns differ")
            continue
        for key in w:
            same = g[key] == w[key] if isinstance(w[key], str) \
                else _close(g[key], w[key])
            if not same:
                failures.append(
                    f"{what}: row {i} {key} = {g[key]!r}, expected {w[key]!r} "
                    f"(rtol {ESTIMATE_RTOL:g})")
    return failures


def reference_table(stem: str) -> list:
    return parse_table((REFERENCE_DIR / f"{stem}.csv").read_text())
