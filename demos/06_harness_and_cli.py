"""The experiment harness: configs in, auditable run directories out.

A JSON-able config fully determines a run: the run id is a content hash,
estimates and verdicts are persisted deterministically, and the manifest
records everything needed to reproduce the numbers.  The same pipeline
is the command line's `hspde run`.
"""
import json
import tempfile
from pathlib import Path

from hspde import list_presets, run_experiment

print("built-in presets:")
for name, description in list_presets():
    print(f"  {name}: {description[:60]}...")

out_dir = tempfile.mkdtemp(prefix="hspde-demo-")
config = {
    "name": "demo",
    "domain": {"dimension": 1, "grid_size": 64, "mode_cutoff": 64},
    "operator": {"kind": "laplacian"},
    "noise": {"theta": 0.0, "truncation": 64},
    "g": {"kind": "identity"},
    "plan": {"seed": 2024, "steps": 2048, "replicas": 8, "space_count": 64},
    "query": {"theorem": "prop32", "d": 1, "q": 8, "p": 4},
    "output_dir": out_dir,
}

manifest = run_experiment(config)
print("\nrun id:", manifest.run_id, "(a content hash: same config, same id)")
print("stages:", manifest.stages)
print("derived values:", json.dumps(manifest.derived, indent=1))

run_dir = Path(out_dir) / manifest.run_id
print("\npersisted files:")
for name in manifest.outputs:
    print(f"  {name} ({(run_dir / name).stat().st_size} bytes)")

print("\nestimates.csv:")
print((run_dir / "estimates.csv").read_text())

verdict = manifest.verdict
print(f"verdict: {'PASS' if verdict['passed'] else 'FAIL'} "
      f"(beta_hat {verdict['beta_hat']:.3f}, gamma_hat "
      f"{verdict['gamma_hat']:.3f})")

print("\nthe same run from a shell:")
print(f"  hspde run --preset laplacian-d1 --out-dir {out_dir}")
print(f"  hspde run --preset colored-d1-thm31   # exit 2 on a FAIL")
print(f"  hspde region --theorem prop32 --d 1 --q 8 --p 4")
print(f"  cat {run_dir / 'region.csv'}")
