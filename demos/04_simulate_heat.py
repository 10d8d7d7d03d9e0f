"""Simulating the stochastic heat equation in eigencoordinates.

Each retained mode of the mild solution is an Ornstein-Uhlenbeck process;
the solver advances all of them with the exact one-step law, so the time
step controls only the recording resolution, never the accuracy of the
marginals.  The ensemble's mean of |u(T)|_2^2 must match the scheme's exact
second moment E|u(T)|_2^2, summed over modes, within its standard error.
"""
import numpy as np

from hspde import (
    GProcess,
    RecordSpec,
    SimulationPlan,
    SpectralDomain,
    build_laplacian_system,
    make_cameron_martin,
    predicted_second_moment,
    simulate,
)

dom = SpectralDomain(dimension=1, grid_size=128, mode_cutoff=128)
system = build_laplacian_system(dom)
noise = make_cameron_martin(dom, theta=0.0, truncation=128)  # white in space

plan = SimulationPlan(
    system=system, noise=noise, G=GProcess.identity(),
    seed=7, T=1.0, steps=2048, replicas=16,
    record=RecordSpec(time_stride=8, space_count=64),
)
ens = simulate(plan)
print("ensemble:", ens.values.shape, "(replica, time, space)")
print("scheme:", ens.provenance["scheme"])

# Monte Carlo E|u(T)|_2^2 over the replicas vs the exact mode-sum prediction
sq_norms = ens.space_weight * np.sum(ens.values[:, -1, :] ** 2, axis=1)
mean = sq_norms.mean()
std_error = sq_norms.std(ddof=1) / np.sqrt(ens.replicas)
print(f"\nE|u(T)|_2^2 at T = {ens.time_grid[-1]:g}: {mean:.4f} "
      f"+/- {std_error:.4f} (predicted {predicted_second_moment(plan):.4f})")

# same seed, same numbers: the ensemble is a pure function of the plan
again = simulate(plan)
print("same-seed rerun identical:",
      bool(np.array_equal(again.values, ens.values)))

# doubling the multiplier doubles every path exactly (linearity in g)
def with_gain(gain):
    return simulate(SimulationPlan(
        system=system, noise=noise,
        G=GProcess.multiplication(gain, m=8.0, q=16.0),
        seed=7, T=1.0, steps=2048, replicas=4,
        record=RecordSpec(time_stride=8, space_count=64)))

one, two = with_gain(1.0), with_gain(2.0)
print("doubled multiplier doubles paths exactly:",
      bool(np.array_equal(two.values, 2.0 * one.values)))

# the center point wanders like a rough function of time
mid = ens.values[0, :, ens.values.shape[2] // 2]
print("\none path at the midpoint, every 32nd recorded time:")
print(" ", np.array2string(mid[::32], precision=3))
