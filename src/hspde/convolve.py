"""Simulation of stochastic convolutions in eigencoordinates.

The mild solution of du + A^(alpha/2) u dt = G dW with u(0) = 0 is built
mode by mode.  Writing mu_k = lambda_k^(alpha/2), each resolved mode obeys
an Ornstein-Uhlenbeck recursion over one time step:

    c_{k,n+1} = e^(-mu_k dt) c_{k,n} + s_k xi_{k,n},

where xi_n is the step's increment vector dW_n mapped through G frozen at
the step's left endpoint and projected onto the drift modes, and
s_k = sqrt((1 - e^(-2 Re mu_k dt)) / (2 Re mu_k dt)) gives it the exact
integrated variance gain_k^2 (1 - e^(-2 mu_k dt)) / (2 mu_k).

Two scheme labels say what the recorded law means:

* exact-diagonal: the noise is uncorrelated across drift modes, so the
  paths are exact in law at the grid times for any step count.  The core
  decides this once per plan from its route (below): weights always,
  dense when the system is self-adjoint and Phi^T Phi is diagonal,
  per-step never.
* frozen-exponential: general G, frozen at each step's left endpoint.

Both run one core, so for diagonal G they produce bit-identical paths.
The core picks the noise-to-mode route once per plan, the first that
applies:

* weights: identity G over the shared sine basis.  xi_k = w_k dW_k with
  the noise-space weights w, and only the N noise modes are propagated
  (the others never receive noise).
* dense: static G.  One (N, K) matrix
  Phi = weight * ((synthesis * g) @ conj(dual_modes)^T) maps increments
  to modes, xi_n = Phi^T dW_n.
* per-step: time-dependent G, a table of several rows included.  Each
  step's increments are synthesised, multiplied by g(t_n, .) and projected.

The scale s is folded into the route's operator.  Replicas run in
batches on a thread pool.  A batch's increments are drawn straight into
one (R, N, steps) buffer and streamed through blocks of 256 steps:
project the block, run the recursion in place, and synthesise the
recorded rows with one matmul per replica, written into the output.  A
batch holds at most ceil(replicas / workers) replicas, and as many as
keep its increments, block states and per-step field within 256 MiB.
Every matmul acts on one replica with shapes fixed by the plan, and the
rest is elementwise, so a replica's values do not depend on batching or
worker count, bit for bit; ``simulate_from_increments`` fed the same
draws reproduces ``simulate``.

Increments come from the per-(seed, replica, mode) streams of
``hspde.noise``, and gains enter linearly after the draws, so trajectories
are exactly linear in G under a shared seed.  Synthesised trajectories of
non-self-adjoint systems must be real up to 1e-10; larger imaginary
residue is an error.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .spectral import EigenSystem, _principal_power, _realify
from .noise import CameronMartinSpec, GProcess, sample_wiener_increments

__all__ = [
    "RecordSpec",
    "SimulationPlan",
    "TrajectoryEnsemble",
    "MqNormEstimate",
    "simulate",
    "simulate_exact_diagonal",
    "simulate_frozen_exponential",
    "simulate_from_increments",
    "mean_mq_norm",
    "predicted_second_moment",
]

#: steps per block of the projection / recursion / synthesis stream
BLOCK_STEPS = 256
#: buffer budget of one replica batch
BATCH_BYTES = 256 << 20


@dataclass(frozen=True)
class RecordSpec:
    """Subsampling of the simulated trajectory for recording.

    ``time_stride`` keeps every stride-th step (1 = every step, the
    default).  ``space_count`` is the target number of equispaced recorded
    points per axis (default 64); the realised stride is rounded from the
    grid size.
    """

    time_stride: int = 1
    space_count: int = 64

    def __post_init__(self):
        if self.time_stride < 1 or self.space_count < 1:
            raise ValueError("record strides must be positive")

    def axis_indices(self, grid_size: int) -> np.ndarray:
        stride = max(1, int(round(grid_size / self.space_count)))
        return np.arange(stride - 1, grid_size, stride)


@dataclass(frozen=True)
class SimulationPlan:
    """Everything a simulation needs; replicas depend only on (seed, index).

    ``alpha`` is the fractional drift exponent (drift operator A^(alpha/2),
    alpha = 2 the plain generator).  ``scheme`` is "auto",
    "exact-diagonal" or "frozen-exponential".
    """

    system: EigenSystem
    noise: CameronMartinSpec
    G: GProcess
    seed: int
    alpha: float = 2.0
    T: float = 1.0
    steps: int = 1 << 13
    replicas: int = 64
    record: RecordSpec = field(default_factory=RecordSpec)
    scheme: str = "auto"

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")
        if self.T <= 0 or self.steps < 1 or self.replicas < 1:
            raise ValueError("T, steps and replicas must be positive")
        if self.steps % self.record.time_stride:
            raise ValueError("time_stride must divide steps")
        if self.scheme not in ("auto", "exact-diagonal", "frozen-exponential"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.noise.domain.n_points != self.system.domain.n_points:
            raise ValueError("noise and system live on different grids")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    @property
    def drift_exponents(self) -> np.ndarray:
        """mu_k = lambda_k^(alpha/2); real for real positive spectra, so the
        recursion runs in real arithmetic."""
        return _principal_power(self.system.eigenvalues, self.alpha / 2.0)


@dataclass
class TrajectoryEnsemble:
    """Recorded trajectories: values[replica, time index, space index]."""

    values: np.ndarray
    time_grid: np.ndarray
    space_points: np.ndarray  # (n_space, d)
    space_indices: np.ndarray  # flat indices into the domain raster
    space_shape: tuple  # recorded raster shape, per axis
    space_weight: float  # quadrature weight per recorded point
    provenance: dict

    @property
    def replicas(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MqNormEstimate:
    """Estimate of (E int_0^T |u(t)|_p^q dt)^(1/q) over the ensemble."""

    value: float
    std_error: float  # standard error of the mean of the time integrals
    per_replica: np.ndarray = field(repr=False, default=None)


def _record_layout(plan: SimulationPlan):
    dom = plan.system.domain
    ax_idx = plan.record.axis_indices(dom.grid_size)
    d = dom.dimension
    if d == 1:
        flat = ax_idx
        shape = (len(ax_idx),)
    else:
        grids = np.meshgrid(*([ax_idx] * d), indexing="ij")
        flat = np.ravel_multi_index(
            [g.ravel() for g in grids], (dom.grid_size,) * d
        )
        shape = (len(ax_idx),) * d
    stride = max(1, int(round(dom.grid_size / plan.record.space_count)))
    weight = (stride / (dom.grid_size + 1)) ** d
    rec_times = plan.time_grid[:: plan.record.time_stride]
    return flat, shape, weight, rec_times


def _provenance(plan: SimulationPlan, scheme: str, route: str) -> dict:
    dom = plan.system.domain
    return {
        "scheme": scheme,
        "route": route,
        "seed": int(plan.seed),
        "alpha": float(plan.alpha),
        "T": float(plan.T),
        "steps": int(plan.steps),
        "replicas": int(plan.replicas),
        "time_stride": int(plan.record.time_stride),
        "space_count": int(plan.record.space_count),
        "dimension": dom.dimension,
        "grid_size": dom.grid_size,
        "mode_cutoff": dom.mode_cutoff,
        "system_family": plan.system.family,
        "effective_shift": plan.system.effective_shift,
        "theta": plan.noise.theta,
        "truncation": plan.noise.truncation,
        "g_kind": plan.G.kind,
        "g_label": plan.G.label,
        "g_time_dependent": bool(plan.G.time_dependent),
        "m": None if not np.isfinite(plan.G.m) else float(plan.G.m),
        "q": None if not np.isfinite(plan.G.q) else float(plan.G.q),
    }


def _ou_factors(plan: SimulationPlan):
    """Per-mode decay e^(-mu dt) and exact-variance scale s(dt)."""
    mu = plan.drift_exponents
    dt = plan.dt
    decay = np.exp(-mu * dt)
    re = np.real(mu)
    scale = np.sqrt(-np.expm1(-2.0 * re * dt) / (2.0 * re * dt))
    return decay, scale


def _basis_gap(plan: SimulationPlan) -> float:
    """Largest gap between the leading noise basis vectors and drift modes.

    Only Laplacian systems can share the sine basis of the noise; for any
    other family the gap is infinite.  This is the one K x n_points
    comparison a plan makes.
    """
    system, noise = plan.system, plan.noise
    if system.family != "laplacian":
        return np.inf
    n = min(noise.truncation, system.mode_count)
    return float(np.abs(noise.basis_functions[:n] - system.modes[:n]).max())


def _diagonal_obstacle(system: EigenSystem, route: str,
                       operator: np.ndarray) -> Optional[str]:
    """Why the noise of a plan is not diagonal over the drift eigenbasis;
    None if it is, which makes the per-mode recursion exact in law.

    The weights route is diagonal by construction and the per-step route
    never counts as diagonal.  On the dense route the per-step noise
    covariance in drift coordinates is operator^H operator (up to dt and
    the per-mode scale); it must be diagonal, to 1e-12 of its largest
    entry, over an orthonormal (self-adjoint) eigenbasis.
    """
    if route == "weights":
        return None
    if route == "per-step":
        return ("G varies in time, so it does not diagonalise over the "
                "drift eigenbasis; use simulate_frozen_exponential")
    if not system.is_selfadjoint:
        return ("exact-diagonal scheme needs a self-adjoint system; "
                "use simulate_frozen_exponential")
    gram = operator.conj().T @ operator
    diag = np.abs(np.diagonal(gram))
    np.fill_diagonal(gram, 0.0)
    if np.abs(gram).max() > 1e-12 * diag.max():
        return ("G does not diagonalise over the drift eigenbasis; "
                "use simulate_frozen_exponential")
    return None


def _choose_scheme(core: "_Core", requested: str) -> str:
    """Resolve "auto"; refuse "exact-diagonal" where it does not apply."""
    if requested == "frozen-exponential":
        return requested
    if core.obstacle is None:
        return "exact-diagonal"
    if requested == "exact-diagonal":
        raise ValueError(core.obstacle)
    return "frozen-exponential"


def _route(plan: SimulationPlan, gap: float) -> str:
    """The noise-to-mode route of a plan, the first of three that applies."""
    if (plan.G.kind == "identity" and gap <= 1e-12
            and plan.noise.truncation <= plan.system.mode_count):
        return "weights"
    return "per-step" if plan.G.time_dependent else "dense"


def _noise_to_modes(plan: SimulationPlan, g: Optional[np.ndarray]) -> np.ndarray:
    """(N, K) map from H-coefficients to drift-mode coefficients, G frozen
    at grid values ``g`` (None: the identity kind)."""
    system, noise = plan.system, plan.noise
    lifted = noise.synthesis if g is None else noise.synthesis * g[None, :]
    return system.weight * (lifted @ np.conj(system.dual_modes).T)


@dataclass(frozen=True)
class _Core:
    """What every replica batch of a plan shares, built once per plan.

    ``operator`` maps one step's increments to the step's noise in drift
    coordinates, with the exact-variance scale folded in: per-mode weights
    (N,) on the "weights" route, the dense (N, K) matrix on "dense", and the
    (n_points, K) projection that follows ``lift`` (the noise synthesis)
    and the multiplier on "per-step".  The "weights" route propagates only
    the N noise modes; the others never receive noise and stay at zero.
    ``obstacle`` is None when the plan is exact-diagonal, else the reason
    it is not (see ``_diagonal_obstacle``).
    """

    plan: SimulationPlan
    route: str
    operator: np.ndarray
    lift: Optional[np.ndarray]
    decay: np.ndarray  # e^(-mu dt) over the propagated modes
    modes_rec: np.ndarray  # propagated modes at the recorded points
    layout: tuple  # _record_layout(plan)
    obstacle: Optional[str]

    @classmethod
    def build(cls, plan: SimulationPlan) -> "_Core":
        system, noise = plan.system, plan.noise
        route = _route(plan, _basis_gap(plan))
        layout = _record_layout(plan)
        decay, scale = _ou_factors(plan)
        modes_rec = system.modes[:, layout[0]]
        lift = None
        if route == "weights":
            n = noise.truncation
            operator = noise.weights * scale[:n]
            decay, modes_rec = decay[:n], modes_rec[:n]
        elif route == "dense":
            operator = _noise_to_modes(plan, plan.G.values_at(system.domain, 0, 0.0))
            operator *= scale
        else:
            lift = noise.synthesis
            operator = (system.weight * np.conj(system.dual_modes).T) * scale
        return cls(plan, route, operator, lift, decay,
                   np.ascontiguousarray(modes_rec), layout,
                   _diagonal_obstacle(system, route, operator))

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self.operator, self.decay, self.modes_rec)

    def batch_size(self, workers: int) -> int:
        """Replicas per batch: their buffers fit BATCH_BYTES, and no worker
        is left without a batch (at most ceil(replicas / workers))."""
        plan = self.plan
        blk = min(BLOCK_STEPS, plan.steps)
        # increments, one block of mode states, carry and scratch rows
        per_replica = (8 * plan.noise.truncation * plan.steps
                       + self.dtype.itemsize * (blk + 2) * self.decay.size)
        shared = 0 if self.lift is None else 8 * blk * self.lift.shape[1]
        fit = (BATCH_BYTES - shared) // per_replica
        return int(max(1, min(fit, -(-plan.replicas // max(workers, 1)))))

    def new_output(self) -> np.ndarray:
        flat_idx, _, _, rec_times = self.layout
        return np.empty((self.plan.replicas, len(rec_times), len(flat_idx)))

    def integrate(self, incs: np.ndarray, out: np.ndarray) -> None:
        """Propagate increment tables (R, N, steps) into recorded values
        ``out`` (R, recorded times, recorded points), 256 steps at a time."""
        plan = self.plan
        r_b, _, steps = incs.shape
        stride = plan.record.time_stride
        xi = np.empty((r_b, min(BLOCK_STEPS, steps), self.decay.size),
                      dtype=self.dtype)
        carry, tmp = np.empty_like(xi[:, 0]), np.empty_like(xi[:, 0])
        complex_path = np.iscomplexobj(xi)
        out[:, 0] = 0.0
        row = 1
        for b0 in range(0, steps, BLOCK_STEPS):
            blk = xi[:, : min(BLOCK_STEPS, steps - b0)]
            self._project(incs[:, :, b0:b0 + blk.shape[1]], blk, b0)
            # OU recursion in place: row n becomes the state after step b0 + n
            if b0:
                np.multiply(carry, self.decay, out=tmp)
                blk[:, 0] += tmp
            for n in range(1, blk.shape[1]):
                np.multiply(blk[:, n - 1], self.decay, out=tmp)
                np.add(blk[:, n], tmp, out=blk[:, n])
            carry[...] = blk[:, -1]
            rows = blk[:, (-b0 - 1) % stride:: stride]
            stop = row + rows.shape[1]
            for r in range(r_b):
                if complex_path:
                    out[r, row:stop] = _realify(rows[r] @ self.modes_rec)
                else:
                    np.matmul(rows[r], self.modes_rec, out=out[r, row:stop])
            row = stop

    def _project(self, block: np.ndarray, blk: np.ndarray, b0: int) -> None:
        """Noise of the steps of ``block`` (R, N, B) in drift coordinates,
        written to ``blk`` (R, B, K), one matmul per replica."""
        if self.route == "weights":
            # transpose in slabs of 32 modes, so the strided reads stay in cache
            for r in range(len(block)):
                for j in range(0, blk.shape[2], 32):
                    np.multiply(block[r, j:j + 32].T, self.operator[j:j + 32],
                                out=blk[r, :, j:j + 32])
            return
        if self.route == "dense":
            for r in range(len(block)):
                np.matmul(block[r].T, self.operator, out=blk[r])
            return
        G, domain, tg = self.plan.G, self.plan.system.domain, self.plan.time_grid
        g_rows = np.stack([G.values_at(domain, n, tg[n])
                           for n in range(b0, b0 + blk.shape[1])])
        for r in range(len(block)):
            field = block[r].T @ self.lift
            field *= g_rows
            np.matmul(field, self.operator, out=blk[r])

    def ensemble(self, values: np.ndarray, scheme: str) -> TrajectoryEnsemble:
        flat_idx, shape, weight, rec_times = self.layout
        return TrajectoryEnsemble(
            values=values,
            time_grid=rec_times,
            space_points=self.plan.system.domain.points[flat_idx],
            space_indices=flat_idx,
            space_shape=shape,
            space_weight=weight,
            provenance=_provenance(self.plan, scheme, self.route),
        )


def simulate_from_increments(plan: SimulationPlan, increments: np.ndarray,
                             scheme_label: str = "from-increments") -> TrajectoryEnsemble:
    """Run the recursion on caller-supplied increment tables.

    ``increments`` has shape (replicas, truncation, steps).  The value at
    time index n depends only on increments with step index < n, which is
    what makes spliced-future determinism checks meaningful.  Fed the
    draws ``simulate`` makes, it reproduces ``simulate`` bit for bit.
    """
    increments = np.asarray(increments, dtype=float)
    want = (plan.replicas, plan.noise.truncation, plan.steps)
    if increments.shape != want:
        raise ValueError(f"increments shape {increments.shape}, want {want}")
    core = _Core.build(plan)
    out = core.new_output()
    batch = core.batch_size(1)
    for start in range(0, plan.replicas, batch):
        core.integrate(increments[start:start + batch], out[start:start + batch])
    return core.ensemble(out, scheme_label)


def _simulate(plan: SimulationPlan, scheme: str,
              workers: Optional[int] = None) -> TrajectoryEnsemble:
    core = _Core.build(plan)
    scheme = _choose_scheme(core, scheme)
    out = core.new_output()
    n_workers = workers if workers else (os.cpu_count() or 1)
    batch = core.batch_size(n_workers)
    tg = plan.time_grid

    def run_batch(start: int) -> None:
        stop = min(start + batch, plan.replicas)
        incs = np.empty((stop - start, plan.noise.truncation, plan.steps))
        for i in range(stop - start):
            sample_wiener_increments(plan.noise, tg, plan.seed, start + i,
                                     out=incs[i])
        core.integrate(incs, out[start:stop])

    starts = range(0, plan.replicas, batch)
    if n_workers > 1 and len(starts) > 1:
        # batches write disjoint replica slices of `out`
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run_batch, starts))
    else:
        for start in starts:
            run_batch(start)
    return core.ensemble(out, scheme)


def simulate_exact_diagonal(plan: SimulationPlan,
                            workers: Optional[int] = None) -> TrajectoryEnsemble:
    """Exact per-mode OU sampling; needs G diagonal over the eigenbasis.

    The per-step noise has the exact integrated variance
    gain^2 (1 - e^(-2 mu dt)) / (2 mu), so the scheme is exact in law at
    the grid times for any step count.  Raises ValueError when G does not
    diagonalise.
    """
    return _simulate(plan, "exact-diagonal", workers)


def simulate_frozen_exponential(plan: SimulationPlan,
                                workers: Optional[int] = None) -> TrajectoryEnsemble:
    """Exponential scheme with G frozen at each step's left endpoint.

    Runs the same core as the diagonal scheme, so for diagonal G the two
    coincide bitwise.
    """
    return _simulate(plan, "frozen-exponential", workers)


def simulate(plan: SimulationPlan, workers: Optional[int] = None) -> TrajectoryEnsemble:
    """Run plan.scheme; "auto" takes the exact diagonal scheme where G
    diagonalises and the frozen-exponential one otherwise."""
    return _simulate(plan, plan.scheme, workers)


def mean_mq_norm(ens: TrajectoryEnsemble, p: float, q: float) -> MqNormEstimate:
    """(E int_0^T |u(t)|_p^q dt)^(1/q) by trapezoid over recorded times."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be at least 1")
    lp = (ens.space_weight * np.sum(np.abs(ens.values) ** p, axis=2)) ** (1.0 / p)
    integrals = np.trapezoid(lp**q, ens.time_grid, axis=1)
    mean = float(integrals.mean())
    se = float(integrals.std(ddof=1) / math.sqrt(len(integrals))) if len(integrals) > 1 else 0.0
    return MqNormEstimate(value=mean ** (1.0 / q), std_error=se, per_replica=integrals)


def predicted_second_moment(plan: SimulationPlan, at_time: Optional[float] = None) -> float:
    """Deterministic E|u(t)|_{L^2}^2 of the scheme's law (self-adjoint case).

    Runs the per-mode variance recursion implied by the exact-variance
    update, so it is the scheme's exact second moment with no sampling.
    Time defaults to T; for time-constant G the result is independent of
    the step count, and refining steps probes only the freezing bias of a
    time-varying G.
    """
    if not plan.system.is_selfadjoint:
        raise ValueError("second-moment recursion assumes an orthonormal eigenbasis")
    t_end = plan.T if at_time is None else float(at_time)
    if not (0.0 <= t_end <= plan.T):
        raise ValueError("time must lie in [0, T]")
    decay, scale = _ou_factors(plan)
    steps = int(round(t_end / plan.dt))
    system, noise, G = plan.system, plan.noise, plan.G
    tg = plan.time_grid
    dt = plan.dt

    route = _route(plan, _basis_gap(plan))

    def gain_sq(n):
        if route == "weights":
            gs = np.zeros(system.mode_count)
            gs[: noise.truncation] = noise.weights**2
            return gs
        phi = _noise_to_modes(plan, G.values_at(system.domain, n, tg[n]))
        return np.sum(np.abs(phi) ** 2, axis=0)

    dsq = np.abs(decay) ** 2
    static_gain = None if G.time_dependent else gain_sq(0)
    var = np.zeros(system.mode_count)
    for n in range(steps):
        g2 = static_gain if static_gain is not None else gain_sq(n)
        var = dsq * var + scale**2 * g2 * dt
    return float(var.sum())
