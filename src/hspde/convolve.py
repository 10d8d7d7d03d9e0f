"""Simulation of stochastic convolutions in eigencoordinates.

The mild solution of du + A^(alpha/2) u dt = G dW with u(0) = 0 is built
mode by mode.  Writing mu_k = lambda_k^(alpha/2), each resolved mode obeys
an Ornstein-Uhlenbeck recursion over one time step:

    c_{k,n+1} = e^(-mu_k dt) c_{k,n} + s_k xi_{k,n},

where xi_n is the step's increment vector dW_n mapped through G frozen at
the step's left endpoint and projected onto the drift modes, and
s_k = sqrt((1 - e^(-2 Re mu_k dt)) / (2 Re mu_k dt)) gives it the exact
integrated variance gain_k^2 (1 - e^(-2 mu_k dt)) / (2 mu_k).

One core runs every plan.  What its recorded law means is a property
of the plan, decided once per plan from the route (below) and written to
the ensemble's provenance as the scheme label:

* exact-diagonal: the noise is uncorrelated across drift modes, so the
  paths are exact in law at the grid times for any step count: on the
  weights route always, on the dense route when the system is
  self-adjoint and Phi^T Phi is diagonal, on the per-step route never.
* frozen-exponential: general G, frozen at each step's left endpoint.
  The provenance's ``scheme_reason`` says why the plan is not
  exact-diagonal (null when it is).

The core picks the noise-to-mode route once per plan, the first that
applies:

* weights: identity G, and the noise modes are the Laplacian drift's
  leading modes (the same multi-indices on the same grid).
  xi_k = w_k dW_k with the noise-space weights w, and only the N noise
  modes are propagated (the others never receive noise).
* dense: static G.  One (N, K) matrix
  Phi = weight * ((synthesis * g) @ conj(dual_modes)^T) maps increments
  to modes, xi_n = Phi^T dW_n.
* per-step: time-dependent G, a table of several rows included.  Each
  step's increments are synthesised, multiplied by g(t_n, .) and projected.

The scale s is folded into the route's operator.  Replicas run in
batches on the thread pool of ``hspde._threads``, the one parallel layer:
BLAS runs one thread inside it, and so does the serial path of one
worker.  Each batch streams its increments through blocks of 256 steps,
step-major in one (257, R, K) buffer whose row 0 carries the state in:
project the block below it, run the recursion in place over its (R, K)
rows, one loop for every block, and synthesise the recorded rows per
replica, written into the output.

In d = 1 synthesis is one matmul with the propagated modes at the
recorded points, unless the record is a sine sub-lattice that more modes
alias onto.  That is a Laplacian drift whose record stride s divides
M + 1 = s L (M grid points), so the recorded points are x_i = (i + 1) / L
for i < L - 1, and which propagates K > L - 1 modes.  sin(k pi x_i)
depends only on k mod 2L, so the states are folded by signed sums first:
for 1 <= r <= L - 1, mode k = r mod 2L adds to slot r, k = 2L - r mod 2L
subtracts from it, and k = 0 or L mod 2L drops out.  The (B, L - 1)
folded states then take one matmul with the first L - 1 sines.  The fold
is decided once per plan (``_Core.fold``) and moves values by rounding
only; on the fractional-alpha-sweep plan (K = 2048, L = 128) it does 16x
fewer multiply-adds.  In d >= 2 (a Laplacian) the mode states fill their
places in the K^d tensor of multi-indices, zero where a mode is not
propagated, and the per-axis (K, P) sine factor at the recorded axis
points is applied one axis at a time; no dense mode table is read.

``simulate`` draws a batch's increments in chunks of 1024 steps into one
(R, N, 1024) buffer, refilled every 4 blocks from the batch's live
generators; ``simulate_from_increments`` slices the blocks from the
caller's table (labelled "from-increments").  One budget of 256 MiB
covers the whole pool: the batches in flight together keep their
increment chunks, block states, per-step fields, fold sums and d >= 2
synthesis tensors within it.  A batch holds at most
ceil(replicas / threads) replicas, and as many as fit its thread's share
of the budget; when one replica exceeds its share at the requested worker
count, fewer threads run.  A plan whose single replica exceeds the whole
budget is refused before anything is drawn.  The batch's generator
objects (about 0.8 KB of resident memory per stream on numpy 2.4, built
from their keys) lie outside the model, and so does the recorded
ensemble: the caller's ``out`` when given (a persisted run passes its
mapped payload file, so the values are written once, in place), else one
array of the whole ensemble.  Every matmul and fold acts on one replica
with shapes fixed by the plan, and the rest is elementwise, so a replica's
values do not depend on batching, worker count, the host's BLAS thread
count or ``out``, bit for bit;
``simulate_from_increments`` fed the same draws reproduces ``simulate``.

Increments come from the per-(seed, replica, mode) streams of
``hspde.noise``, and gains enter linearly after the draws, so trajectories
are exactly linear in G under a shared seed.  Synthesised trajectories of
non-self-adjoint systems must be real up to 1e-10; larger imaginary
residue is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .spectral import EigenSystem, _principal_power, _realify
from .noise import CameronMartinSpec, GProcess, _WienerStreams
from ._threads import map_threads, worker_count

__all__ = [
    "RecordSpec",
    "SimulationPlan",
    "TrajectoryEnsemble",
    "simulate",
    "simulate_from_increments",
    "predicted_second_moment",
]

#: steps per block of the projection / recursion / synthesis stream
BLOCK_STEPS = 256
#: steps per chunk of increments ``simulate`` draws; a multiple of BLOCK_STEPS.
#: Each (replica, mode, chunk) is one ``standard_normal`` call, which hands
#: the GIL to the other workers.  On a 2-CPU host one alpha of the
#: fractional-alpha-sweep plan (2 replicas, 2 workers) took 1-9% longer at
#: 1024 steps than at 2048, 10-20% longer at 512 and 1.7x as long at 256;
#: 1024 halves the chunk buffers for the smallest of these costs
DRAW_STEPS = 4 * BLOCK_STEPS
#: buffer budget of the whole thread pool: every batch in flight together
BATCH_BYTES = 256 << 20
#: bytes of the largest record (float64 values) a run's start admits
RECORD_BYTES = 1 << 30


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

    def space_stride(self, grid_size: int) -> int:
        """Spacing, in grid points, of the recorded points on an axis."""
        return max(1, int(round(grid_size / self.space_count)))

    def axis_indices(self, grid_size: int) -> np.ndarray:
        stride = self.space_stride(grid_size)
        return np.arange(stride - 1, grid_size, stride)

    def shape(self, grid_size: int, steps: int) -> tuple[int, int]:
        """(recorded times, recorded points per axis) of ``steps`` steps."""
        return steps // self.time_stride + 1, len(self.axis_indices(grid_size))


@dataclass(frozen=True)
class SimulationPlan:
    """Everything a simulation needs; replicas depend only on (seed, index).

    ``alpha`` is the fractional drift exponent (drift operator A^(alpha/2),
    alpha = 2 the plain generator).
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

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.T <= 0 or self.steps < 1 or self.replicas < 1:
            raise ValueError("T, steps and replicas must be positive")
        if self.steps % self.record.time_stride:
            raise ValueError("time_stride must divide steps")
        if self.noise.domain.n_points != self.system.domain.n_points:
            raise ValueError("noise and system live on different grids")
        table = self.G.table
        if table is not None and table.shape[1] != self.system.domain.n_points:
            raise ValueError(f"g table rows hold {table.shape[1]} values, "
                             f"the grid has {self.system.domain.n_points} "
                             "points")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def record_shape(self) -> tuple[int, int, int]:
        """(replicas, recorded times, recorded points) of the ensemble."""
        dom = self.system.domain
        n_times, per_axis = self.record.shape(dom.grid_size, self.steps)
        return self.replicas, n_times, per_axis ** dom.dimension

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


def _record_layout(plan: SimulationPlan):
    """(flat indices, raster shape, weight per point, times) of the record."""
    dom, record = plan.system.domain, plan.record
    m, d = dom.grid_size, dom.dimension
    raster = np.meshgrid(*[record.axis_indices(m)] * d, indexing="ij")
    flat = np.ravel_multi_index(raster, (m,) * d).ravel()
    return (flat, (record.shape(m, plan.steps)[1],) * d,
            (record.space_stride(m) / (m + 1)) ** d,
            plan.time_grid[:: record.time_stride])


def _provenance(plan: SimulationPlan, scheme: str, route: str,
                reason: Optional[str]) -> dict:
    dom = plan.system.domain
    return {
        "scheme": scheme,
        "scheme_reason": reason,
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
                "drift eigenbasis")
    if not system.is_selfadjoint:
        return "exact-diagonal scheme needs a self-adjoint system"
    gram = operator.conj().T @ operator
    diag = np.abs(np.diagonal(gram))
    np.fill_diagonal(gram, 0.0)
    if np.abs(gram).max() > 1e-12 * diag.max():
        return "G does not diagonalise over the drift eigenbasis"
    return None


@dataclass(frozen=True)
class _Core:
    """What every replica batch of a plan shares, built once per plan.

    ``operator`` maps one step's increments to the step's noise in drift
    coordinates, with the exact-variance scale folded in: per-mode weights
    (N,) on the "weights" route, the dense (N, K) matrix on "dense", and the
    (n_points, K) projection that follows ``lift`` (the noise synthesis)
    and the multiplier on "per-step".  The "weights" route propagates only
    the N noise modes; the others never receive noise and stay at zero.
    ``modes_rec`` synthesises the recorded points: the propagated modes
    there, (modes, P), in d = 1, or only the first L - 1 of them when the
    record is a sine sub-lattice of L - 1 points that the modes fold onto
    (``fold`` = L, else None); in d >= 2 the per-axis sine factor (K, P)
    at the recorded axis points, with ``scatter`` the flat places of the
    propagated modes in the K^d multi-index tensor.  ``obstacle`` is None
    when the plan is exact-diagonal, else the reason it is not (see
    ``_diagonal_obstacle``).
    """

    plan: SimulationPlan
    route: str
    operator: np.ndarray
    lift: Optional[np.ndarray]
    decay: np.ndarray  # e^(-mu dt) over the propagated modes
    modes_rec: np.ndarray
    scatter: Optional[np.ndarray]
    fold: Optional[int]
    layout: tuple  # _record_layout(plan)
    obstacle: Optional[str]

    @classmethod
    def build(cls, plan: SimulationPlan) -> "_Core":
        system, noise, G = plan.system, plan.noise, plan.G
        layout = _record_layout(plan)
        mu, dt = plan.drift_exponents, plan.dt
        decay = np.exp(-mu * dt)
        re = np.real(mu)
        # s(dt), the exact-variance scale
        scale = np.sqrt(-np.expm1(-2.0 * re * dt) / (2.0 * re * dt))
        n = noise.truncation
        lift = None
        # the noise modes are the drift's leading modes when both are sine
        # modes with the same leading multi-indices; the plan has already
        # checked that both grids have as many points, so equal index
        # shapes mean one dimension and one grid
        if (G.kind == "identity" and system.family == "laplacian"
                and n <= system.mode_count
                and np.array_equal(noise.laplacian.basis.indices[:n],
                                   system.basis.indices[:n])):
            route = "weights"
            operator = noise.weights * scale[:n]
            decay = decay[:n]
        elif G.time_dependent:
            route = "per-step"
            lift = noise.synthesis
            operator = (system.weight * np.conj(system.dual_modes).T) * scale
        else:
            route = "dense"
            g = G.values_at(system.domain, 0, 0.0)
            lifted = noise.synthesis if g is None else noise.synthesis * g[None, :]
            operator = system.weight * (lifted @ np.conj(system.dual_modes).T)
            operator *= scale
        dom = system.domain
        factor = system.basis.axis_values(plan.record.axis_indices(dom.grid_size))
        scatter = fold = None
        if dom.dimension > 1:
            modes_rec = factor
            scatter = np.ravel_multi_index(
                (system.basis.indices[: decay.size] - 1).T,
                (dom.mode_cutoff,) * dom.dimension)
        else:
            modes_rec = factor[: decay.size]
            # a record x_i = (i + 1) / L, i < L - 1, of a sine sub-lattice
            # that more than L - 1 sines fold onto
            stride = plan.record.space_stride(dom.grid_size)
            lattice = (dom.grid_size + 1) // stride
            if (system.family == "laplacian" and decay.size > lattice - 1
                    and lattice * stride == dom.grid_size + 1):
                modes_rec, fold = factor[: lattice - 1], lattice
        return cls(plan, route, operator, lift, decay,
                   np.ascontiguousarray(modes_rec), scatter, fold, layout,
                   _diagonal_obstacle(system, route, operator))

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self.operator, self.decay, self.modes_rec)

    def pool(self, workers: int) -> tuple[int, int]:
        """(threads, replicas per batch) for up to ``workers`` threads, so
        that the batches in flight together fit BATCH_BYTES.

        Each thread runs one batch at a time, whose buffers are the
        ``shared`` ones plus ``per_replica`` for each of its replicas.  The
        pool runs as many threads as can hold one replica each, at most
        ``workers``; a batch takes at most ceil(replicas / threads)
        replicas, and as many as fit its thread's share of the budget.

        Raises ValueError, with the byte estimate, when one replica's
        buffers alone exceed BATCH_BYTES.  The recorded output is not a
        buffer and lies outside the budget.
        """
        plan = self.plan
        blk = min(BLOCK_STEPS, plan.steps)
        # one chunk of increments, the carried row, one block of mode states
        # and a scratch row; the per-step route adds one block of field values
        per_replica = (8 * plan.noise.truncation * min(DRAW_STEPS, plan.steps)
                       + self.dtype.itemsize * (blk + 2) * self.decay.size)
        shared = 0 if self.lift is None else 8 * blk * self.lift.shape[1]
        if self.fold is not None:
            shared += self.dtype.itemsize * blk * 2 * self.fold
        if self.scatter is not None:
            # the K^d tensor and the partial products of one replica's block
            k, p = self.modes_rec.shape
            d = plan.system.domain.dimension
            shared += self.dtype.itemsize * blk * (
                k**d + sum(p ** (a + 1) * k ** (d - 1 - a) for a in range(d - 1)))
        unit = shared + per_replica
        if unit > BATCH_BYTES:
            raise ValueError(
                f"one replica needs {unit} bytes of simulation buffers, over "
                f"the buffer budget of {BATCH_BYTES} bytes; use fewer noise "
                f"or drift modes")
        threads = min(workers, BATCH_BYTES // unit)
        fit = (BATCH_BYTES // threads - shared) // per_replica
        return threads, int(min(fit, -(-plan.replicas // threads)))

    def run(self, label: str, sources, workers: int,
            out: Optional[np.ndarray] = None) -> TrajectoryEnsemble:
        """The plan's ensemble, labelled ``label``, on ``workers`` threads,
        its values written into ``out`` (a fresh array if None).

        ``sources(start, stop)`` is the block source of the batch of
        replicas start..stop-1: a callable that, called on consecutive
        blocks (b0, b1), gives their (R, N, b1 - b0) increments.
        """
        plan = self.plan
        threads, batch = self.pool(workers)
        if out is None:
            out = np.empty(plan.record_shape)

        def run_batch(start: int) -> None:
            stop = min(start + batch, plan.replicas)
            self.integrate(sources(start, stop), out[start:stop])

        # batches write disjoint replica slices of `out`
        map_threads(run_batch, range(0, plan.replicas, batch), threads)
        return self.ensemble(out, label)

    def integrate(self, block, out: np.ndarray) -> None:
        """Propagate the increments of the block source ``block`` (see
        ``run``) into recorded values ``out`` (R, recorded times, recorded
        points), 256 steps at a time."""
        plan = self.plan
        r_b, steps = len(out), plan.steps
        stride = plan.record.time_stride
        rows = min(BLOCK_STEPS, steps)
        # step-major: row 0 carries the state in, row n is after step b0 + n
        xi = np.zeros((rows + 1, r_b, self.decay.size), dtype=self.dtype)
        states, tmp = list(xi), np.empty_like(xi[0])
        # the multi-index tensor of d >= 2, whose places of modes not
        # propagated are never written and stay zero, or the 2L residue
        # sums of a fold
        scratch = None
        if self.scatter is not None:
            scratch = np.zeros((rows, self.modes_rec.shape[0]
                                ** plan.system.domain.dimension),
                               dtype=self.dtype)
        elif self.fold is not None:
            scratch = np.empty((rows, 2 * self.fold), dtype=self.dtype)
        out[:, 0] = 0.0
        row = 1
        for b0 in range(0, steps, BLOCK_STEPS):
            n_b = min(BLOCK_STEPS, steps - b0)
            self._project(block(b0, b0 + n_b), xi[1: n_b + 1], b0)
            # OU recursion in place, one (R, K) row after the other
            for n in range(1, n_b + 1):
                np.multiply(states[n - 1], self.decay, out=tmp)
                np.add(states[n], tmp, out=states[n])
            recorded = xi[1 + (-b0 - 1) % stride: n_b + 1: stride]
            stop = row + len(recorded)
            for r in range(r_b):
                self._synthesize(recorded[:, r], out[r, row:stop], scratch)
            xi[0] = xi[n_b]
            row = stop

    def _synthesize(self, states: np.ndarray, out: np.ndarray,
                    scratch: Optional[np.ndarray]) -> None:
        """Recorded values ``out`` (B, recorded points) of one replica's
        mode states ``states`` (B, propagated modes), with the batch's
        ``scratch`` (see ``integrate``)."""
        if self.fold is not None:
            states = _fold(states, self.fold, scratch[: len(states)])
        if self.scatter is None:
            if np.iscomplexobj(states):
                out[...] = _realify(states @ self.modes_rec)
            else:
                np.matmul(states, self.modes_rec, out=out)
            return
        # d >= 2: contract the tensor's leading axes one at a time with the
        # sine factor, then its last axis straight into ``out``
        k, p = self.modes_rec.shape
        d = self.plan.system.domain.dimension
        x = scratch[: len(states)]
        x[:, self.scatter] = states
        for a in range(d - 1):
            x = np.matmul(self.modes_rec.T, x.reshape(-1, k, k ** (d - 1 - a)))
        np.matmul(x.reshape(-1, k), self.modes_rec, out=out.reshape(-1, p))

    def _project(self, block: np.ndarray, blk: np.ndarray, b0: int) -> None:
        """Noise of the steps of ``block`` (R, N, B) in drift coordinates,
        written to ``blk`` (B, R, K), one matmul per replica."""
        if self.route == "weights":
            # transpose in slabs of 32 modes, so the strided reads stay in cache
            for r in range(len(block)):
                for j in range(0, blk.shape[2], 32):
                    np.multiply(block[r, j:j + 32].T, self.operator[j:j + 32],
                                out=blk[:, r, j:j + 32])
            return
        if self.route == "dense":
            for r in range(len(block)):
                np.matmul(block[r].T, self.operator, out=blk[:, r])
            return
        G, domain, tg = self.plan.G, self.plan.system.domain, self.plan.time_grid
        g_rows = np.stack([G.values_at(domain, n, tg[n])
                           for n in range(b0, b0 + len(blk))])
        for r in range(len(block)):
            field = block[r].T @ self.lift
            field *= g_rows
            np.matmul(field, self.operator, out=blk[:, r])

    def ensemble(self, values: np.ndarray, scheme: str) -> TrajectoryEnsemble:
        flat_idx, shape, weight, rec_times = self.layout
        return TrajectoryEnsemble(
            values=values,
            time_grid=rec_times,
            space_points=self.plan.system.domain.points[flat_idx],
            space_indices=flat_idx,
            space_shape=shape,
            space_weight=weight,
            provenance=_provenance(self.plan, scheme, self.route,
                                   self.obstacle),
        )


def _fold(states: np.ndarray, lattice: int, sums: np.ndarray) -> np.ndarray:
    """Mode states ``states`` (B, K) of sines k = 1..K folded onto the
    first L - 1 = ``lattice`` - 1: the states that sin(k pi x) takes at
    x_i = (i + 1) / L, as a view into ``sums`` (B, 2L).

    sin(k pi x_i) depends only on k mod 2L; k = r adds to slot r and
    k = 2L - r subtracts from it (1 <= r <= L - 1), and k = 0 or L is zero
    there.  Column c of ``sums`` first gathers the modes k = c + 1 mod 2L:
    whole groups of 2L modes by one sum, a last partial group added into
    the first columns.
    """
    b, k = states.shape
    period = 2 * lattice
    whole = k - k % period
    np.sum(states[:, :whole].reshape(b, whole // period, period), axis=1,
           out=sums)
    sums[:, : k - whole] += states[:, whole:]
    # r = 1..L-1 sit in columns r - 1, and 2L - r in columns 2L - r - 1
    folded = sums[:, : lattice - 1]
    folded -= sums[:, period - 2: lattice - 1: -1]
    return folded


def simulate(plan: SimulationPlan, workers: Optional[int] = None,
             out: Optional[np.ndarray] = None) -> TrajectoryEnsemble:
    """The plan's ensemble, labelled "exact-diagonal" where G diagonalises
    over the drift eigenbasis and "frozen-exponential" otherwise.

    ``workers`` threads run the replica batches (default: one per CPU).
    ``out``, if given, receives the values and becomes the ensemble's
    ``values``: a C-contiguous, writable float64 array of shape
    ``plan.record_shape``, such as a mapped file; anything else is refused
    before anything is drawn.  The values do not depend on it, bit for bit.
    """
    if out is not None and not (
            isinstance(out, np.ndarray) and out.shape == plan.record_shape
            and out.dtype == np.float64 and out.flags.c_contiguous
            and out.flags.writeable):
        got = type(out).__name__ if not isinstance(out, np.ndarray) else (
            f"{out.dtype} of shape {out.shape}, C-contiguous "
            f"{out.flags.c_contiguous}, writable {out.flags.writeable}")
        raise ValueError("out must be a C-contiguous, writable float64 array "
                         f"of shape {plan.record_shape}, got {got}")
    core = _Core.build(plan)
    scheme = "exact-diagonal" if core.obstacle is None else "frozen-exponential"
    tg = plan.time_grid

    def draws(start: int, stop: int):
        streams = _WienerStreams(plan.noise, tg, plan.seed, range(start, stop))
        chunk = np.empty((stop - start, plan.noise.truncation,
                          min(DRAW_STEPS, plan.steps)))

        def block(b0: int, b1: int) -> np.ndarray:
            c0 = b0 - b0 % DRAW_STEPS
            if b0 == c0:  # the first block of a chunk draws the chunk
                streams.fill(chunk[:, :, : min(DRAW_STEPS, plan.steps - c0)])
            return chunk[:, :, b0 - c0: b1 - c0]
        return block

    return core.run(scheme, draws, worker_count(workers), out)


def simulate_from_increments(plan: SimulationPlan,
                             increments: np.ndarray) -> TrajectoryEnsemble:
    """Run the recursion on caller-supplied increment tables.

    ``increments`` has shape (replicas, truncation, steps).  The value at
    time index n depends only on increments with step index < n, which is
    what makes spliced-future determinism checks meaningful.  Fed the
    draws ``simulate`` makes, it reproduces ``simulate`` bit for bit.
    Replica batches run on one thread per CPU.
    """
    increments = np.asarray(increments, dtype=float)
    want = (plan.replicas, plan.noise.truncation, plan.steps)
    if increments.shape != want:
        raise ValueError(f"increments shape {increments.shape}, want {want}")

    def slices(start: int, stop: int):
        return lambda b0, b1: increments[start:stop, :, b0:b1]

    return _Core.build(plan).run("from-increments", slices, worker_count(None))


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
    # a step's per-mode variance gain per unit time is the column sum of
    # |operator|^2, as the operator carries the exact-variance scale
    core = _Core.build(plan)
    if core.route == "per-step":
        G, domain, tg = plan.G, plan.system.domain, plan.time_grid

        def gain_sq(n):
            field = (core.lift * G.values_at(domain, n, tg[n])) @ core.operator
            return np.sum(np.abs(field) ** 2, axis=0)
    else:
        static = core.operator**2 if core.route == "weights" \
            else np.sum(np.abs(core.operator) ** 2, axis=0)

        def gain_sq(n):
            return static

    dsq = np.abs(core.decay) ** 2
    var = np.zeros(core.decay.size)
    for n in range(int(round(t_end / plan.dt))):
        var = dsq * var + gain_sq(n) * plan.dt
    return float(var.sum())
