"""Cylindrical Wiener noise and its spatial structure map.

The driving noise is a cylindrical Wiener process on a Hilbert space H
realised as a spectral scale over the Dirichlet Laplacian: the H-orthonormal
representative of sine mode k on the grid is mode_k * (1 + lam_k)^(-theta/2),
where lam_k is the (unshifted) Laplacian eigenvalue.  theta = 0 recovers
space-time white noise on L^2.

``GProcess`` is the operator G mapping H into the L^p state space, either
the plain embedding (identity kind) or a pointwise multiplication
(G y)(xi) = g(t, xi) * (i_theta y)(xi).  ``validate_noise_hypotheses``
checks the exponent bookkeeping (m, p, q, theta) the colored-noise
regularity statement needs and reports clause by clause rather than
raising, so callers can log exactly which hypothesis failed.

Wiener increments are drawn one stream per H-basis vector, keyed by
(seed, replica, mode) through a counter-based generator, so replicas can be
produced in any order or in parallel without coordination.  Stream
(replica, k) is Philox under the 128-bit key that
SeedSequence(seed, spawn_key=(replica, k)) generates.  A batch derives the
keys of all its streams in one vectorized pass (``_philox_keys``), checks
one of them against numpy's own SeedSequence, and builds each generator
straight from its key, with no SeedSequence of its own.  A stream can be
drawn in chunks: ``simulate`` fills a chunk at a time from a batch's live
generators, with the same values, bit for bit, as
``sample_wiener_increments`` drawing the whole table at once.  Seeded
one-off streams (``_philox``) and g on the grid (``_on_grid``) are made
here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .spectral import EigenSystem, SpectralDomain, _uniform_step, \
    build_laplacian_system

__all__ = [
    "CameronMartinSpec",
    "GProcess",
    "make_cameron_martin",
    "sample_wiener_increments",
    "validate_noise_hypotheses",
    "g_preset",
]


@dataclass(frozen=True)
class CameronMartinSpec:
    """Truncated spectral realisation of the noise Hilbert space.

    ``basis_functions[k]`` is the L^2-orthonormal sine mode on the grid and
    ``weights[k] = (1 + lam_k)^(-theta/2)`` the factor that turns it into an
    H-orthonormal representative.  ``synthesis`` maps H-coefficient vectors
    to grid functions.  The basis is the first ``truncation`` modes of
    ``laplacian``, a Laplacian system on the same grid: ``lap_eigenvalues``
    and ``basis_functions`` read its eigenvalues and its dense mode table,
    which ``basis_functions`` computes on each read.  On the weights route
    the simulation core reads only ``laplacian.basis.indices``.
    """

    domain: SpectralDomain
    theta: float
    truncation: int
    laplacian: EigenSystem = field(repr=False)

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")
        if self.truncation < 1:
            raise ValueError("truncation must be positive")

    @property
    def lap_eigenvalues(self) -> np.ndarray:
        return self.laplacian.eigenvalues[: self.truncation]

    @property
    def basis_functions(self) -> np.ndarray:
        return self.laplacian.modes[: self.truncation]

    @property
    def weights(self) -> np.ndarray:
        return (1.0 + self.lap_eigenvalues) ** (-self.theta / 2.0)

    @property
    def synthesis(self) -> np.ndarray:
        """(truncation, n_points) map from H-coefficients to grid values."""
        return self.weights[:, None] * self.basis_functions


def make_cameron_martin(
    domain: SpectralDomain, theta: float, truncation: int
) -> CameronMartinSpec:
    """Build the truncated noise space over ``domain``.

    The basis always comes from the Dirichlet Laplacian on the same grid
    (independently of whatever generator drives the drift), with modes
    ordered by ascending Laplacian eigenvalue: the first ``truncation``
    modes of ``build_laplacian_system`` with min(M, ceil(truncation^(1/d)))
    modes per axis.  Building it makes no mode table.  In d = 1 the first N
    modes of any cutoff are the same sines, so the simulation core sends
    the noise straight to the drift's leading modes whatever the drift's
    cutoff.
    """
    per_axis = int(math.ceil(truncation ** (1.0 / domain.dimension)))
    per_axis = min(per_axis, domain.grid_size)
    lap = build_laplacian_system(
        SpectralDomain(domain.dimension, domain.grid_size, per_axis)
    )
    if lap.mode_count < truncation:
        raise ValueError(
            f"grid supports only {lap.mode_count} modes, "
            f"requested truncation {truncation}"
        )
    return CameronMartinSpec(
        domain=domain,
        theta=float(theta),
        truncation=int(truncation),
        laplacian=lap,
    )


@dataclass(frozen=True)
class GProcess:
    """Spatial structure map of the noise.

    kind "identity" is the bare embedding of H into the state space; kind
    "multiplication" composes the embedding with pointwise multiplication
    by g(t, xi).  ``m`` and ``q`` are the declared space and time
    integrability exponents of g; they are bookkeeping here and checked by
    ``validate_noise_hypotheses``.
    """

    kind: str
    m: float
    q: float
    profile: Optional[Callable] = None  # (t, points (n,d)) -> (n,) values
    table: Optional[np.ndarray] = field(default=None, repr=False)
    time_dependent: bool = False
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("identity", "multiplication"):
            raise ValueError(f"unknown G kind {self.kind!r}")
        if self.kind == "multiplication" and self.profile is None and self.table is None:
            raise ValueError("multiplication kind needs a profile or a table")
        if self.m <= 0 or self.q <= 0:
            raise ValueError("integrability exponents must be positive")

    @classmethod
    def identity(cls, m: float = np.inf, q: float = np.inf) -> "GProcess":
        return cls(kind="identity", m=m, q=q, label="identity")

    @classmethod
    def multiplication(cls, g, m: float, q: float, time_dependent: bool = False,
                       label: str = "custom") -> "GProcess":
        """g: a scalar, a callable of xi, or of (t, xi) if time_dependent."""
        if not (np.isscalar(g) or callable(g)):
            raise TypeError("g must be a scalar or a callable")
        timed = time_dependent and callable(g)
        return cls(kind="multiplication", m=m, q=q,
                   profile=g if timed else lambda t, pts: _on_grid(g, pts),
                   time_dependent=timed, label=label)

    @classmethod
    def from_table(cls, table: np.ndarray, m: float, q: float) -> "GProcess":
        """g sampled per (time index, grid point); rows follow the plan grid."""
        table = np.asarray(table, dtype=float)
        if table.ndim != 2:
            raise ValueError("g table must be 2d (time index, grid point)")
        return cls(kind="multiplication", m=m, q=q, table=table,
                   time_dependent=table.shape[0] > 1, label="csv")

    def values_at(self, domain: SpectralDomain, t_index: int, time: float) -> Optional[np.ndarray]:
        """g(t, .) on the grid, or None for the identity kind."""
        if self.kind == "identity":
            return None
        if self.table is not None:
            return self.table[min(t_index, self.table.shape[0] - 1)]
        return _on_grid(self.profile(time, domain.points), domain.points)


def _on_grid(g, points: np.ndarray) -> np.ndarray:
    """g at the grid ``points`` (n, d), a callable of them or a number or
    array, cast to float and broadcast to (n,)."""
    values = g(points) if callable(g) else g
    return np.broadcast_to(np.asarray(values, dtype=float), (len(points),))


def g_preset(name: str, m: float, q: float) -> GProcess:
    """Named multiplier profiles: "const", "bump", "separable:sin"."""
    if name == "const":
        return GProcess.multiplication(1.0, m=m, q=q, label="const")
    if name == "bump":
        def bump(pts):
            r2 = np.sum((pts - 0.5) ** 2, axis=1)
            return np.exp(-r2 / (2 * 0.2**2))
        return GProcess.multiplication(bump, m=m, q=q, label="bump")
    if name == "separable:sin":
        def sep(t, pts):
            return (1.0 + 0.5 * np.sin(2 * np.pi * t)) * np.sin(np.pi * pts[:, 0])
        return GProcess.multiplication(sep, m=m, q=q, time_dependent=True,
                                       label="separable:sin")
    raise KeyError(f"unknown g preset {name!r}; available: "
                   "['bump', 'const', 'separable:sin']")


def _philox(seed: int, *key: int) -> np.random.Generator:
    """Stream ``key`` of ``seed``: SeedSequence(seed, spawn_key=key) over
    the counter-based Philox generator (no key: SeedSequence(seed))."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=key)))


# the constants of numpy's SeedSequence (uint32 hash mix, pool of 4 words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words(n: int) -> list:
    """The uint32 words of a nonnegative int, least significant first."""
    if n < 0:
        raise ValueError(f"seeds and replica numbers must be nonnegative, "
                         f"got {n}")
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _hashmix(value, const, then):
    """SeedSequence's hashmix of ``value`` under hash constant ``const``,
    which advances to ``then`` on the way.  Values and constants are
    Python ints below 2**32 or uint32 arrays, so every product is reduced
    mod 2**32, as uint32 arithmetic wraps."""
    value = (value ^ const) * then & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    out = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return out ^ out >> 16


def _hash_constants(init: int, mult: int, count: int) -> list:
    """init * mult^j mod 2**32 for j < count: SeedSequence advances its
    hash constant by one factor of ``mult`` per hashmix."""
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _MASK32)
    return out


def _philox_keys(seed: int, replicas, count: int) -> np.ndarray:
    """(len(replicas), count, 2) uint64: entry [i, k] is the Philox key of
    stream (replicas[i], k), that is
    SeedSequence(seed, spawn_key=(replicas[i], k)).generate_state(2, np.uint64).

    SeedSequence's uint32 hash mix, run over every stream at once.  Its
    entropy is the seed's words, padded with zeros to the pool size, then
    the replica's words and k.  The pool takes the first pool-size words,
    which are the seed's, and mixes them pairwise: that pass is the same
    for every stream, and runs once in Python ints.  Each later word
    mixes into the pool's words independently, under the next pool-size
    hash constants, so it takes one pass over a (pool size, n, count)
    pool: the replicas' words as (n, 1) arrays and k as a (1, count)
    array.  Replicas of as many words share one pass.
    """
    out = np.empty((len(replicas), count, 2), dtype=np.uint64)
    seed_words = _words(seed)
    seed_words += [0] * (_POOL - len(seed_words))
    # hashmix j XORs with constant j and multiplies by constant j + 1; a
    # stream takes pool-size hashmixes per entropy word (the first words'
    # own and their pairwise mix included)
    longest = len(_words(max(replicas, default=0)))
    consts = _hash_constants(_INIT_A, _MULT_A,
                             1 + _POOL * (len(seed_words) + longest + 1))
    pool = [_hashmix(word, consts[j], consts[j + 1])
            for j, word in enumerate(seed_words[:_POOL])]
    j = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[j],
                                                     consts[j + 1]))
                j += 1
    consts = np.array(consts, dtype=np.uint32)[:, None, None]
    pool = np.array(pool, dtype=np.uint32)[:, None, None]

    def absorb(pool, word, j):
        return _mix(pool, _hashmix(word, consts[j: j + _POOL],
                                   consts[j + 1: j + _POOL + 1]))

    for word in seed_words[_POOL:]:
        pool = absorb(pool, word, j)
        j += _POOL
    # generate_state(2, np.uint64): four words, one from each pool word
    final = np.array(_hash_constants(_INIT_B, _MULT_B, _POOL + 1),
                     dtype=np.uint32)[:, None, None]
    ks = np.arange(count, dtype=np.uint32)[None, :]
    start = 0
    for size, group in itertools.groupby(replicas, lambda r: len(_words(r))):
        words = np.array([_words(r) for r in group], dtype=np.uint32)
        mixed = pool
        for i, column in enumerate(words.T):
            mixed = absorb(mixed, column[:, None], j + _POOL * i)
        mixed = absorb(mixed, ks, j + _POOL * size)
        state = _hashmix(mixed, final[:_POOL], final[1:])
        # pairs of words, read little-endian, as generate_state does
        out[start: start + len(words)] = np.ascontiguousarray(
            np.moveaxis(state, 0, -1), dtype="<u4").view("<u8")
        start += len(words)
    return out


@functools.cache
def _key_type() -> type:
    """``_Key(key)``: the seed of a Philox stream whose key is already
    known, an ISeedSequence that answers Philox's one request,
    generate_state(2, np.uint64), with the key and refuses any other.

    Made on first use, so that ``import hspde`` does not import
    numpy.random.
    """
    class _Key(np.random.bit_generator.ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key answers only a request for "
                                 f"two uint64 words, got {n_words} of {dtype}")
            return self.key

    return _Key


class _WienerStreams:
    """The Philox streams of a batch of replicas, drawn chunk by chunk.

    Stream (replica, k) is ``_philox(seed, replica, k)``, built from its
    key, which ``_philox_keys`` derives for the whole batch at once, with
    no SeedSequence of its own.  One key of the batch, the last of its
    first replica, is checked against numpy's SeedSequence before any
    generator is built.  Each ``fill``
    writes the next steps of every stream, scaled by sqrt(dt), so
    consecutive fills of any lengths concatenate to the same values as one
    fill over all steps, bit for bit.
    """

    def __init__(self, spec: CameronMartinSpec, time_grid: np.ndarray,
                 seed: int, replicas: range):
        dt = _uniform_step(time_grid, "time grid")
        self.steps = len(time_grid) - 1
        self.root = np.sqrt(dt)
        keys = _philox_keys(seed, replicas, spec.truncation)
        k = spec.truncation - 1
        want = np.random.SeedSequence(
            seed, spawn_key=(replicas[0], k)).generate_state(2, np.uint64)
        if not np.array_equal(keys[0, k], want):
            raise RuntimeError(
                "the Philox keys derived here differ from numpy "
                f"{np.__version__}'s SeedSequence; its hash mix has "
                "changed, so streams would not be reproducible")
        seeded = _key_type()
        self.generators = [[np.random.Generator(np.random.Philox(seeded(key)))
                            for key in batch] for batch in keys]

    def fill(self, out: np.ndarray) -> None:
        """Write the next out.shape[2] increments of every stream into
        ``out`` (replicas, truncation, chunk), whose rows are contiguous."""
        for gens, table in zip(self.generators, out):
            for gen, row in zip(gens, table):
                gen.standard_normal(out=row)
        out *= self.root


def sample_wiener_increments(
    spec: CameronMartinSpec, time_grid: np.ndarray, seed: int, replica: int
) -> np.ndarray:
    """Increment table of the cylindrical process, shape (truncation, steps).

    Entry (k, n) is W_k(t_{n+1}) - W_k(t_n) ~ Normal(0, dt), independent
    across modes and steps.  Stream k is ``_philox(seed, replica, k)``, so
    the table is reproducible per (seed, replica, mode) with no
    cross-stream coordination.  The time grid must be uniform
    (``spectral._uniform_step``).
    """
    streams = _WienerStreams(spec, time_grid, seed, range(replica, replica + 1))
    out = np.empty((spec.truncation, streams.steps))
    streams.fill(out[None])
    return out


def _clause(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


def validate_noise_hypotheses(G: GProcess, spec: CameronMartinSpec, p: float,
                              d: Optional[int] = None) -> dict:
    """Check the exponent hypotheses of the colored-noise setting.

    Returns a report dict with per-clause results instead of raising:
    ``report["ok"]`` is the conjunction of the hard clauses, and a p that
    is inconsistent with 1/p = 1/2 - theta/d + 1/m is flagged in
    ``report["warnings"]`` (with the implied p) rather than failing.
    """
    if d is None:
        d = spec.domain.dimension
    m, q, theta = G.m, G.q, spec.theta
    if p <= 0:
        raise ValueError("p must be positive")

    floor = max(2.0, float(d))
    clauses = [
        _clause("m > max(2, d)", m > floor, f"m={m}, max(2,d)={floor}"),
        _clause("p in (max(2,d), m]", floor < p <= m, f"p={p}"),
        _clause("d/m + 1/q < 1/2", d / m + 1.0 / q < 0.5,
                f"d/m + 1/q = {d / m + 1.0 / q:.6g}"),
    ]
    window_lo = d / m + (d - 1) / 2.0 + 1.0 / q
    window_hi = d / 2.0
    clauses.append(
        _clause(
            "theta in (d/m + (d-1)/2 + 1/q, d/2)",
            window_lo < theta < window_hi,
            f"window=({window_lo:.6g}, {window_hi:.6g}), theta={theta}",
        )
    )

    warnings_ = []
    implied_inv_p = 0.5 - theta / d + 1.0 / m
    implied_p = 1.0 / implied_inv_p if implied_inv_p > 0 else np.inf
    if abs(1.0 / p - implied_inv_p) > 1e-12:
        warnings_.append(
            f"p={p} does not satisfy 1/p = 1/2 - theta/d + 1/m "
            f"(implied p = {implied_p:.6g})"
        )

    embedding_r = np.inf if theta >= d / 2.0 else 1.0 / (0.5 - theta / d)
    return {
        "ok": all(c["ok"] for c in clauses),
        "clauses": clauses,
        "warnings": warnings_,
        "derived": {"implied_p": implied_p, "embedding_r": embedding_r},
        "params": {"d": d, "m": m, "p": p, "q": q, "theta": theta},
    }
