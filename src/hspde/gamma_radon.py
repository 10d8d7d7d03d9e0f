"""Monte Carlo gamma-norms of finite-rank operators into L^p grid spaces.

For a finite-rank operator R from a Hilbert space with ONB (e_k) into the
grid space E, the squared gamma-norm is E | sum_k gamma_k R e_k |_E^2 with
i.i.d. standard Gaussians gamma_k.  On a Hilbert target this coincides with
the Hilbert-Schmidt norm (so the identity on R^n must estimate sqrt(n),
the chi-square mean), which is the main calibration oracle.  Estimates
carry a jackknife standard error of the squared norm over 20 fixed blocks.

``check_domination_bound`` verifies the pointwise envelope bound
|(R y)(xi)| <= |y|_H g(xi) for multiplication-type operators against the
exact envelope over the unit ball, the Cauchy-Schwarz row norm
sqrt(sum_k R[xi,k]^2), and relates the Monte Carlo gamma-norm to |g|_p.

``check_ideal_property`` tests |S2 R S1|_gamma <= |S2| |R|_gamma |S1| with
the operator norms computed by (p-norm) power iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .noise import CameronMartinSpec, _on_grid, _philox, make_cameron_martin
from .spectral import _grid_norm

__all__ = [
    "FiniteRankOperator",
    "GammaNormEstimate",
    "DominationError",
    "mc_gamma_norm",
    "check_domination_bound",
    "check_ideal_property",
    "matrix_p_norm",
]

JACKKNIFE_BLOCKS = 20
#: Gaussian coefficient vectors drawn per matmul of ``mc_gamma_norm``
MC_CHUNK = 20_000
#: p-norm power method: relative tolerance, iterations per start, starts
POWER_ITER_TOL = 1e-8
POWER_ITER_MAX = 500
POWER_STARTS = 4


class DominationError(RuntimeError):
    """Pointwise envelope bound violated; carries the computed envelope."""

    def __init__(self, point_index, point, excess, envelope):
        super().__init__(
            f"domination violated at grid point {point} "
            f"(index {point_index}, excess {excess:.3e})"
        )
        self.point_index = point_index
        self.point = point
        self.excess = excess
        self.envelope = envelope


@dataclass(frozen=True)
class FiniteRankOperator:
    """Linear map from ONB coefficient vectors to target-space values.

    ``matrix`` has shape (n_out, rank): column k is R e_k.  ``weight`` is
    the quadrature weight of the target grid norm (1.0 for an abstract
    Hilbert target).  Multiplication-type operators keep their builder so
    the truncation can be doubled for stability checks.
    """

    matrix: np.ndarray = field(repr=False)
    kind: str = "generic"
    weight: float = 1.0
    spec: Optional[CameronMartinSpec] = field(default=None, repr=False)
    multiplier: Optional[Union[np.ndarray, Callable]] = field(default=None, repr=False)

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise ValueError("operator matrix must be 2d")
        if self.weight <= 0:
            raise ValueError("target norm weight must be positive")

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_out(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "FiniteRankOperator":
        return cls(matrix=np.eye(n), kind="identity", weight=1.0)

    @classmethod
    def from_matrix(cls, matrix) -> "FiniteRankOperator":
        return cls(matrix=np.asarray(matrix, dtype=float), kind="generic")

    @classmethod
    def rank_one(cls, values: np.ndarray, index: int, rank: int) -> "FiniteRankOperator":
        """R y = y[index] * values."""
        values = np.asarray(values, dtype=float)
        mat = np.zeros((len(values), rank))
        mat[:, index] = values
        return cls(matrix=mat, kind="rank-one")

    @classmethod
    def multiplication(cls, multiplier, spec: CameronMartinSpec) -> "FiniteRankOperator":
        """R y = g . (weighted synthesis of y) on the grid of ``spec``."""
        g = _on_grid(multiplier, spec.domain.points)
        mat = spec.synthesis.T * g[:, None]
        return cls(matrix=mat, kind="multiplication", weight=spec.domain.weight,
                   spec=spec, multiplier=multiplier)

    def with_doubled_truncation(self) -> "FiniteRankOperator":
        if self.kind != "multiplication" or self.spec is None:
            raise ValueError("only multiplication operators can extend their rank")
        wider = make_cameron_martin(
            self.spec.domain, self.spec.theta, 2 * self.spec.truncation
        )
        return FiniteRankOperator.multiplication(self.multiplier, wider)

    def envelope(self) -> np.ndarray:
        """Exact sup over the unit coefficient ball of |(R y)(xi)|."""
        return np.sqrt(np.sum(self.matrix**2, axis=1))


@dataclass(frozen=True)
class GammaNormEstimate:
    """Monte Carlo estimate of a gamma-norm.

    ``value`` approximates the norm itself; ``std_error`` is the jackknife
    standard error of ``value**2`` over the fixed block partition.
    """

    value: float
    std_error: float
    samples: int
    blocks: int = JACKKNIFE_BLOCKS

    @property
    def value_std_error(self) -> float:
        """Delta-method standard error of ``value`` itself."""
        if self.value == 0.0:
            return self.std_error**0.5
        return self.std_error / (2.0 * self.value)


def _jackknife_se(per_sample: np.ndarray, blocks: int) -> float:
    chunks = np.array_split(per_sample, blocks)
    total, n = per_sample.sum(), len(per_sample)
    loo = np.array([(total - c.sum()) / (n - len(c)) for c in chunks])
    return float(np.sqrt((blocks - 1) / blocks * np.sum((loo - loo.mean()) ** 2)))


def mc_gamma_norm(
    R: FiniteRankOperator, p: float, samples: int, seed: int,
) -> GammaNormEstimate:
    """Estimate the gamma-norm of R into the (weighted) L^p target.

    Draws ``samples`` Gaussian coefficient vectors (MC_CHUNK per matmul),
    averages the squared target norms, and reports the square root with a
    20-block jackknife standard error of the squared mean.
    """
    if samples < JACKKNIFE_BLOCKS:
        raise ValueError(f"need at least {JACKKNIFE_BLOCKS} samples")
    if p < 1:
        raise ValueError("p must be at least 1")
    rng = _philox(seed)
    sq = np.empty(samples)
    for done in range(0, samples, MC_CHUNK):
        gam = rng.standard_normal((min(MC_CHUNK, samples - done), R.rank))
        sq[done:done + len(gam)] = _grid_norm(gam @ R.matrix.T, R.weight, p,
                                              axis=-1) ** 2
    mean_sq = float(sq.mean())
    return GammaNormEstimate(
        value=float(np.sqrt(mean_sq)),
        std_error=_jackknife_se(sq, JACKKNIFE_BLOCKS),
        samples=samples,
    )


def check_domination_bound(
    R: FiniteRankOperator,
    g,
    p: float,
    samples: int = 20_000,
    seed: int = 0,
) -> dict:
    """Verify |(R y)(xi)| <= |y| g(xi) on the grid and relate norms.

    g is a callable of the grid points, a number or a grid array.  The
    exact envelope over the unit ball is compared with g pointwise; a
    violation raises ``DominationError`` naming the worst grid point and
    carrying the envelope.  The report relates the Monte Carlo gamma-norm
    to |g|_p and re-estimates the ratio under doubled truncation,
    asserting +-10% stability.
    """
    if R.kind != "multiplication":
        raise ValueError("domination check applies to multiplication operators")
    pts = R.spec.domain.points
    g_vals = _on_grid(g, pts)
    env = R.envelope()
    excess = env - g_vals
    worst = int(np.argmax(excess))
    if excess[worst] > 1e-12 * max(1.0, env.max()):
        raise DominationError(worst, pts[worst], float(excess[worst]), env)

    est = mc_gamma_norm(R, p, samples, seed)
    g_norm = float(_grid_norm(g_vals, R.weight, p))
    ratio = est.value / g_norm if g_norm > 0 else float("nan")

    ratio_doubled = float("nan")
    if g_norm > 0:
        wide = R.with_doubled_truncation()
        est2 = mc_gamma_norm(wide, p, samples, seed)
        ratio_doubled = est2.value / g_norm
        if not np.isfinite(ratio) or abs(ratio_doubled - ratio) > 0.10 * abs(ratio):
            raise RuntimeError(
                f"gamma-norm/|g|_p ratio unstable under truncation doubling: "
                f"{ratio:.6g} vs {ratio_doubled:.6g}"
            )

    return {
        "envelope": env,
        "mc_norm": est.value,
        "std_error": est.std_error,
        "g_norm": g_norm,
        "ratio": ratio,
        "ratio_doubled": ratio_doubled,
    }


def _dual_signed_power(v: np.ndarray, expo: float) -> np.ndarray:
    return np.sign(v) * np.abs(v) ** expo


def matrix_p_norm(mat: np.ndarray, p: float) -> float:
    """Induced p-norm of a matrix by power iteration.

    p = 2 uses the exact spectral norm.  Otherwise the classical p-norm
    power method (dual-vector iteration) runs from POWER_STARTS starts
    (the ones vector, then seed-0 Gaussian vectors) and the largest
    stationary value is returned; this is a lower bound that is exact for
    the cases exercised here (diagonal and well-conditioned matrices).
    """
    mat = np.asarray(mat, dtype=float)
    if p == 2:
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    if p <= 1:
        raise ValueError("p must exceed 1 for the power method")
    q = p / (p - 1.0)
    rng = _philox(0)
    best = 0.0
    starts = [np.ones(mat.shape[1])] + [
        rng.standard_normal(mat.shape[1]) for _ in range(POWER_STARTS - 1)
    ]
    for x in starts:
        x = x / np.linalg.norm(x, ord=p)
        est_prev = 0.0
        for _ in range(POWER_ITER_MAX):
            y = mat @ x
            est = np.linalg.norm(y, ord=p)
            if est == 0.0:
                break
            z = mat.T @ _dual_signed_power(y / est, p - 1.0)
            zq = np.linalg.norm(z, ord=q)
            if zq <= z @ x + POWER_ITER_TOL * zq \
                    or abs(est - est_prev) <= POWER_ITER_TOL * est:
                break
            x = _dual_signed_power(z, q - 1.0)
            x /= np.linalg.norm(x, ord=p)
            est_prev = est
        best = max(best, est)
    return float(best)


def check_ideal_property(
    S2: np.ndarray,
    R: FiniteRankOperator,
    S1: np.ndarray,
    p: float,
    samples: int = 20_000,
    seed: int = 0,
) -> dict:
    """Test |S2 R S1|_gamma <= |S2| |R|_gamma |S1| by Monte Carlo.

    S1 acts on coefficient vectors (Hilbert norm), S2 on target grid values
    (L^p operator norm, same grid weight on both sides).  Raises if the
    left side exceeds the right beyond 3 combined standard errors.
    """
    S1 = np.asarray(S1, dtype=float)
    S2 = np.asarray(S2, dtype=float)
    composed = FiniteRankOperator(
        matrix=S2 @ R.matrix @ S1, kind="generic", weight=R.weight
    )
    left = mc_gamma_norm(composed, p, samples, seed)
    base = mc_gamma_norm(R, p, samples, seed + 1)
    s1_norm = float(np.linalg.svd(S1, compute_uv=False)[0]) if S1.size else 0.0
    s2_norm = matrix_p_norm(S2, p)
    right = s2_norm * base.value * s1_norm

    # compare squared quantities, matching the jackknife's units
    rhs_sq = right**2
    rhs_sq_se = (s2_norm * s1_norm) ** 2 * base.std_error
    slack = 3.0 * np.sqrt(left.std_error**2 + rhs_sq_se**2)
    ok = left.value**2 <= rhs_sq + slack + 1e-12
    report = {
        "left": left.value,
        "left_std_error": left.std_error,
        "right": right,
        "s1_norm": s1_norm,
        "s2_norm": s2_norm,
        "base_norm": base.value,
        "base_std_error": base.std_error,
        "ok": bool(ok),
    }
    if not ok:
        raise RuntimeError(
            f"ideal property violated beyond 3 std errors: "
            f"left={left.value:.6g}, right={right:.6g}"
        )
    return report
