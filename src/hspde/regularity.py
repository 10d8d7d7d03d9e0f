"""Admissible Hölder-exponent regions and pathwise exponent estimation.

The temporal/spatial regularity theory consumed here takes the form of a
linear budget in the (beta, gamma) plane: a pair of Hölder exponents
(beta in time, gamma in space) is admissible when

    beta + gamma / slope < budget = 1/2 - 1/q - (2d / slope) / p,

one formula, with slope alpha (2 outside ``fractional``) and p the
integrability the statement works in.  Its four cases:

* ``prop32``     white noise, plain second-order drift: slope 2, the
                 query's p, budget 1/2 - 1/q - d/p.
* ``remark33``   time-interpolation refinement with smoothing parameter
                 theta: slope 2, 1/p = 1/4 - theta/(2d), budget
                 (1 + theta)/2 - 1/q - d/4.
* ``colored``    smoothed noise with Cameron-Martin exponent theta and
                 integrability m: Prop. 3.2 at 1/p = 1/2 - theta/d + 1/m,
                 budget theta + 1/2 - d(1/2 + 1/m) - 1/q.
* ``fractional`` drift exponent alpha in (0, 2]: slope alpha, the query's
                 p, budget 1/2 - 1/q - 2d/(alpha p).

All region arithmetic is exact over rationals (inputs pass through
``Fraction``), and the inequalities stay strict: boundary points are
never admissible.

Exponent estimation uses dyadic max-increment log-log regression:
M(h) = max_n |u(t_n + h) - u(t_n)| over lags h = 2^j steps, slope fitted
by least squares with the two smallest and two largest dyadic levels
dropped, medianed across replicas.  The max pools whatever sections are
available (recorded points for the sup-space temporal mode, selected
time sections for the spatial fit) so the extreme-value sample count
stays comparable across lags.  ``_selection`` owns the fits' point and
time selection, for the estimators and the run's start alike.  The
replicas' profiles are taken on the thread pool of ``hspde._threads``,
the one parallel layer (BLAS runs one thread inside it); a max is exact,
so the profiles and estimates do not depend on the worker count or the
host's BLAS thread count, bit for bit.  The per-replica log-log fits are
cheap and stay serial.

Estimates are one-sided evidence: the theory promises membership for
every admissible exponent pair, so a verification passes when no
admissible vertex exceeds the estimate by more than the calibrated
tolerance (0.10).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from ._threads import map_threads
from .convolve import TrajectoryEnsemble
from .spectral import _uniform_step

__all__ = [
    "RegularityQuery",
    "ParameterSelection",
    "ExponentEstimate",
    "RegionVerdict",
    "admissible",
    "exponent_budget",
    "gamma_ceiling",
    "region_boundary",
    "select_sigma_delta",
    "estimate_temporal_exponent",
    "estimate_spatial_exponent",
    "verify_region",
]

THEOREMS = ("prop32", "remark33", "colored", "fractional")
EXPONENT_CAP = 1.5
DROP_LOW = 2
DROP_HIGH = 2
#: fewest samples that leave the lag policy two dyadic levels to fit
_MIN_SAMPLES = (1 << (DROP_LOW + DROP_HIGH + 1)) + 1
#: fewest recorded times the temporal fit takes
_MIN_TIMES = 64
#: bytes of one cache-resident slab of _max_increments (L2-sized), and the
#: fewest columns a slab takes
_SLAB_BYTES = 512 << 10
_SLAB_COLUMNS = 8
VERIFY_TOLERANCE = 0.10
#: vertices per axis of the grid ``verify_region`` confronts
_VERIFY_GRID = 5

Rational = Union[int, float, Fraction]


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    # str() keeps the decimal literal the caller wrote, so 0.4 -> 2/5
    return Fraction(str(float(x)))


@dataclass(frozen=True)
class RegularityQuery:
    """Which regularity statement to query, with its exponents.

    ``p`` is required for the white-noise and fractional settings; the
    smoothed-noise settings derive their own integrability from theta (and
    m), and refuse a ``p``.  A theorem refuses, by name, every parameter
    its region does not read, and an ``alpha`` other than 2 unless it is
    the fractional one.
    """

    theorem: str
    d: int
    q: Rational
    p: Optional[Rational] = None
    alpha: Rational = 2
    theta: Optional[Rational] = None
    m: Optional[Rational] = None

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem key {self.theorem!r}")
        for key, readers in (("p", ("prop32", "fractional")),
                             ("theta", ("remark33", "colored")),
                             ("m", ("colored",))):
            if getattr(self, key) is not None and self.theorem not in readers:
                raise ValueError(f"{self.theorem} reads no {key}; drop it")
        if self.theorem != "fractional" and _frac(self.alpha) != 2:
            raise ValueError(f"{self.theorem} reads no alpha; drop it")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if _frac(self.q) < 2:
            raise ValueError("q must be at least 2")
        if self.theorem in ("prop32", "fractional"):
            if self.p is None:
                raise ValueError(f"{self.theorem} needs p")
            if _frac(self.p) <= max(2, self.d):
                raise ValueError("p must exceed max(2, d)")
        if self.theorem == "fractional":
            a = _frac(self.alpha)
            if not (0 < a <= 2):
                raise ValueError("alpha must lie in (0, 2]")
        if self.theorem in ("remark33", "colored"):
            if self.theta is None:
                raise ValueError(f"{self.theorem} needs theta")
            if _frac(self.theta) < 0:
                raise ValueError("theta must be nonnegative")
        if self.theorem == "colored":
            if self.m is None:
                raise ValueError("colored needs m")
            if _frac(self.m) <= 2:
                raise ValueError("m must exceed 2")


def _slope(query: RegularityQuery) -> Fraction:
    return _frac(query.alpha) if query.theorem == "fractional" else Fraction(2)


def _inverse_integrability(query: RegularityQuery) -> Fraction:
    """1/p for the integrability of the query's statement; may be <= 0."""
    if query.theorem in ("prop32", "fractional"):
        return 1 / _frac(query.p)
    theta_d = _frac(query.theta) / query.d
    if query.theorem == "colored":
        return Fraction(1, 2) - theta_d + 1 / _frac(query.m)
    return Fraction(1, 4) - theta_d / 2  # remark33


def exponent_budget(query: RegularityQuery) -> Fraction:
    """Largest beta on the region's beta axis (exact rational)."""
    return (Fraction(1, 2) - 1 / _frac(query.q)
            - 2 * query.d / _slope(query) * _inverse_integrability(query))


def gamma_ceiling(query: RegularityQuery, beta: Rational) -> Fraction:
    """Supremum of admissible gamma at the given beta (can be <= 0)."""
    return _slope(query) * (exponent_budget(query) - _frac(beta))


def admissible(query: RegularityQuery, beta: Rational, gamma: Rational) -> bool:
    """Strict membership of (beta, gamma) in the admissible region."""
    b, g = _frac(beta), _frac(gamma)
    if b < 0 or g < 0:
        return False
    return g < gamma_ceiling(query, b)


def region_boundary(query: RegularityQuery, n_points: int = 33) -> np.ndarray:
    """(beta, gamma_max) samples along the budget line, clipped to >= 0.

    Empty region (budget <= 0) gives a (0, 2) array, not an error.
    """
    if n_points < 2:
        raise ValueError("need at least 2 boundary points")
    budget = exponent_budget(query)
    if budget <= 0:
        return np.empty((0, 2))
    betas = [budget * i / (n_points - 1) for i in range(n_points)]
    return np.array(
        [[float(b), float(gamma_ceiling(query, b))] for b in betas]
    )


@dataclass(frozen=True)
class ParameterSelection:
    """Midpoint pick of the proof-recipe exponents (exact rationals)."""

    sigma: Fraction
    delta: Fraction
    sigma_interval: tuple
    delta_interval: tuple
    beta: Fraction
    gamma: Fraction
    theorem: str


def _interval_midpoint(lo: Fraction, hi: Fraction, what: str) -> Fraction:
    if not lo < hi:
        raise RuntimeError(
            f"internal inconsistency: empty {what} interval ({lo}, {hi}) "
            "for an admissible query"
        )
    return (lo + hi) / 2


def _derived_integrability(query: RegularityQuery) -> Fraction:
    """The integrability p the query's statement works in."""
    inv = _inverse_integrability(query)
    if inv <= 0:
        raise ValueError("theta too large for the derived integrability")
    return 1 / inv


def select_sigma_delta(query: RegularityQuery, beta: Rational,
                       gamma: Rational) -> ParameterSelection:
    """Midpoints of the open (sigma, delta) windows behind the estimate.

    sigma is picked first, then delta given sigma.  Every selection
    satisfies beta + delta + sigma + 1/q < 1/2.
    """
    if not admissible(query, beta, gamma):
        raise ValueError("(beta, gamma) is not admissible for this query")
    if query.theorem == "remark33":
        raise ValueError(
            "parameter selection is defined for the prop32, colored and "
            "fractional settings only"
        )
    b, g = _frac(beta), _frac(gamma)
    d, q = Fraction(query.d), _frac(query.q)
    half = Fraction(1, 2)
    a, p = _slope(query), _derived_integrability(query)
    sig_lo = d / (a * p)
    sig_hi = half - (d / p + g) / a - 1 / q - b
    sigma = _interval_midpoint(sig_lo, sig_hi, "sigma")
    del_lo = (d / p + g) / a
    del_hi = half - 1 / q - b - sigma
    delta = _interval_midpoint(del_lo, del_hi, "delta")
    if not b + delta + sigma + 1 / q < half:
        raise RuntimeError("internal inconsistency: selection broke the budget")
    return ParameterSelection(
        sigma=sigma,
        delta=delta,
        sigma_interval=(sig_lo, sig_hi),
        delta_interval=(del_lo, del_hi),
        beta=b,
        gamma=g,
        theorem=query.theorem,
    )


# ----- exponent estimation ----------------------------------------------------


@dataclass(frozen=True)
class ExponentEstimate:
    """Fitted Hölder exponent; exactly one of beta_hat/gamma_hat is set.

    ``lags`` (L,) are the fit's physical lags and ``profiles`` (replicas, L)
    the per-replica max-increment profiles it fitted.
    """

    beta_hat: Optional[float]
    gamma_hat: Optional[float]
    per_replica: np.ndarray = field(repr=False)
    lags: np.ndarray = field(repr=False)
    profiles: np.ndarray = field(repr=False)
    fit_r2: float = 0.0
    kind: str = "temporal"

    @property
    def value(self) -> float:
        return self.beta_hat if self.beta_hat is not None else self.gamma_hat

    @property
    def lag_range(self) -> tuple:
        return float(self.lags[0]), float(self.lags[-1])


def _kept_lags(n_samples: int) -> list:
    top = int(math.floor(math.log2(n_samples - 1)))
    lags = [1 << j for j in range(top + 1)]
    kept = lags[DROP_LOW: len(lags) - DROP_HIGH]
    if len(kept) < 2:
        raise ValueError(
            f"{n_samples} samples give {len(lags)} dyadic levels; "
            f"at least {DROP_LOW + DROP_HIGH + 2} are needed"
        )
    return kept


def _line_aligned(shape: tuple, dtype) -> np.ndarray:
    """An empty array whose data starts on a 64-byte cache line.

    Where malloc places a buffer depends on what the process allocated
    before; a scratch array starting 16 bytes into a line made the slab
    loop of ``_max_increments`` 30-50% slower.
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    raw = np.empty(size + 64 // dtype.itemsize, dtype=dtype)
    skip = (-raw.ctypes.data % 64) // dtype.itemsize
    return raw[skip:skip + size].reshape(shape)


def _max_increments(series: np.ndarray, lags: Sequence[int]) -> np.ndarray:
    """M(lag) = max over start (and any trailing axes) of |x(.+lag) - x(.)|.

    Trailing axes are flattened and walked in column slabs of about
    ``_SLAB_BYTES``, and at least ``_SLAB_COLUMNS`` wide, so a tall series
    takes narrow slabs and a short one wide slabs: each slab is copied once
    into a small scratch array and every lag is taken on it while it is in
    cache.  Working memory stays at two slabs whatever the series size,
    so no call makes a series-sized temporary.  A max is exact and does
    not depend on the order of the slabs, so slabbing does not change a
    bit.
    """
    n = len(series)
    flat = series.reshape(n, -1)
    fit = _SLAB_BYTES // (n * series.dtype.itemsize)
    width = min(flat.shape[1], max(_SLAB_COLUMNS, fit))
    slab = _line_aligned((n, width), series.dtype)
    diff = _line_aligned((n - min(lags), width), series.dtype)
    starts = range(0, flat.shape[1], width)
    out = np.empty((len(starts), len(lags)))
    for b, j in enumerate(starts):
        w = min(width, flat.shape[1] - j)
        cols = slab[:, :w]
        np.copyto(cols, flat[:, j:j + w])
        for i, lag in enumerate(lags):
            d = np.subtract(cols[lag:], cols[:-lag], out=diff[: n - lag, :w])
            out[b, i] = np.abs(d, out=d).max()
    return out.max(axis=0)


def _fit_loglog(lags_phys: np.ndarray, profile: np.ndarray):
    """Least-squares slope of log M vs log h; returns (slope, r2) or None."""
    if np.any(profile <= 0.0) or not np.all(np.isfinite(profile)):
        return None
    x = np.log(lags_phys)
    y = np.log(profile)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 if total == 0.0 else 1.0 - float(np.sum(resid**2)) / float(total)
    return float(slope), min(max(r2, 0.0), 1.0)


def _refuse_short_record(times=_MIN_TIMES, per_axis=_MIN_SAMPLES) -> None:
    """Refuse a record below the fits' floors of times or points per axis."""
    for count, floor, what in ((times, _MIN_TIMES, "times"), (
            per_axis, _MIN_SAMPLES, "points per spatial axis")):
        if count < floor:
            raise ValueError(f"need at least {floor} recorded {what}, the "
                             f"record has {count}")


def _selection(record, point_index=None, times=None, what: str = ""):
    """(point_index, times as an int array) of a fit on ``record``, (recorded
    times, recorded points): by default the middle point and 32 times spread
    over the upper half, as a number of times is.  Refuses, naming each key
    after ``what``, a selection of no time and a point or time that is not
    an integer index into the record, checked as given, before any cast."""
    n_times, n_points = record
    point_index = n_points // 2 if point_index is None else point_index
    times = 32 if times is None else times
    if np.ndim(times) == 0:
        if isinstance(times, bool) or not isinstance(
                times, (int, np.integer)) or times < 1:
            raise ValueError(f"{what}times {times!r}: selects no time; a "
                             "count of times must be a positive integer")
        times = np.unique(np.linspace(n_times // 2, n_times - 1,
                                      int(times)).astype(int))
    elif len(times) == 0:
        raise ValueError(f"{what}times []: selects no time")
    for key, given, size in (("point_index", point_index, n_points),
                             ("times", times, n_times)):
        bad = [i for i in np.atleast_1d(given).tolist()
               if type(i) is not int or not 0 <= i < size]
        if bad:
            raise ValueError(f"{what}{key} {bad}: not an index into "
                             f"[0, {size})")
    return point_index, np.asarray(times, dtype=int)


def _increment_profiles(ens: TrajectoryEnsemble, axis: str,
                        point_index: Optional[int] = None, times=None,
                        workers: Optional[int] = None):
    """Each replica's dyadic max-increment profile, with the physical lags.

    ``axis="time"``: increments in time at the recorded point
    ``point_index``, or pooled over all recorded points when it is None.
    ``axis="space"``: increments along the first recorded axis (the other
    axes held at their midpoints), pooled over the recorded time indices
    ``times``.  Lags are the dyadic levels ``_kept_lags`` keeps.  The
    replicas are mapped on ``workers`` threads (default: one per CPU); a
    max is exact, so the profiles do not depend on the worker count.
    Returns (lags (L,) in time or space units, profiles (replicas, L)).
    The callers check the indices and the record's floors.
    """
    if axis == "time":
        step = _uniform_step(ens.time_grid, "recorded time grid")
        kept = _kept_lags(ens.values.shape[1])
        series = (ens.values[r] if point_index is None
                  else ens.values[r, :, point_index]
                  for r in range(ens.replicas))
    else:
        shape = tuple(ens.space_shape)
        kept = _kept_lags(shape[0])
        pts = ens.space_points.reshape(shape + (len(shape),))
        step = _uniform_step(pts[(slice(None),) + (0,) * len(shape)],
                             "recorded spatial axis")
        line = ens.values.reshape(ens.values.shape[:2] + shape)
        for _ in shape[1:]:
            line = line[..., line.shape[-1] // 2]
        # (S_axis0, n_times) per replica: lags run down axis 0
        series = (line[r][times].T for r in range(ens.replicas))
    profiles = np.array(map_threads(lambda x: _max_increments(x, kept),
                                    series, workers))
    return np.asarray(kept, dtype=float) * step, profiles


def _fit_profiles(lags: np.ndarray, profiles: np.ndarray,
                  kind: str) -> ExponentEstimate:
    """Fit each replica's profile, exclude degenerate ones, clip the
    slopes to [0, EXPONENT_CAP] and take the median over replicas."""
    per_replica = np.full(len(profiles), np.nan)
    r2s = []
    for r, profile in enumerate(profiles):
        fit = _fit_loglog(lags, profile)
        if fit is not None:
            per_replica[r] = min(max(fit[0], 0.0), EXPONENT_CAP)
            r2s.append(fit[1])
    if len(r2s) < len(profiles):
        warnings.warn(f"excluded {len(profiles) - len(r2s)} degenerate (flat "
                      f"or zero) path(s) from the {kind} exponent fit",
                      RuntimeWarning)
    if not r2s:
        raise ValueError(f"all paths degenerate; cannot estimate {kind} exponent")
    value = float(np.median(per_replica[np.isfinite(per_replica)]))
    return ExponentEstimate(
        beta_hat=value if kind == "temporal" else None,
        gamma_hat=value if kind == "spatial" else None,
        per_replica=per_replica, lags=lags, profiles=profiles,
        fit_r2=float(np.median(r2s)), kind=kind)


def estimate_temporal_exponent(
    ens: TrajectoryEnsemble,
    mode: str = "pointwise",
    point_index: Optional[int] = None,
    workers: Optional[int] = None,
) -> ExponentEstimate:
    """Dyadic max-increment fit of the time Hölder exponent.

    ``pointwise`` watches a single recorded spatial point (the middle one
    unless ``point_index`` says otherwise); ``sup-space`` takes the sup
    over all recorded points inside each increment, and refuses a
    ``point_index``.  ``workers`` threads take the replicas' profiles
    (default: one per CPU).
    """
    if mode not in ("pointwise", "sup-space"):
        raise ValueError(f"unknown mode {mode!r}")
    _refuse_short_record(times=ens.values.shape[1])
    if mode == "pointwise":
        point_index = _selection(ens.values.shape[1:], point_index)[0]
    elif point_index is not None:
        raise ValueError("sup-space reads no point_index; drop it")
    lags, profiles = _increment_profiles(ens, "time", point_index=point_index,
                                         workers=workers)
    return _fit_profiles(lags, profiles, "temporal")


def estimate_spatial_exponent(
    ens: TrajectoryEnsemble, times=None, workers: Optional[int] = None
) -> ExponentEstimate:
    """Dyadic max-increment fit of the space Hölder exponent.

    ``times`` selects recorded time indices, or counts times spread over
    the upper half of the horizon, where the law is closest to stationary
    (default: 32 of them); a selection of no time is refused, and so is
    one whose every section is zero, such as a simulated ensemble's time 0
    (u(0) = 0).  Each replica contributes a single fit: the max-increment
    statistic pools every selected time section, mirroring how the
    sup-space temporal mode pools recorded points, and the estimate is the
    median over replicas.  Pooling keeps the extreme-value sample count
    roughly flat across lags, which per-section fits do not.  ``workers``
    threads take the replicas' profiles (default: one per CPU).
    """
    times = _selection(ens.values.shape[1:], times=times)[1]
    _refuse_short_record(per_axis=ens.space_shape[0])
    if not any(ens.values[:, t].any() for t in times):
        raise ValueError(f"times {times.tolist()}: every selected section "
                         "is zero, so a spatial fit there is degenerate")
    lags, profiles = _increment_profiles(ens, "space", times=times,
                                         workers=workers)
    return _fit_profiles(lags, profiles, "spatial")


# ----- confrontation ----------------------------------------------------------


@dataclass(frozen=True)
class RegionVerdict:
    """Grid confrontation of an admissible region with fitted exponents."""

    passed: bool
    vacuous: bool
    tolerance: float
    beta_hat: Optional[float]
    gamma_hat: Optional[float]
    vertices: np.ndarray = field(repr=False)   # (n, 2) beta, gamma
    margins: np.ndarray = field(repr=False)    # (n, 2) slack per exponent
    failures: np.ndarray = field(repr=False)   # vertex indices that fail
    note: str = ""
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "vacuous": bool(self.vacuous),
            "tolerance": self.tolerance,
            "beta_hat": self.beta_hat,
            "gamma_hat": self.gamma_hat,
            "vertices": np.asarray(self.vertices).tolist(),
            "margins": np.asarray(self.margins).tolist(),
            "failures": np.asarray(self.failures).tolist(),
            "note": self.note,
            "diagnostics": self.diagnostics,
        }


def _check_provenance(provenance: Optional[dict],
                      query: RegularityQuery) -> None:
    """Refuse a query whose dimension, or fractional drift exponent, is not
    the one that ``provenance`` (an ensemble's, or a plan's) records."""
    prov = provenance or {}
    d = prov.get("dimension")
    if d is not None and d != query.d:
        raise ValueError(f"simulation is {d}-dimensional, query says "
                         f"d={query.d}")
    if query.theorem == "fractional":
        a = prov.get("alpha")
        if a is not None and abs(a - float(_frac(query.alpha))) > 1e-12:
            raise ValueError(
                f"simulation drift has alpha={a}, query says {query.alpha}")


def verify_region(ens: TrajectoryEnsemble,
                  query: RegularityQuery) -> RegionVerdict:
    """PASS iff every vertex of a grid over the admissible region sits
    below the fitted exponents plus ``VERIFY_TOLERANCE``.

    The structural provenance of the ensemble (dimension, drift exponent)
    must match the query; the smoothing parameters are the theory side
    being confronted, so they are not checked.
    """
    _check_provenance(ens.provenance, query)
    fits = (None, None)
    if exponent_budget(query) > 0:
        fits = (estimate_temporal_exponent(ens, mode="sup-space"),
                estimate_spatial_exponent(ens))
    return _confront_region(query, *fits)


def _confront_region(query: RegularityQuery,
                     t_est: Optional[ExponentEstimate],
                     s_est: Optional[ExponentEstimate]) -> RegionVerdict:
    """The grid, margins and verdict of ``verify_region`` from a sup-space
    temporal fit and a spatial fit; both may be None for an empty region
    (budget <= 0), whose verdict is vacuous."""
    budget = exponent_budget(query)
    if budget <= 0:
        return RegionVerdict(
            passed=True,
            vacuous=True,
            tolerance=VERIFY_TOLERANCE,
            beta_hat=None,
            gamma_hat=None,
            vertices=np.empty((0, 2)),
            margins=np.empty((0, 2)),
            failures=np.empty(0, dtype=int),
            note="empty region: budget <= 0, nothing to verify",
        )
    beta_hat, gamma_hat = t_est.beta_hat, s_est.gamma_hat
    verts = []
    for i in range(_VERIFY_GRID):
        b = budget * i / (_VERIFY_GRID - 1)
        ceil = gamma_ceiling(query, b)
        for j in range(_VERIFY_GRID):
            verts.append((float(b), float(ceil * j / (_VERIFY_GRID - 1))))
    vertices = np.array(verts)
    margins = np.array([beta_hat, gamma_hat]) + VERIFY_TOLERANCE - vertices
    failures = np.nonzero((margins < 0).any(axis=1))[0]
    return RegionVerdict(
        passed=failures.size == 0,
        vacuous=False,
        tolerance=VERIFY_TOLERANCE,
        beta_hat=beta_hat,
        gamma_hat=gamma_hat,
        vertices=vertices,
        margins=margins,
        failures=failures,
        note="",
        diagnostics={
            "beta_fit_r2": t_est.fit_r2,
            "gamma_fit_r2": s_est.fit_r2,
            "beta_lag_range": list(t_est.lag_range),
            "gamma_lag_range": list(s_est.lag_range),
        },
    )


def _confront_sweep(fits: dict, mode: str, slack: float) -> dict:
    """The alpha-sweep verdict of ``{alpha: {mode: estimate}}``: in ascending
    alpha, no ``mode`` beta_hat falls more than ``slack`` below the last."""
    slack, ascending = float(slack), sorted(fits)
    betas = [fits[a][mode].value for a in ascending]
    steps_ok = [betas[i + 1] >= betas[i] - slack
                for i in range(len(betas) - 1)]
    return {"kind": "alpha-sweep", "alphas": [float(a) for a in ascending],
            "beta_hats": betas, "temporal_mode": mode, "slack": slack,
            "steps_ok": steps_ok, "passed": bool(all(steps_ok))}
