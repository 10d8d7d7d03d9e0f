"""Fractional powers of the diagonalised generator, by two routes.

``frac_power_eigen`` is the exact spectral functional calculus: it applies
lambda_k^z (principal branch) to the projected coefficients and is the
reference route whenever an eigendecomposition is in hand.

``frac_power_quadrature`` (inverse powers) and ``balakrishnan_forward``
(forward powers) instead evaluate the classical resolvent-integral
representations

    A^(-z) x = sin(pi z)/pi      * int_0^inf t^(-z) (t I + A)^(-1) x dt
    A^z    x = sin(pi z)/(pi z)  * int_0^inf t^z    (t I + A)^(-2) A x dt

for Re z in (0, 1).  The integrals are computed after the substitution
t = e^s on the window [-WINDOW, WINDOW] with one composite
Gauss-Legendre rule of ``NODES`` nodes.  The integrand
tails decay like e^(-(1-Re z)|s|) and e^(-Re z s), which is far too slow
for tight tolerances on this window, so the two tails are added back
analytically: outside the window the resolvent admits a geometric
expansion in e^s/lambda (left) and lambda e^(-s) (right), and the first
few terms integrate in closed form.  With ``NODES`` = 400 and ``WINDOW`` =
30 the combined truncation + quadrature error is far below 1e-8 for
spectra inside [1e-3, 1e6]; a spectrum whose tail expansions would not
converge is refused.
"""

from __future__ import annotations

import numpy as np

from .spectral import EigenSystem, project, synthesize, _principal_power, \
    _realify

__all__ = [
    "frac_power_eigen",
    "frac_power_quadrature",
    "balakrishnan_forward",
]

#: Gauss-Legendre nodes of the rule (panels of 10)
NODES = 400
#: half-width of the log-substituted window [-WINDOW, WINDOW]
WINDOW = 30.0
#: terms of the geometric expansion added back for each integrand tail
TAIL_TERMS = 8


def _real_result(out: np.ndarray, values, z: complex) -> np.ndarray:
    """The realness rule of both routes: real ``values`` under a real
    exponent give a real result, whose imaginary residue must stay within
    IMAG_TOL; anything else is returned as computed."""
    if not np.iscomplexobj(values) and complex(z).imag == 0.0:
        return _realify(out)
    return out


def frac_power_eigen(system: EigenSystem, z: complex, values: np.ndarray) -> np.ndarray:
    """A^z acting on the resolved modes via the exact functional calculus:
    project, scale mode k by lambda_k^z, synthesise."""
    factors = _principal_power(system.eigenvalues, z)
    return _real_result(synthesize(system, project(system, values) * factors),
                        values, z)


def _panels():
    per = 10
    n_panels = NODES // per
    x, w = np.polynomial.legendre.leggauss(per)
    edges = np.linspace(-WINDOW, WINDOW, n_panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    s = (mids[:, None] + half * x[None, :]).ravel()
    wt = np.tile(half * w, n_panels)
    return s, wt


def _check_envelope(lam: np.ndarray):
    lo_ratio = np.abs(np.exp(-WINDOW) / lam).max()
    hi_ratio = np.abs(lam * np.exp(-WINDOW)).max()
    if lo_ratio >= 0.5 or hi_ratio >= 0.5:
        raise ValueError(
            "spectrum outside the envelope supported by the quadrature "
            f"window (tail ratios {lo_ratio:.2e}, {hi_ratio:.2e})"
        )


def _inverse_power_factors(lam: np.ndarray, z: complex) -> np.ndarray:
    """sin(pi z)/pi * int t^-z (t+lam)^-1 dt, per eigenvalue."""
    s, w = _panels()
    es = np.exp(s)
    window = (w * np.exp((1.0 - z) * s)) @ (1.0 / (es[:, None] + lam[None, :]))

    j = np.arange(TAIL_TERMS)[:, None]
    lo = np.sum(
        (-1.0) ** j * lam[None, :] ** (-(j + 1))
        * np.exp(-WINDOW * (1.0 - z + j)) / (1.0 - z + j),
        axis=0,
    )
    hi = np.sum(
        (-lam[None, :]) ** j * np.exp(-WINDOW * (z + j)) / (z + j),
        axis=0,
    )
    return np.sin(np.pi * z) / np.pi * (window + lo + hi)


def _forward_power_factors(lam: np.ndarray, z: complex) -> np.ndarray:
    """sin(pi z)/(pi z) * int t^z lam (t+lam)^-2 dt, per eigenvalue."""
    s, w = _panels()
    es = np.exp(s)
    window = (w * np.exp((1.0 + z) * s)) @ (
        lam[None, :] / (es[:, None] + lam[None, :]) ** 2
    )

    j = np.arange(TAIL_TERMS)[:, None]
    lo = np.sum(
        (j + 1) * (-1.0) ** j * lam[None, :] ** (-(j + 1))
        * np.exp(-WINDOW * (1.0 + z + j)) / (1.0 + z + j),
        axis=0,
    )
    hi = np.sum(
        (j + 1) * (-lam[None, :]) ** j * lam[None, :]
        * np.exp(-WINDOW * (1.0 - z + j)) / (1.0 - z + j),
        axis=0,
    )
    return np.sin(np.pi * z) / (np.pi * z) * (window + lo + hi)


def _quadrature_apply(system, z, values, factor_fn):
    z = complex(z)
    if not (0.0 < z.real < 1.0):
        raise ValueError(f"resolvent-integral route needs Re z in (0,1), got {z}")
    lam = np.asarray(system.eigenvalues)
    _check_envelope(lam)
    factors = factor_fn(lam, z)
    return _real_result(synthesize(system, project(system, values) * factors),
                        values, z)


def frac_power_quadrature(system: EigenSystem, z: complex,
                          values: np.ndarray) -> np.ndarray:
    """A^(-z) x via the resolvent integral on the ``NODES``-node rule,
    Re z in (0,1)."""
    return _quadrature_apply(system, z, values, _inverse_power_factors)


def balakrishnan_forward(system: EigenSystem, z: complex,
                         values: np.ndarray) -> np.ndarray:
    """A^z x via the forward resolvent-squared integral on the
    ``NODES``-node rule, Re z in (0,1)."""
    return _quadrature_apply(system, z, values, _forward_power_factors)
