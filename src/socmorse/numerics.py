"""Shared numerical primitives: special functions, quadrature, the exact
2x2 exponential, and the one CSV writer behind every artifact.

Everything here is a pure function of its inputs; the specs are frozen
dataclasses, so values can be shared freely between threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from .errors import AccuracyError, DomainError

__all__ = [
    "QuadratureSpec",
    "OdeSettings",
    "log_gamma",
    "laguerre",
    "integrate",
    "su2_exp",
    "write_csv",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Interval and accuracy request for :func:`integrate`.

    ``breakpoints`` are optional interior abscissae where the integrand has
    localized structure (narrow peaks); they seed the adaptive subdivision
    so it cannot overlook features much narrower than the interval.
    """

    lower: float
    upper: float
    tolerance: float = 1e-10
    max_subdivisions: int = 200
    breakpoints: tuple = ()

    def __post_init__(self):
        if not self.lower < self.upper:
            raise DomainError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if not self.tolerance > 0:
            raise DomainError("tolerance must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class OdeSettings:
    """Step of the fixed-step fourth-order Runge-Kutta integrator that
    propagates the reduced two-level model."""

    step: float = 1e-3

    def __post_init__(self):
        if not self.step > 0:
            raise DomainError("step must be positive")


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def laguerre(n, a, z):
    """Generalized Laguerre polynomial L_n^a(z) by upward recurrence.

    Vectorized over ``z``; returns a scalar for scalar input.  The upward
    three-term recurrence is stable for the small orders used here.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"order must be a nonnegative integer, got {n}")
    n = int(n)
    z_arr = np.asarray(z, dtype=float)
    prev = np.ones_like(z_arr)
    if n == 0:
        return prev if z_arr.ndim else float(prev)
    cur = 1.0 + a - z_arr
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + a - z_arr) * cur - (k + a) * prev) / (k + 1)
    return cur if z_arr.ndim else float(cur)


def integrate(f, quad: QuadratureSpec) -> complex:
    """Adaptive quadrature of a complex-valued integrand on a finite interval.

    Returns an estimate whose estimated absolute error is below
    ``quad.tolerance``; raises :class:`AccuracyError` (carrying the best
    estimate) when the subdivision budget is exhausted first.
    """
    points = sorted(p for p in quad.breakpoints if quad.lower < p < quad.upper)

    def run_part(g):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", scipy.integrate.IntegrationWarning)
            val, err = scipy.integrate.quad(
                g,
                quad.lower,
                quad.upper,
                epsabs=0.5 * quad.tolerance,
                epsrel=1e-12,
                limit=quad.max_subdivisions,
                points=points or None,
            )
        bad = [w for w in caught if issubclass(w.category, scipy.integrate.IntegrationWarning)]
        return val, err, bad

    re_val, re_err, re_bad = run_part(lambda x: np.real(f(x)))
    im_val, im_err, im_bad = run_part(lambda x: np.imag(f(x)))
    estimate = complex(re_val, im_val)
    error = re_err + im_err
    if re_bad or im_bad or error > quad.tolerance:
        raise AccuracyError(
            f"quadrature did not converge to {quad.tolerance:g} "
            f"(estimated error {error:g})",
            best_estimate=estimate,
            error_estimate=error,
        )
    return estimate


def su2_exp(dz, w, tau):
    """Entries (u11, u12, u21, u22) of exp(-i tau [[dz, w], [conj(w), -dz]]).

    Exact for any real ``dz`` and real or complex ``w``, elementwise over
    broadcastable arrays: cos(tau r) - i sin(tau r)/r times the matrix,
    with r = hypot(dz, |w|).
    """
    r = np.hypot(dz, np.abs(w))
    cos_r = np.cos(tau * r)
    sinc_r = np.where(r > 0.0, np.sin(tau * r) / np.where(r > 0.0, r, 1.0), tau)
    return (cos_r - 1j * sinc_r * dz, -1j * sinc_r * w,
            -1j * sinc_r * np.conj(w), cos_r + 1j * sinc_r * dz)


def write_csv(path, header, columns):
    """Write equal-length columns under ``header``: 12 significant digits,
    LF line endings, so identical inputs give byte-identical files."""
    columns = [np.asarray(c).tolist() for c in columns]
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(str(path), "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in zip(*columns))
    return str(path)
