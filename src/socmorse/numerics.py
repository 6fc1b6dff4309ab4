"""Shared numerical primitives: special functions, quadrature, the exact
2x2 exponential, exp(i angle) by the half-angle tangent, and the one CSV and
one JSON writer behind every artifact.

Everything here is a pure function of its inputs; the specs are frozen
dataclasses, so values can be shared freely between threads.
"""

from __future__ import annotations

import itertools
import json
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
    "write_json",
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
        if not (self.step > 0 and math.isfinite(self.step)):
            raise DomainError("step must be finite and positive")


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


def _cis(angle, out=None, scratch=None):
    """exp(1j * angle) for a real array, from the half-angle tangent
    t = tan(angle/2) as ((1 - t^2) + 2it) / (1 + t^2).

    Without ``out`` the result is a new array and ``angle`` is left alone.
    With ``out`` it is written there and nothing of angle's size is
    allocated: ``angle`` is overwritten by t, and ``scratch`` (a float
    array of angle's shape) holds 2 / (1 + t^2); the values are the same
    bit for bit.  numpy's float64 tan is vectorised where cos and sin may
    not be: on one 256 x 1000 block of oracle angles (2-core Xeon, each
    call after a 0.16 ms copy of the angles) the in-place form took
    1.7-1.9 ms, against 2.5-2.8 ms for a cos and a sin into the same
    ``out`` and 4.3-4.8 ms without ``out``.  A double's tan is never
    infinite, so the form needs no guard."""
    if out is None:
        t = np.tan(0.5 * angle)
        r = t * t
    else:
        t = np.tan(np.multiply(angle, 0.5, out=angle), out=angle)
        r = np.multiply(t, t, out=scratch)
    r += 1.0
    np.divide(2.0, r, out=r)  # 2 / (1 + t^2)
    if out is None:
        out = np.empty(angle.shape, dtype=complex)
    np.subtract(r, 1.0, out=out.real)
    np.multiply(t, r, out=out.imag)
    return out


# Rows write_csv formats with one string operation.  On a 4096 x 3 table
# (2-core Xeon) blocks of 64 rows took 6.7 ms against 7.9 ms for one ``%``
# per row; blocks of 256 rows took 6.4 ms but raised the peak resident
# memory of a run of design points, which interleaves them with numpy
# temporaries, by 0.5-0.9 MiB.
_CSV_ROWS = 64


def write_csv(path, header, columns):
    """Write equal-length columns under ``header``: 12 significant digits,
    LF line endings, so identical inputs give byte-identical files.  Rows
    are formatted :data:`_CSV_ROWS` at a time, one ``%`` per block."""
    columns = [np.asarray(c).tolist() for c in columns]
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(str(path), "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, min(map(len, columns), default=0), _CSV_ROWS):
            cells = tuple(itertools.chain.from_iterable(
                zip(*(c[start:start + _CSV_ROWS] for c in columns))))
            fh.write(line * (len(cells) // len(columns)) % cells)
    return str(path)


def write_json(path, data):
    """Write ``data`` as indented JSON with sorted keys and a final LF."""
    with open(str(path), "w", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)
