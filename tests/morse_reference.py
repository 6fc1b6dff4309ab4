"""Quadrature oracle for the closed-form Morse matrix elements.

The library computes G, K, Q and the coordinate moments from Gamma-function
sums and Gauss-Laguerre rules.  This module computes the same integrals the
direct way: the eigenfunctions (and the derivative of the right-hand state,
for K) are integrated on the real line by ``numerics.integrate``, the
adaptive quadrature, over a window sized from the states' decay rates.
"""

import math

import numpy as np

from socmorse.morse import characteristic_length, eigenfunction
from socmorse.numerics import QuadratureSpec, integrate, laguerre, log_gamma


def eigenfunction_derivative(state, spec):
    """d/dx of :func:`socmorse.morse.eigenfunction`, via the chain rule through z.

    d/dx = -z d/dz, and (L_n^a)'(z) = -L_{n-1}^{a+1}(z), so the derivative
    shares the eigenfunction's stable log-space envelope.
    """
    eta = spec.eta
    xi = state.xi
    n = state.n
    log_pref = 0.5 * (log_gamma(n + 1.0) + math.log(2.0 * xi) - log_gamma(2.0 * eta - n))

    def dpsi(x):
        x = np.asarray(x, dtype=float)
        z = 2.0 * eta * np.exp(-x)
        with np.errstate(divide="ignore"):
            envelope = np.exp(log_pref + xi * np.log(z) - 0.5 * z)
        ln = laguerre(n, 2.0 * xi, z)
        lprime = -laguerre(n - 1, 2.0 * xi + 1.0, z) if n >= 1 else np.zeros_like(z)
        val = envelope * ((0.5 * z - xi) * ln - z * lprime)
        return val if val.ndim else float(val)

    return dpsi


def quadrature_window(spec, *states):
    """Integration window wide enough for products of the given states.

    The left wall kills the integrand super-exponentially; on the right a
    product of states decays like exp(-(sum of xi) x), so the upper edge
    scales with the slowest pair.  Breakpoints near the trap bottom keep
    the adaptive rule from overlooking narrow ground states in deep traps.
    """
    rate = sum(s.xi for s in states) if states else 2.0 * spec.bound_state(0).xi
    upper = max(30.0, 35.0 / rate)
    lc = characteristic_length(spec)
    points = (-lc, 0.0, lc, 3.0 * lc)
    return -5.0, upper, points


def _integrate(f, spec, states, tolerance):
    lo, hi, pts = quadrature_window(spec, *states)
    q = QuadratureSpec(lo, hi, tolerance=tolerance, max_subdivisions=400, breakpoints=pts)
    return integrate(f, q)


def quadrature_elements(n, l, alpha, spec, tolerance=1e-11):
    """G, K, M_coupling, Q(n, l) and <n|x|n> by adaptive quadrature."""
    sn, sl = spec.bound_state(n), spec.bound_state(l)
    un, ul = eigenfunction(sn, spec), eigenfunction(sl, spec)
    dul = eigenfunction_derivative(sl, spec)
    g = _integrate(lambda x: un(x) * np.exp(2j * alpha * x) * ul(x), spec, (sn, sl), tolerance)
    # momentum operator is -i d/dx, applied to the right-hand state
    k = -1j * _integrate(lambda x: un(x) * np.exp(2j * alpha * x) * dul(x),
                         spec, (sn, sl), tolerance)
    q = _integrate(lambda x: un(x) ** 2 * ul(x) ** 2, spec, (sn, sn, sl, sl), tolerance).real
    x_n = _integrate(lambda x: x * un(x) ** 2, spec, (sn, sn), tolerance).real
    return {"G": g, "K": k, "M_coupling": alpha * alpha * g + alpha * k, "Q": q, "x_n": x_n}
