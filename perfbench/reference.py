"""Reference computations that share no code with the paths they check.

``reduced_fidelity`` integrates the reduced two-level model with
``scipy.integrate.solve_ivp`` (DOP853, tight tolerances), with the
Hamiltonian written out here from the schedule's channels and the
closed-form Morse energies.  ``fd_abs_G`` finds the two lowest Morse
eigenvectors by finite differences and sums the boosted overlap |G| on
the grid, with Richardson extrapolation over two grid spacings.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.linalg


def morse_energy(depth_A, n):
    """E_n = -(eta - n - 1/2)^2 / 2 with eta = sqrt(2 A)."""
    return -0.5 * (math.sqrt(2.0 * depth_A) - n - 0.5) ** 2


def level_splitting(depth_A, n=0, l=1):
    return morse_energy(depth_A, l) - morse_energy(depth_A, n)


def reduced_fidelity(depth_A, raman, coupling, fn_a, fn_b, t_f, zeeman_scale=1.0,
                     g=(0.0, 0.0, 0.0, 0.0), n=0, l=1):
    """Final population of |l, down> from |n, up> under

        H = [[Z/2 + g11 p1 + g12 p2, V], [V*, -Z/2 + g21 p1 + g22 p2]],
        Z = E_n - E_l + scale * b(t),  V = a(t) * coupling * (1/2 if Raman else 1).
    """
    split = morse_energy(depth_A, n) - morse_energy(depth_A, l)
    half = 0.5 if raman else 1.0
    g11, g22, g12, g21 = g

    def rhs(t, y):
        c1 = complex(y[0], y[1])
        c2 = complex(y[2], y[3])
        z = split + zeeman_scale * float(fn_b(t))
        v = half * float(fn_a(t)) * coupling
        p1 = abs(c1) ** 2
        p2 = abs(c2) ** 2
        d1 = -1j * ((0.5 * z + g11 * p1 + g12 * p2) * c1 + v * c2)
        d2 = -1j * (v.conjugate() * c1 + (-0.5 * z + g21 * p1 + g22 * p2) * c2)
        return [d1.real, d1.imag, d2.real, d2.imag]

    sol = scipy.integrate.solve_ivp(rhs, (0.0, t_f), [1.0, 0.0, 0.0, 0.0],
                                    method="DOP853", rtol=1e-11, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    y = sol.y[:, -1]
    return float(y[2] ** 2 + y[3] ** 2)


def _fd_abs_G(depth_A, alpha, points, x_min=-5.0, x_max=35.0):
    x = np.linspace(x_min, x_max, points)
    h = x[1] - x[0]
    u = depth_A * (np.exp(-2.0 * x) - 2.0 * np.exp(-x))
    diag = 1.0 / h**2 + u
    off = np.full(points - 1, -0.5 / h**2)
    _, vecs = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
    psi = vecs / np.sqrt(np.sum(vecs**2, axis=0) * h)
    return abs(np.sum(psi[:, 0] * np.exp(2j * alpha * x) * psi[:, 1]) * h)


def fd_abs_G(depth_A, alpha):
    """|<0| exp(2 i alpha x) |1>| by second-order finite differences,
    extrapolated to zero spacing from 4001 and 8001 points."""
    coarse = _fd_abs_G(depth_A, alpha, 4001)
    fine = _fd_abs_G(depth_A, alpha, 8001)
    return (4.0 * fine - coarse) / 3.0
