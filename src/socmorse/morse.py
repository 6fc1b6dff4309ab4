"""Analytic bound-state structure of the exponential (Morse-type) trap.

Dimensionless units throughout: the inverse range of the trap sets the
length unit and the trap mass sets hbar = M = 1, so the potential is
``U(x) = A (exp(-2x) - 2 exp(-x))`` with a single depth parameter ``A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import DomainError
from .numerics import QuadratureSpec, integrate, laguerre, log_gamma

__all__ = [
    "MorseSpec",
    "BoundState",
    "MatrixElements",
    "potential",
    "eigenfunction",
    "eigenfunction_derivative",
    "matrix_elements",
    "overlap_Q",
    "position_moment",
    "characteristic_length",
    "quadrature_window",
    "finite_difference_levels",
]


@dataclass(frozen=True)
class MorseSpec:
    """Trap depth and the derived bound-state bookkeeping."""

    depth_A: float

    def __post_init__(self):
        if not self.depth_A > 0:
            raise DomainError("trap depth must be positive")

    @property
    def eta(self) -> float:
        return math.sqrt(2.0 * self.depth_A)

    @property
    def bound_count(self) -> int:
        # states require eta - n - 1/2 > 0 strictly
        return max(0, math.ceil(self.eta - 0.5))

    def bound_state(self, n: int) -> "BoundState":
        if not 0 <= n < self.bound_count:
            raise DomainError(
                f"state n={n} not bound for depth A={self.depth_A} "
                f"(bound_count={self.bound_count})"
            )
        xi = self.eta - n - 0.5
        return BoundState(n=n, xi=xi, energy=-0.5 * xi * xi)

    def bound_states(self):
        return tuple(self.bound_state(n) for n in range(self.bound_count))


@dataclass(frozen=True)
class BoundState:
    """One bound level: quantum number, decay exponent, energy."""

    n: int
    xi: float
    energy: float


@dataclass(frozen=True)
class MatrixElements:
    """All reduced-basis matrix elements one transfer problem needs.

    ``G``  is the spin-flip overlap with the doubled momentum boost,
    ``K``  the same overlap with one momentum operator inserted,
    ``M_coupling = alpha^2 G + alpha K`` the net coupling when the
    spin-orbit field is tilted, and ``S = conj(G)`` the overlap entering
    the transverse polarization components.  ``phi_G``/``phi_M`` are the
    phases of G and M_coupling.
    """

    n: int
    l: int
    alpha: float
    G: complex
    K: complex
    M_coupling: complex
    S: complex
    phi_G: float
    phi_M: float
    x_diag_n: float
    x_diag_l: float


def potential(x, spec: MorseSpec):
    """Trap potential A (e^{-2x} - 2 e^{-x}); vectorized over x."""
    x = np.asarray(x, dtype=float)
    u = spec.depth_A * (np.exp(-2.0 * x) - 2.0 * np.exp(-x))
    return u if u.ndim else float(u)


def characteristic_length(spec: MorseSpec) -> float:
    """Oscillator length of the harmonic approximation at the trap bottom."""
    return spec.eta ** -0.5


def eigenfunction(state: BoundState, spec: MorseSpec):
    """Real normalized bound-state wavefunction as a vectorized callable.

    Uses the substitution z = 2 eta e^{-x}.  The prefactor is evaluated in
    log space because Gamma(2 eta - n) overflows quickly with depth; the
    resulting function is positive in its right-hand tail, which fixes the
    global sign convention.
    """
    eta = spec.eta
    xi = state.xi
    n = state.n
    log_pref = 0.5 * (log_gamma(n + 1.0) + math.log(2.0 * xi) - log_gamma(2.0 * eta - n))

    def psi(x):
        x = np.asarray(x, dtype=float)
        z = 2.0 * eta * np.exp(-x)
        with np.errstate(divide="ignore"):
            envelope = np.exp(log_pref + xi * np.log(z) - 0.5 * z)
        val = envelope * laguerre(n, 2.0 * xi, z)
        return val if val.ndim else float(val)

    return psi


def eigenfunction_derivative(state: BoundState, spec: MorseSpec):
    """d/dx of :func:`eigenfunction`, via the chain rule through z.

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


def quadrature_window(spec: MorseSpec, *states: BoundState):
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


@lru_cache(maxsize=256)
def overlap_Q(n: int, l: int, spec: MorseSpec) -> float:
    """Density-density overlap of two bound states (symmetric in n, l)."""
    sn, sl = spec.bound_state(n), spec.bound_state(l)
    un, ul = eigenfunction(sn, spec), eigenfunction(sl, spec)
    lo, hi, pts = quadrature_window(spec, sn, sn, sl, sl)
    q = QuadratureSpec(lo, hi, tolerance=1e-10, max_subdivisions=400, breakpoints=pts)
    return integrate(lambda x: un(x) ** 2 * ul(x) ** 2, q).real


def position_moment(n: int, spec: MorseSpec) -> float:
    """Diagonal coordinate expectation value of one bound state."""
    sn = spec.bound_state(n)
    un = eigenfunction(sn, spec)
    lo, hi, pts = quadrature_window(spec, sn, sn)
    q = QuadratureSpec(lo, hi, tolerance=1e-9, max_subdivisions=400, breakpoints=pts)
    return integrate(lambda x: x * un(x) ** 2, q).real


@lru_cache(maxsize=64)
def matrix_elements(n: int, l: int, alpha: float, spec: MorseSpec) -> MatrixElements:
    """Reduced-basis matrix elements for the (n, l) transfer at strength alpha.

    The real eigenfunctions make S (the reversed-boost overlap) the complex
    conjugate of G, so it is not integrated separately.
    """
    sn, sl = spec.bound_state(n), spec.bound_state(l)
    un = eigenfunction(sn, spec)
    ul = eigenfunction(sl, spec)
    dul = eigenfunction_derivative(sl, spec)
    lo, hi, pts = quadrature_window(spec, sn, sl)
    q = QuadratureSpec(lo, hi, tolerance=1e-10, max_subdivisions=400, breakpoints=pts)

    g = integrate(lambda x: un(x) * np.exp(2j * alpha * x) * ul(x), q)
    # momentum operator is -i d/dx, applied to the right-hand state
    k = -1j * integrate(lambda x: un(x) * np.exp(2j * alpha * x) * dul(x), q)
    m = alpha * alpha * g + alpha * k
    return MatrixElements(
        n=n,
        l=l,
        alpha=alpha,
        G=g,
        K=k,
        M_coupling=m,
        S=np.conj(g),
        phi_G=math.atan2(g.imag, g.real),
        phi_M=math.atan2(m.imag, m.real),
        x_diag_n=position_moment(n, spec),
        x_diag_l=position_moment(l, spec),
    )


def finite_difference_levels(
    spec: MorseSpec,
    count: int,
    x_min: float = -5.0,
    x_max: float = 25.0,
    points: int = 4096,
):
    """Lowest eigenvalues of the trap by banded finite differences.

    Independent verification route for the closed-form spectrum: a
    fourth-order five-point discretization of the kinetic term on a uniform
    grid with hard-wall boundaries, diagonalized directly.
    """
    if points < 512:
        raise DomainError("need at least 512 grid points")
    x = np.linspace(x_min, x_max, points)
    h = x[1] - x[0]
    u = potential(x, spec)
    bands = np.zeros((3, points))
    bands[0] = 1.25 / h**2 + u              # -1/2 * (-5/2)/h^2
    bands[1, :-1] = -(2.0 / 3.0) / h**2     # -1/2 * (4/3)/h^2
    bands[2, :-2] = (1.0 / 24.0) / h**2     # -1/2 * (-1/12)/h^2
    vals = scipy.linalg.eig_banded(
        bands, lower=True, eigvals_only=True, select="i", select_range=(0, count - 1)
    )
    return vals
