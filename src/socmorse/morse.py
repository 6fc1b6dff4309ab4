"""Analytic bound-state structure of the exponential (Morse-type) trap.

Dimensionless units throughout: the inverse range of the trap sets the
length unit and the trap mass sets hbar = M = 1, so the potential is
``U(x) = A (exp(-2x) - 2 exp(-x))`` with a single depth parameter ``A``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.special import digamma, gammaln, loggamma, roots_genlaguerre

from .errors import DomainError
from .numerics import laguerre, log_gamma

__all__ = [
    "MorseSpec",
    "BoundState",
    "MatrixElements",
    "potential",
    "eigenfunction",
    "matrix_elements",
    "overlap_Q",
    "position_moment",
    "characteristic_length",
    "finite_difference_levels",
]

# Largest eta = sqrt(2 A): up to it the gap E_l - E_n ~ eta keeps about 12
# significant digits against the level energies ~ eta^2 / 2.
MAX_ETA = 1e4


@dataclass(frozen=True)
class MorseSpec:
    """Trap depth and the derived bound-state bookkeeping."""

    depth_A: float

    def __post_init__(self):
        if not (self.depth_A > 0 and self.eta <= MAX_ETA):
            raise DomainError(f"trap depth must be positive with eta = sqrt(2 A) at most "
                              f"{MAX_ETA:g}, got {self.depth_A}")

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
    ``K``  the same overlap with one momentum operator inserted, which
    follows from G (see :func:`matrix_elements`),
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
    log_pref = _log_norm(state, spec)

    def psi(x):
        x = np.asarray(x, dtype=float)
        z = 2.0 * eta * np.exp(-x)
        with np.errstate(divide="ignore"):
            envelope = np.exp(log_pref + xi * np.log(z) - 0.5 * z)
        val = envelope * laguerre(n, 2.0 * xi, z)
        return val if val.ndim else float(val)

    return psi


def _log_norm(state: BoundState, spec: MorseSpec) -> float:
    """ln N_n of psi_n = N_n z^xi e^{-z/2} L_n^{2 xi}(z), z = 2 eta e^{-x}.

    N_n^2 = n! 2 xi_n / Gamma(2 eta - n), kept in log space because the
    Gamma function overflows quickly with depth.
    """
    n = state.n
    return 0.5 * (log_gamma(n + 1.0) + math.log(2.0 * state.xi) - log_gamma(2.0 * spec.eta - n))


def _boost_moments(n: int, l: int, alpha: float, spec: MorseSpec):
    """<n|e^{2i alpha x}|l> and <n|x e^{2i alpha x}|l> in closed form.

    With z = 2 eta e^{-x}, e^{2i alpha x} = (2 eta)^{2i alpha} z^{-2i alpha}.
    Expanding L_n^{2 xi_n} in monomials c_j z^j, each monomial integrates
    against z^{s-1} e^{-z} L_l^b to Gamma(mu) P(mu) / l!, with mu = s + j,
    s = xi_n + xi_l - 2i alpha, b = 2 xi_l and the Pochhammer symbol
    P(mu) = (b + 1 - mu)_l, whose factors are n - l + 1 - j + k + 2i alpha.
    Since x = ln(2 eta) - ln z, the x moment takes the mu-derivative,
    Gamma(mu) [psi(mu) P(mu) + P'(mu)].  The lower level is the one
    expanded (conjugation swaps the pair): then for n < l every P carries
    the factor 2i alpha exactly, so G keeps its relative accuracy as
    alpha -> 0.
    """
    if n > l:
        g, x = _boost_moments(l, n, -alpha, spec)
        return g.conjugate(), x.conjugate()
    sn, sl = spec.bound_state(n), spec.bound_state(l)
    a = 2.0 * sn.xi
    ln_2eta = math.log(2.0 * spec.eta)
    j = np.arange(n + 1)
    log_c = (math.lgamma(n + a + 1.0) - gammaln(n - j + 1.0) - gammaln(a + j + 1.0)
             - gammaln(j + 1.0))
    mu = sn.xi + sl.xi - 2j * alpha + j
    log_pref = (_log_norm(sn, spec) + _log_norm(sl, spec) - math.lgamma(l + 1.0)
                + 2j * alpha * ln_2eta)
    terms = np.where(j % 2, -1.0, 1.0) * np.exp(log_pref + log_c + loggamma(mu))
    factors = (n - l + 1 + 2j * alpha) - j[:, None] + np.arange(l)
    poly = np.prod(factors, axis=1)
    dpoly = -sum(np.prod(np.delete(factors, k, axis=1), axis=1) for k in range(l))
    g = complex(np.sum(terms * poly))
    ln_z = complex(np.sum(terms * (digamma(mu) * poly + dpoly)))
    return g, ln_2eta * g - ln_z


@lru_cache(maxsize=256)
def overlap_Q(n: int, l: int, spec: MorseSpec) -> float:
    """Density-density overlap of two bound states (symmetric in n, l).

    In t = 2z the integrand is t^a e^{-t} times the polynomial
    (L_n L_l)^2 (t/2), a = 2 xi_n + 2 xi_l - 1, so generalized
    Gauss-Laguerre with n + l + 1 nodes is exact.  The weights are taken
    in log space: the ones scipy returns overflow once a > 170.
    """
    sn, sl = spec.bound_state(n), spec.bound_state(l)
    a = 2.0 * (sn.xi + sl.xi) - 1.0
    m = n + l + 1
    t, _ = roots_genlaguerre(m, a)
    log_w = (math.lgamma(m + a + 1.0) - math.lgamma(m + 1.0) - 2.0 * math.log(m + 1.0)
             + np.log(t) - 2.0 * np.log(np.abs(laguerre(m + 1, a, t))))
    log_pref = 2.0 * (_log_norm(sn, spec) + _log_norm(sl, spec)) - (a + 1.0) * math.log(2.0)
    poly = laguerre(n, 2.0 * sn.xi, 0.5 * t) * laguerre(l, 2.0 * sl.xi, 0.5 * t)
    return float(np.sum(np.exp(log_pref + log_w) * poly**2))


def position_moment(n: int, spec: MorseSpec) -> float:
    """Diagonal coordinate expectation value of one bound state."""
    return _boost_moments(n, n, 0.0, spec)[1].real


@lru_cache(maxsize=64)
def matrix_elements(n: int, l: int, alpha: float, spec: MorseSpec) -> MatrixElements:
    """Reduced-basis matrix elements for the (n, l) transfer at strength alpha.

    G is a closed-form Gamma-function sum, and K follows from it:
    [H0, e^{2i alpha x}] = e^{2i alpha x} (2 alpha k + 2 alpha^2) gives
    K = G (E_n - E_l - 2 alpha^2) / (2 alpha), and at alpha = 0,
    [H0, x] = -ik gives K = i (E_n - E_l) <n|x|l>.  The real
    eigenfunctions make S (the reversed-boost overlap) the complex
    conjugate of G.
    """
    if not math.isfinite(alpha):
        raise DomainError(f"spin-orbit strength alpha must be finite, got {alpha}")
    with np.errstate(over="ignore", invalid="ignore"):
        g, x_nl = _boost_moments(n, l, alpha, spec)
    gap = spec.bound_state(n).energy - spec.bound_state(l).energy
    k = g * (gap - 2.0 * alpha * alpha) / (2.0 * alpha) if alpha else 1j * gap * x_nl
    m = alpha * alpha * g + alpha * k
    if not all(map(cmath.isfinite, (g, k, m))):
        raise DomainError(f"matrix elements are not finite at alpha={alpha}")
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
