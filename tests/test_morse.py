import math

import numpy as np
import pytest

from morse_reference import eigenfunction_derivative, quadrature_elements, quadrature_window
from socmorse.errors import DomainError
from socmorse.morse import (
    MorseSpec,
    characteristic_length,
    eigenfunction,
    finite_difference_levels,
    matrix_elements,
    overlap_Q,
    position_moment,
    potential,
)
from socmorse.numerics import QuadratureSpec, integrate

A8 = MorseSpec(8.0)


class TestPotential:
    def test_minimum(self):
        assert potential(0.0, A8) == pytest.approx(-8.0)

    def test_asymptote(self):
        assert abs(potential(40.0, A8)) < 1e-12

    def test_point_value(self):
        assert potential(math.log(2.0), A8) == pytest.approx(-6.0)

    def test_vectorized(self):
        x = np.array([0.0, math.log(2.0)])
        assert np.allclose(potential(x, A8), [-8.0, -6.0])


class TestSpec:
    def test_depth_eight_structure(self):
        assert A8.eta == 4.0
        assert A8.bound_count == 4
        energies = [s.energy for s in A8.bound_states()]
        assert energies == [-6.125, -3.125, -1.125, -0.125]
        assert np.all(np.diff(energies) > 0)

    def test_bound_count_excludes_zero_exponent(self):
        # eta = 3.5 puts a level exactly at threshold; it is not bound
        spec = MorseSpec(3.5**2 / 2.0)
        assert spec.bound_count == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            MorseSpec(-1.0)
        with pytest.raises(DomainError):
            A8.bound_state(4)

    @pytest.mark.parametrize("depth", [math.inf, 1e308, math.nan])
    def test_non_finite_depth_rejected(self, depth):
        # 1e308 is finite, but 2 A overflows, so eta = sqrt(2 A) is not
        with pytest.raises(DomainError, match="depth"):
            MorseSpec(depth)

    def test_characteristic_length(self):
        assert characteristic_length(A8) == pytest.approx(0.5)
        assert characteristic_length(MorseSpec(2.0)) == pytest.approx(2.0**-0.5)
        lengths = [characteristic_length(MorseSpec(a)) for a in (2.0, 8.0, 50.0)]
        assert lengths[0] > lengths[1] > lengths[2]


def _quad(f, lo, hi, pts=()):
    q = QuadratureSpec(lo, hi, tolerance=1e-11, max_subdivisions=400, breakpoints=pts)
    return integrate(f, q)


class TestEigenfunctions:
    @pytest.mark.parametrize("n", range(4))
    def test_normalized(self, n):
        state = A8.bound_state(n)
        u = eigenfunction(state, A8)
        lo, hi, pts = quadrature_window(A8, state, state)
        norm = _quad(lambda x: u(x) ** 2, lo, hi, pts).real
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_orthogonal(self):
        u0 = eigenfunction(A8.bound_state(0), A8)
        u1 = eigenfunction(A8.bound_state(1), A8)
        val = _quad(lambda x: u0(x) * u1(x), -5.0, 30.0).real
        assert abs(val) <= 1e-8

    @pytest.mark.parametrize("n", range(4))
    def test_positive_right_tail(self, n):
        u = eigenfunction(A8.bound_state(n), A8)
        assert u(8.0) > 0.0

    @pytest.mark.parametrize("n", range(4))
    def test_derivative_matches_finite_difference(self, n):
        state = A8.bound_state(n)
        u = eigenfunction(state, A8)
        du = eigenfunction_derivative(state, A8)
        x = np.linspace(-1.5, 6.0, 17)
        h = 1e-6
        fd = (u(x + h) - u(x - h)) / (2 * h)
        assert np.allclose(du(x), fd, atol=1e-7)

    @pytest.mark.parametrize("n", range(4))
    def test_schrodinger_residual(self, n):
        # spectral curvature on a periodic-negligible window validates the
        # closed form against the trap directly
        state = A8.bound_state(n)
        u = eigenfunction(state, A8)
        npts = 8192
        x = np.linspace(-4.0, 60.0, npts, endpoint=False)
        dx = x[1] - x[0]
        k = 2.0 * np.pi * np.fft.fftfreq(npts, d=dx)
        vals = u(x)
        curvature = np.fft.ifft(-(k**2) * np.fft.fft(vals)).real
        resid = -0.5 * curvature + (potential(x, A8) - state.energy) * vals
        assert math.sqrt(float(np.sum(resid**2) * dx)) <= 1e-5


class TestFiniteDifferenceOracle:
    def test_levels_match_closed_form(self):
        fd = finite_difference_levels(A8, 4)
        for n in range(4):
            assert fd[n] == pytest.approx(A8.bound_state(n).energy, abs=1e-5)

    def test_point_count_guard(self):
        with pytest.raises(DomainError):
            finite_difference_levels(A8, 2, points=100)


class TestMatrixElements:
    def test_orthogonality_at_zero_strength(self):
        me = matrix_elements(0, 1, 0.0, A8)
        assert abs(me.G) <= 1e-10

    def test_normalization_at_zero_strength(self):
        me = matrix_elements(0, 0, 0.0, A8)
        assert me.G.real == pytest.approx(1.0, abs=1e-9)
        assert abs(me.G.imag) <= 1e-12

    def test_against_riemann_sum_oracle(self):
        me = matrix_elements(0, 1, 1.6, A8)
        u0 = eigenfunction(A8.bound_state(0), A8)
        u1 = eigenfunction(A8.bound_state(1), A8)
        du1 = eigenfunction_derivative(A8.bound_state(1), A8)
        x = np.linspace(-5.0, 30.0, 60001)
        dx = x[1] - x[0]
        phase = np.exp(2j * 1.6 * x)
        g_sum = np.sum(u0(x) * phase * u1(x)) * dx
        k_sum = -1j * np.sum(u0(x) * phase * du1(x)) * dx
        assert abs(me.G - g_sum) <= 1e-6
        assert abs(me.K - k_sum) <= 1e-6
        assert me.M_coupling == pytest.approx(1.6**2 * me.G + 1.6 * me.K)

    def test_momentum_element_hermiticity(self):
        # <n| e^{2iax} p |l> equals the conjugate of <l| p e^{-2iax} |n>
        alpha = 1.6
        me = matrix_elements(0, 1, alpha, A8)
        u0 = eigenfunction(A8.bound_state(0), A8)
        u1 = eigenfunction(A8.bound_state(1), A8)
        du0 = eigenfunction_derivative(A8.bound_state(0), A8)
        adjoint = _quad(
            lambda x: u1(x) * np.exp(-2j * alpha * x)
            * (-2.0 * alpha * u0(x) - 1j * du0(x)),
            -5.0, 30.0,
        )
        assert abs(me.K - np.conj(adjoint)) <= 1e-8

    def test_transverse_overlap_is_conjugate(self):
        me = matrix_elements(0, 1, 1.6, A8)
        u0 = eigenfunction(A8.bound_state(0), A8)
        u1 = eigenfunction(A8.bound_state(1), A8)
        s_direct = _quad(lambda x: u1(x) * np.exp(-2j * 1.6 * x) * u0(x), -5.0, 30.0)
        assert abs(me.S - s_direct) <= 1e-9
        assert me.S == np.conj(me.G)

    def test_unbound_state_rejected(self):
        with pytest.raises(DomainError):
            matrix_elements(0, 4, 1.6, A8)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 1e308])
    def test_non_finite_alpha_rejected(self, alpha):
        # 1e308 is finite, but the elements it gives are not
        with pytest.raises(DomainError, match="alpha"):
            matrix_elements(0, 1, alpha, A8)


class TestOverlapConstants:
    def test_symmetry(self):
        assert overlap_Q(0, 1, A8) == pytest.approx(overlap_Q(1, 0, A8), rel=1e-10)

    def test_depth_eight_ratios(self):
        q00, q11, q01 = overlap_Q(0, 0, A8), overlap_Q(1, 1, A8), overlap_Q(0, 1, A8)
        assert q00 / q11 == pytest.approx(1.5, abs=0.02)
        assert q01 / (q00 + q11) == pytest.approx(0.23, abs=0.01)
        assert q00 > 0 and q11 > 0 and q01 > 0


class TestPositionMoments:
    def test_excited_state_sits_further_out(self):
        assert position_moment(1, A8) > position_moment(0, A8)

    def test_window_doubling_stability(self):
        state = A8.bound_state(1)
        u = eigenfunction(state, A8)
        lo, hi, pts = quadrature_window(A8, state, state)
        ref = position_moment(1, A8)
        wide = _quad(lambda x: x * u(x) ** 2, lo - 5.0, 2.0 * hi, pts).real
        assert wide == pytest.approx(ref, abs=1e-6)

    def test_deep_trap_trend(self):
        # approach to the harmonic limit: the anharmonic offset shrinks
        moments = [position_moment(0, MorseSpec(a)) for a in (50.0, 500.0, 5000.0)]
        assert all(m > 0 for m in moments)
        assert moments[0] > moments[1] > moments[2]


def _design_sweep_points(seed, count):
    """(depth, alpha) drawn from the design-sweep domain."""
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(6.0, 12.0)), float(rng.uniform(0.8, 2.25))) for _ in range(count)]


def _closed_form(n, l, alpha, spec):
    me = matrix_elements(n, l, alpha, spec)
    return {"G": me.G, "K": me.K, "M_coupling": me.M_coupling,
            "Q": overlap_Q(n, l, spec), "x_n": me.x_diag_n}


class TestClosedFormAgainstQuadrature:
    """G, K, M_coupling, Q and <x> against the adaptive-quadrature oracle.

    Relative tolerances, with a 1e-14 absolute floor for the elements that
    vanish exactly (G and M_coupling at alpha = 0, K at n = l and alpha = 0).
    """

    def _check(self, depth, n, l, alpha, rtol):
        spec = MorseSpec(depth)
        got = _closed_form(n, l, alpha, spec)
        want = quadrature_elements(n, l, alpha, spec)
        for name, value in want.items():
            err = abs(got[name] - value)
            assert err <= rtol * abs(value) + 1e-14, (name, got[name], value)

    @pytest.mark.parametrize("depth, alpha", _design_sweep_points(12, 6))
    def test_design_sweep_domain(self, depth, alpha):
        self._check(depth, 0, 1, alpha, 1e-12)

    @pytest.mark.parametrize("depth, n, l, alpha", [
        (8.0, 1, 1, 1.6),
        (8.0, 0, 1, 0.0),
        (8.0, 1, 1, 0.0),
        (9.3, 1, 0, 2.1),
        (11.7, 1, 0, 0.0),
        (30.0, 3, 2, 1.2),
    ])
    def test_equal_levels_reversed_pairs_and_zero_strength(self, depth, n, l, alpha):
        self._check(depth, n, l, alpha, 1e-12)

    @pytest.mark.parametrize("depth, n, l, alpha", [
        (200.0, 15, 16, 1.6),
        (900.0, 20, 21, 1.2),
        (5000.0, 3, 4, 1.6),
        (5000.0, 0, 1, 0.8),
    ])
    def test_deep_traps(self, depth, n, l, alpha):
        # a = 2 xi_n + 2 xi_l - 1 is about 380 at depth 5000, where the
        # Gauss-Laguerre weights scipy returns have overflowed to inf
        self._check(depth, n, l, alpha, 1e-10)

    @pytest.mark.parametrize("n, l", [(0, 1), (1, 0)])
    def test_k_continuous_at_zero_strength(self, n, l):
        # the alpha = 0 branch and the 1/alpha commutator formula agree
        k0 = matrix_elements(n, l, 0.0, A8).K
        k_small = matrix_elements(n, l, 1e-10, A8).K
        assert abs(k_small - k0) <= 1e-8 * abs(k0)
