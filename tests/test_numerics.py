import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduced_reference import OdeSettings, ode_propagate
from socmorse.errors import AccuracyError, DomainError, NumericalFailureError
from socmorse.numerics import (
    QuadratureSpec,
    integrate,
    laguerre,
    log_gamma,
    su2_exp,
)


class TestLogGamma:
    def test_unit_argument(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_factorial(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_half_integer(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


def laguerre_series(n, a, z):
    """Independent oracle: explicit finite sum with exact rational coefficients."""
    a = Fraction(a).limit_denominator(10**12)
    z = Fraction(z).limit_denominator(10**12)
    total = Fraction(0)
    for k in range(n + 1):
        binom = Fraction(1)
        for j in range(n - k):  # C(n + a, n - k) via the falling product
            binom *= (a + n - j) / (n - k - j)
        total += (-1) ** k * binom * z**k / math.factorial(k)
    return float(total)


class TestLaguerre:
    def test_order_zero(self):
        assert laguerre(0, 3.7, 12.3) == 1.0

    @given(a=st.floats(-0.9, 10), z=st.floats(-50, 50))
    def test_order_one(self, a, z):
        assert laguerre(1, a, z) == pytest.approx(1 + a - z, rel=1e-12, abs=1e-12)

    def test_against_series_oracle(self):
        got = laguerre(4, 7.0, 2.5)
        want = laguerre_series(4, 7.0, 2.5)
        assert got == pytest.approx(want, rel=1e-10)

    def test_vectorized(self):
        z = np.linspace(-5, 5, 11)
        vals = laguerre(3, 1.5, z)
        assert vals.shape == z.shape
        assert vals[4] == pytest.approx(laguerre(3, 1.5, z[4]))

    @settings(max_examples=200)
    @given(n=st.integers(1, 10), a=st.floats(-0.9, 10), z=st.floats(-50, 50))
    def test_three_term_recurrence(self, n, a, z):
        lm1 = laguerre(n - 1, a, z)
        l0 = laguerre(n, a, z)
        lp1 = laguerre(n + 1, a, z)
        lhs = (n + 1) * lp1
        rhs = (2 * n + 1 + a - z) * l0 - (n + a) * lm1
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            laguerre(-1, 0.0, 1.0)


class TestIntegrate:
    def test_linear_function(self):
        q = QuadratureSpec(0.0, 1.0, tolerance=1e-12)
        assert integrate(lambda x: x, q).real == pytest.approx(0.5, abs=1e-12)

    def test_gaussian(self):
        q = QuadratureSpec(-8.0, 8.0, tolerance=1e-12)
        val = integrate(lambda x: np.exp(-(x**2)), q)
        assert val.real == pytest.approx(math.sqrt(math.pi), abs=1e-10)
        assert val.imag == pytest.approx(0.0, abs=1e-12)

    def test_oscillatory_gaussian_fourier_oracle(self):
        # closed form: the Fourier transform of a Gaussian
        k = 3.2
        q = QuadratureSpec(-8.0, 8.0, tolerance=1e-11)
        val = integrate(lambda x: np.exp(1j * k * x) * np.exp(-(x**2)), q)
        want = math.sqrt(math.pi) * math.exp(-(k**2) / 4.0)
        assert val.real == pytest.approx(want, abs=1e-9)
        assert val.imag == pytest.approx(0.0, abs=1e-9)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        q = QuadratureSpec(-4.0, 4.0, tolerance=1e-11)
        f = lambda x: np.exp(-(x**2))
        g = lambda x: np.cos(x) * np.exp(-abs(x) * 0.5 - 0.1 * x**2)
        lhs = integrate(lambda x: a * f(x) + b * g(x), q)
        rhs = a * integrate(f, q) + b * integrate(g, q)
        assert abs(lhs - rhs) <= 2 * q.tolerance * max(1.0, abs(a) + abs(b))

    def test_budget_exhausted_carries_estimate(self):
        q = QuadratureSpec(-50.0, 50.0, tolerance=1e-13, max_subdivisions=1)
        with pytest.raises(AccuracyError) as err:
            integrate(lambda x: np.exp(-(x**2)) * np.cos(20 * x), q)
        assert err.value.best_estimate is not None

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(1.0, 0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(0.0, 1.0, tolerance=0.0)


class TestSu2Exp:
    @settings(max_examples=50, deadline=None)
    @given(dz=st.floats(-5, 5), w_re=st.floats(-5, 5), w_im=st.floats(-5, 5),
           tau=st.floats(0, 3))
    def test_matches_matrix_exponential(self, dz, w_re, w_im, tau):
        import scipy.linalg

        w = complex(w_re, w_im)
        h = np.array([[dz, w], [np.conj(w), -dz]])
        u11, u12, u21, u22 = su2_exp(dz, w, tau)
        want = scipy.linalg.expm(-1j * tau * h)
        assert np.allclose([[u11, u12], [u21, u22]], want, rtol=0, atol=1e-12)

    def test_zero_field_is_identity(self):
        u = su2_exp(np.zeros(3), np.zeros(3), 0.7)
        assert np.array_equal(np.array(u), [[1, 1, 1], [0, 0, 0], [0, 0, 0], [1, 1, 1]])


class TestOdePropagate:
    def test_exponential_decay(self):
        times, states = ode_propagate(lambda t, y: -y, [1.0], 0.0, 1.0)
        assert states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_phase_rotation(self):
        times, states = ode_propagate(lambda t, y: 1j * y, [1.0 + 0j], 0.0, math.pi)
        assert states[-1, 0].real == pytest.approx(-1.0, abs=1e-8)
        assert abs(states[-1, 0]) == pytest.approx(1.0, abs=1e-10)

    @staticmethod
    def _rabi_problem():
        omega, delta = 1.3, 0.7
        h = 0.5 * np.array([[delta, omega], [omega, -delta]], dtype=complex)

        def rhs(t, y):
            return -1j * (h @ y)

        def flip_probability(t):
            w = math.hypot(omega, delta)
            return (omega / w) ** 2 * math.sin(0.5 * w * t) ** 2

        return rhs, flip_probability

    def test_constant_drive_flip_probability(self):
        rhs, oracle = self._rabi_problem()
        _, states = ode_propagate(rhs, [1.0 + 0j, 0.0 + 0j], 0.0, 2.0)
        assert abs(states[-1, 1]) ** 2 == pytest.approx(oracle(2.0), abs=1e-8)

    def test_adaptive_matches_fixed(self):
        rhs, oracle = self._rabi_problem()
        _, states = ode_propagate(
            rhs, [1.0 + 0j, 0.0 + 0j], 0.0, 2.0,
            OdeSettings(method="adaptive", abs_tol=1e-12, rel_tol=1e-12),
        )
        assert abs(states[-1, 1]) ** 2 == pytest.approx(oracle(2.0), abs=1e-8)

    def test_fourth_order_convergence(self):
        errors = []
        for h in (0.2, 0.1, 0.05, 0.025):
            _, states = ode_propagate(lambda t, y: -y, [1.0], 0.0, 1.0,
                                      OdeSettings(step=h))
            errors.append(abs(states[-1, 0] - math.exp(-1.0)))
        for e_big, e_small in zip(errors, errors[1:]):
            assert 12.0 < e_big / e_small < 20.0

    def test_requested_sample_times(self):
        t_eval = np.array([0.0, 0.3, 0.9, 1.0])
        times, states = ode_propagate(lambda t, y: -y, [1.0], 0.0, 1.0,
                                      t_eval=t_eval)
        assert np.allclose(times, t_eval)
        assert states[1, 0] == pytest.approx(math.exp(-0.3), abs=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_state_reported_with_time(self):
        with pytest.raises(NumericalFailureError) as err:
            ode_propagate(lambda t, y: y**3 * 1e8, [1.0], 0.0, 1.0)
        assert err.value.time is not None

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            ode_propagate(lambda t, y: -y, [1.0], 1.0, 0.0)
