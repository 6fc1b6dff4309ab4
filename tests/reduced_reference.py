"""Reference implementations for the reduced-model tests.

These are the straightforward per-point forms the library's batched core
replaced, kept so the tests can hold it to them: the scalar RK4 loop of the
amplitude equations with its own Hamiltonian assembly, the scalar Bloch
vector loop of the master equation, the stochastic oracle with its inline
2x2 exponential, and a general ODE propagator (fixed-step RK4 or adaptive
DOP853).  They share no stepping code with ``socmorse``.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from socmorse.errors import DomainError, NumericalFailureError
from socmorse.morse import MatrixElements
from socmorse.pulse_design import PulseSchedule, TransferSpec
from socmorse.robustness import InteractionSplit


@dataclass(frozen=True)
class OdeSettings:
    """Integrator selection for :func:`ode_propagate`.

    ``method='rk4'`` is the fixed-step classical Runge-Kutta scheme (the
    reproducible default); ``method='adaptive'`` delegates to an embedded
    adaptive pair and honours ``abs_tol``/``rel_tol``.
    """

    step: float = 1e-3
    method: str = "rk4"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.step > 0:
            raise DomainError("step must be positive")
        if self.method not in ("rk4", "adaptive"):
            raise DomainError(f"unknown method {self.method!r}")
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must be positive")


def _rk4_span(rhs, y, t0, t1, step):
    """March y from t0 to t1 with fixed RK4 substeps of size <= step."""
    span = t1 - t0
    m = max(1, int(math.ceil(span / step - 1e-12)))
    h = span / m
    t = t0
    for _ in range(m):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def ode_propagate(rhs, y0, t0, t1, settings: OdeSettings = OdeSettings(), t_eval=None):
    """Propagate ``dy/dt = rhs(t, y)`` from t0 to t1.

    Returns ``(times, states)`` with ``states[i]`` the solution at
    ``times[i]``.  ``t_eval`` defaults to the natural fixed-step grid.
    States may be real or complex arrays.
    """
    if not t1 > t0:
        raise DomainError("need t1 > t0")
    y0 = np.atleast_1d(np.asarray(y0))
    if t_eval is None:
        m = max(1, int(round((t1 - t0) / settings.step)))
        t_eval = np.linspace(t0, t1, m + 1)
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval[0] != t0 or t_eval[-1] != t1 or np.any(np.diff(t_eval) <= 0):
            raise DomainError("t_eval must increase strictly from t0 to t1")

    if settings.method == "adaptive":
        return _adaptive_propagate(rhs, y0, t0, t1, settings, t_eval)

    states = np.empty((len(t_eval),) + y0.shape, dtype=np.result_type(y0.dtype, np.float64))
    states[0] = y0
    y = y0.astype(states.dtype)
    for i in range(1, len(t_eval)):
        y = _rk4_span(rhs, y, t_eval[i - 1], t_eval[i], settings.step)
        if not np.all(np.isfinite(y.view(float))):
            raise NumericalFailureError(
                f"non-finite state at t={t_eval[i]:g}", time=float(t_eval[i])
            )
        states[i] = y
    return t_eval, states


def _adaptive_propagate(rhs, y0, t0, t1, settings, t_eval):
    """Embedded adaptive integration; complex states stacked as reals."""
    is_complex = np.iscomplexobj(y0)

    if is_complex:
        def real_rhs(t, yr):
            dy = np.asarray(rhs(t, yr[: len(y0)] + 1j * yr[len(y0):]))
            return np.concatenate([dy.real, dy.imag])

        yr0 = np.concatenate([y0.real.astype(float), y0.imag.astype(float)])
    else:
        def real_rhs(t, yr):
            return np.asarray(rhs(t, yr), dtype=float)

        yr0 = y0.astype(float)

    sol = scipy.integrate.solve_ivp(
        real_rhs,
        (t0, t1),
        yr0,
        method="DOP853",
        t_eval=t_eval,
        atol=settings.abs_tol,
        rtol=settings.rel_tol,
    )
    if not sol.success:
        raise NumericalFailureError(f"adaptive integration failed: {sol.message}")
    states = sol.y.T
    if is_complex:
        states = states[:, : len(y0)] + 1j * states[:, len(y0):]
    if not np.all(np.isfinite(states.view(float))):
        raise NumericalFailureError("non-finite state in adaptive integration")
    return sol.t, states


@dataclass(frozen=True)
class TwoLevelHamiltonian:
    """Traceless symmetric form: diag(Z, -Z)/2 with off-diagonal (X + iY)/2."""

    Z: float
    X: float
    Y: float

    def matrix(self):
        od = 0.5 * (self.X + 1j * self.Y)
        return np.array([[0.5 * self.Z, od], [np.conj(od), -0.5 * self.Z]])


def _offdiag_factor(spec: TransferSpec, coupling: complex):
    """X + iY = amp(t) * factor; the Raman channel carries the 1/2 itself."""
    if spec.scheme == "raman":
        return coupling
    return 2.0 * coupling


def assemble_H(spec: TransferSpec, me: MatrixElements, schedule: PulseSchedule,
               t: float) -> TwoLevelHamiltonian:
    """Reduced Hamiltonian at time t from the schedule's channels."""
    if not -1e-9 * spec.t_f <= t <= spec.t_f * (1 + 1e-9):
        raise DomainError(f"t={t} outside the schedule range [0, {spec.t_f}]")
    coupling = me.G if spec.scheme == "raman" else me.M_coupling
    xy = schedule.a_at(t) * _offdiag_factor(spec, coupling)
    z = spec.energy_n - spec.energy_l + schedule.b_at(t)
    return TwoLevelHamiltonian(Z=float(z), X=float(np.real(xy)), Y=float(np.imag(xy)))


def _channel_nodes(schedule: PulseSchedule, t_f: float, nsteps: int):
    """Channel values on the RK4 half-step grid 0, dt/2, dt, ..."""
    nodes = np.linspace(0.0, t_f, 2 * nsteps + 1)
    return np.asarray(schedule.a_at(nodes), dtype=float), \
        np.asarray(schedule.b_at(nodes), dtype=float)


def _rk4_two_level(spec, schedule, dt, initial, nonlinear):
    nsteps = max(1, int(round(spec.t_f / dt)))
    h = spec.t_f / nsteps
    a_vals, b_vals = _channel_nodes(schedule, spec.t_f, nsteps)
    split = spec.energy_n - spec.energy_l
    z_vals = split + b_vals
    # off-diagonal matrix element (X + iY)/2
    od_vals = 0.5 * _offdiag_factor(spec, schedule.coupling) * a_vals

    g11, g22, g12, g21 = spec.g_effective if nonlinear else (0.0, 0.0, 0.0, 0.0)

    def deriv(j, a1, a2):
        z = z_vals[j]
        od = od_vals[j]
        h11 = 0.5 * z
        h22 = -0.5 * z
        if nonlinear:
            p1 = a1.real * a1.real + a1.imag * a1.imag
            p2 = a2.real * a2.real + a2.imag * a2.imag
            h11 += g11 * p1 + g12 * p2
            h22 += g21 * p1 + g22 * p2
        d1 = -1j * (h11 * a1 + od * a2)
        d2 = -1j * (od.conjugate() * a1 + h22 * a2)
        return d1, d2

    c1, c2 = complex(initial[0]), complex(initial[1])
    states = np.empty((nsteps + 1, 2), dtype=complex)
    states[0] = (c1, c2)
    sixth = h / 6.0
    for i in range(nsteps):
        j = 2 * i
        k11, k12 = deriv(j, c1, c2)
        k21, k22 = deriv(j + 1, c1 + 0.5 * h * k11, c2 + 0.5 * h * k12)
        k31, k32 = deriv(j + 1, c1 + 0.5 * h * k21, c2 + 0.5 * h * k22)
        k41, k42 = deriv(j + 2, c1 + h * k31, c2 + h * k32)
        c1 = c1 + sixth * (k11 + 2.0 * (k21 + k31) + k41)
        c2 = c2 + sixth * (k12 + 2.0 * (k22 + k32) + k42)
        states[i + 1] = (c1, c2)
        if not (math.isfinite(c1.real) and math.isfinite(c2.real)
                and math.isfinite(c1.imag) and math.isfinite(c2.imag)):
            raise NumericalFailureError(
                f"non-finite amplitudes at t={(i + 1) * h:.6g}", time=(i + 1) * h
            )
    times = np.linspace(0.0, spec.t_f, nsteps + 1)
    return times, states


@dataclass(frozen=True)
class BlochState:
    """Density-matrix coordinates: u, v transverse, w population difference."""

    u: float
    v: float
    w: float

    def as_array(self):
        return np.array([self.u, self.v, self.w])

    def purity_radius_sq(self) -> float:
        return self.u**2 + self.v**2 + self.w**2

    def to_density_matrix(self):
        return 0.5 * np.array(
            [[1.0 + self.w, self.u + 1j * self.v],
             [self.u - 1j * self.v, 1.0 - self.w]],
            dtype=complex,
        )

    @classmethod
    def from_density_matrix(cls, rho):
        rho = np.asarray(rho)
        return cls(
            u=float((rho[0, 1] + rho[1, 0]).real),
            v=float((-1j * (rho[0, 1] - rho[1, 0])).real),
            w=float((rho[0, 0] - rho[1, 1]).real),
        )


def _require_tilt_schedule(schedule: PulseSchedule):
    if schedule.spec.scheme == "raman":
        raise DomainError("the Zeeman-noise model applies to the tilted-field "
                          "schemes only")


def _symmetric_entries(spec: TransferSpec, schedule: PulseSchedule, t):
    """(X, Y, Z, D) of the reduced model at time t; D is the noisy channel."""
    a = schedule.a_at(t)
    b = schedule.b_at(t)
    off = 2.0 * np.asarray(a) * schedule.coupling
    z = spec.energy_n - spec.energy_l + np.asarray(b)
    return np.real(off), np.imag(off), z, np.asarray(b)


def bloch_rhs(state, t: float, spec: TransferSpec, schedule: PulseSchedule,
              noise_strength: float):
    """Time derivative (du, dv, dw) of the noise-averaged state.

    Unitary precession around the scheduled field, mean-field frequency
    pull proportional to w, and transverse damping at rate
    noise_strength^2 D(t)^2 / 2 where D is the Zeeman amplitude.
    """
    _require_tilt_schedule(schedule)
    if isinstance(state, BlochState):
        u, v, w = state.u, state.v, state.w
    else:
        u, v, w = (float(c) for c in np.asarray(state))
    x, y, z, d = _symmetric_entries(spec, schedule, t)
    split = InteractionSplit.from_constants(*spec.g_effective)
    z_eff = z + split.g_d + split.g_d_prime + (split.g_s - split.g_s_prime) * w
    damp = 0.5 * noise_strength**2 * d * d
    return np.array([
        -damp * u + z_eff * v - y * w,
        -z_eff * u - damp * v + x * w,
        y * u - x * v,
    ])


def bloch_propagate(spec: TransferSpec, schedule: PulseSchedule,
                    noise_strength: float, dt: float = 1e-3,
                    record_stride: int = 10):
    """Integrate the noise-averaged state from spin up over the schedule.

    Returns (times, states) with rows (u, v, w).  Fixed-step fourth-order
    stepping with channel values pretabulated on the half-step grid.
    """
    _require_tilt_schedule(schedule)
    nsteps = max(1, int(round(spec.t_f / dt)))
    h = spec.t_f / nsteps
    nodes = np.linspace(0.0, spec.t_f, 2 * nsteps + 1)
    x_n, y_n, z_n, d_n = _symmetric_entries(spec, schedule, nodes)
    split = InteractionSplit.from_constants(*spec.g_effective)
    gd_tot = split.g_d + split.g_d_prime
    gs_tot = split.g_s - split.g_s_prime
    damp_n = 0.5 * noise_strength**2 * d_n * d_n

    def deriv(j, u, v, w):
        z_eff = z_n[j] + gd_tot + gs_tot * w
        return (
            -damp_n[j] * u + z_eff * v - y_n[j] * w,
            -z_eff * u - damp_n[j] * v + x_n[j] * w,
            y_n[j] * u - x_n[j] * v,
        )

    u, v, w = 0.0, 0.0, 1.0
    recs = [(0.0, (u, v, w))]
    sixth = h / 6.0
    for i in range(nsteps):
        j = 2 * i
        k1 = deriv(j, u, v, w)
        k2 = deriv(j + 1, u + 0.5 * h * k1[0], v + 0.5 * h * k1[1], w + 0.5 * h * k1[2])
        k3 = deriv(j + 1, u + 0.5 * h * k2[0], v + 0.5 * h * k2[1], w + 0.5 * h * k2[2])
        k4 = deriv(j + 2, u + h * k3[0], v + h * k3[1], w + h * k3[2])
        u += sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        v += sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        w += sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        if (i + 1) % record_stride == 0 or i + 1 == nsteps:
            recs.append(((i + 1) * h, (u, v, w)))
    times = np.array([t for t, _ in recs])
    states = np.array([s for _, s in recs])
    return times, states


def stochastic_oracle(spec: TransferSpec, schedule: PulseSchedule,
                      lambda_prime: float, trajectories: int = 1000,
                      seed: int = 0, dt: float = 1e-3):
    """Trajectory-averaged fidelity under white Zeeman-amplitude noise.

    Each step applies the exact dephasing kick
    exp(-i lambda' (D/2) sigma_z dW) with dW ~ N(0, dt), split evenly
    around one deterministic midpoint-frozen step of the (mean-field)
    reduced model; the symmetric placement makes the noise/drift splitting
    second-order weak.  Per-trajectory noise streams are derived
    deterministically from (seed, trajectory index), so the result does
    not depend on evaluation order.  Returns (fidelity, stderr).
    """
    _require_tilt_schedule(schedule)
    if trajectories < 100:
        raise DomainError("need at least 100 trajectories")
    nsteps = max(1, int(round(spec.t_f / dt)))
    h = spec.t_f / nsteps
    mids = (np.arange(nsteps) + 0.5) * h
    x_m, y_m, z_m, d_m = _symmetric_entries(spec, schedule, mids)
    od_m = 0.5 * (x_m + 1j * y_m)
    g11, g22, g12, g21 = spec.g_effective
    nonlinear = spec.interacting

    noise = np.empty((nsteps, trajectories))
    for i in range(trajectories):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(i,)))
        noise[:, i] = rng.standard_normal(nsteps)

    c1 = np.ones(trajectories, dtype=complex)
    c2 = np.zeros(trajectories, dtype=complex)
    sqrt_h = np.sqrt(h)
    for j in range(nsteps):
        od = od_m[j]
        h11 = 0.5 * z_m[j]
        h22 = -0.5 * z_m[j]
        if nonlinear:
            p1 = c1.real**2 + c1.imag**2
            p2 = c2.real**2 + c2.imag**2
            h11 = h11 + g11 * p1 + g12 * p2
            h22 = h22 + g21 * p1 + g22 * p2
        mean = 0.5 * (h11 + h22)
        dz = 0.5 * (h11 - h22)
        r = np.hypot(dz, abs(od))
        phase = np.exp(-1j * h * mean)
        cos_r = np.cos(h * r)
        sinc_r = np.where(r > 0.0, np.sin(h * r) / np.where(r > 0.0, r, 1.0), h)
        half_kick = np.exp(-0.25j * lambda_prime * d_m[j] * sqrt_h * noise[j])
        a1 = c1 * half_kick
        a2 = c2 * np.conj(half_kick)
        n1 = phase * ((cos_r - 1j * sinc_r * dz) * a1 - 1j * sinc_r * od * a2)
        n2 = phase * (-1j * sinc_r * np.conj(od) * a1 + (cos_r + 1j * sinc_r * dz) * a2)
        c1 = n1 * half_kick
        c2 = n2 * np.conj(half_kick)

    target_pop = c2.real**2 + c2.imag**2
    fid = float(np.mean(target_pop))
    stderr = float(np.std(target_pop) / np.sqrt(trajectories))
    return fid, stderr


def scan_systematic(spec, schedule, lambdas, step=1e-3):
    """Per-point fidelities of the systematic scan, NaN where a point fails
    (non-finite amplitudes, or norm drift above 1e-6)."""
    out = []
    for lam in lambdas:
        try:
            _, states = _rk4_two_level(spec, schedule.with_channel_b_scaled(1.0 + lam),
                                       step, (1.0 + 0j, 0.0 + 0j), spec.interacting)
        except NumericalFailureError:
            out.append(np.nan)
            continue
        norm_err = abs(float(np.sum(np.abs(states[-1]) ** 2)) - 1.0)
        out.append(float(np.abs(states[-1, 1]) ** 2) if norm_err <= 1e-6 else np.nan)
    return np.array(out)


def scan_noise(spec, schedule, lambdas_prime, dt=1e-3):
    """Per-point master-equation fidelities (1 - w)/2 of the noise scan."""
    return np.array([0.5 * (1.0 - bloch_propagate(spec, schedule, lam, dt=dt)[1][-1, 2])
                     for lam in lambdas_prime])
