"""Robustness of the tilted-field protocol to Zeeman-channel errors.

Two error models: a constant relative miscalibration of the Zeeman
amplitude, and white amplitude noise on the same channel.  The noise
average obeys a master equation with a double-commutator dephasing term;
an ensemble of stochastic trajectories with per-step phase kicks serves
as its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics_two_level import propagate, propagate_nonlinear
from .errors import DomainError, SocmorseError
from .morse import matrix_elements
from .numerics import OdeSettings
from .pulse_design import PulseSchedule, TransferSpec

# Failures a scan records per point before moving on.  Anything else is a
# programming error and propagates rather than becoming a NaN point.
_SCAN_FAILURES = (SocmorseError, FloatingPointError)

__all__ = [
    "BlochState",
    "InteractionSplit",
    "ScanResult",
    "bloch_rhs",
    "bloch_propagate",
    "scan_systematic",
    "scan_systematic_grid",
    "scan_noise",
    "stochastic_oracle",
]


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


@dataclass(frozen=True)
class InteractionSplit:
    """Sum/difference combinations of the mean-field constants."""

    g_d: float
    g_s: float
    g_d_prime: float
    g_s_prime: float

    @classmethod
    def from_constants(cls, g11, g22, g12, g21):
        return cls(
            g_d=0.5 * (g11 - g22),
            g_s=0.5 * (g11 + g22),
            g_d_prime=0.5 * (g12 - g21),
            g_s_prime=0.5 * (g12 + g21),
        )

    def reconstruct(self):
        return (
            self.g_s + self.g_d,
            self.g_s - self.g_d,
            self.g_s_prime + self.g_d_prime,
            self.g_s_prime - self.g_d_prime,
        )


@dataclass
class ScanResult:
    """One fidelity-vs-parameter table with its provenance."""

    parameter: str
    values: np.ndarray
    fidelities: np.ndarray
    spec: TransferSpec
    stderr: Optional[np.ndarray] = None
    seed: Optional[int] = None
    failures: tuple = ()

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.fidelities = np.asarray(self.fidelities, dtype=float)
        if len(self.values) != len(self.fidelities):
            raise DomainError("scan columns must have equal length")

    def to_csv(self, path):
        with open(str(path), "w", newline="\n") as fh:
            header = f"{self.parameter},fidelity"
            if self.stderr is not None:
                header += ",stderr"
            fh.write(header + "\n")
            for i in range(len(self.values)):
                row = [self.values[i], self.fidelities[i]]
                if self.stderr is not None:
                    row.append(self.stderr[i])
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
        return str(path)

    def curvature_at_zero(self, window: float = 0.16):
        """Quadratic-fit curvature of the fidelity around parameter zero.

        Returns None when fewer than three finite points fall inside the
        window.  Negative values mean the scanned point is a local maximum
        of the fidelity.
        """
        mask = (np.abs(self.values) <= window) & np.isfinite(self.fidelities)
        if int(np.sum(mask)) < 3:
            return None
        coeffs = np.polyfit(self.values[mask], self.fidelities[mask], 2)
        return float(2.0 * coeffs[0])


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


def scan_systematic(spec: TransferSpec, schedule: PulseSchedule, lambdas,
                    settings: OdeSettings = OdeSettings()) -> ScanResult:
    """Fidelity when the Zeeman channel is scaled by (1 + lambda).

    Each point propagates the (mean-field, when the spec carries
    interactions) two-level model; failures are recorded per point and the
    scan continues.
    """
    me = matrix_elements(spec.n, spec.l, spec.alpha, spec.morse)
    prop = propagate_nonlinear if spec.interacting else propagate
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise DomainError("empty scan grid")
    fidelities = np.full(lambdas.shape, np.nan)
    failures = []
    for i, lam in enumerate(lambdas):
        try:
            traj = prop(spec, me, schedule.with_channel_b_scaled(1.0 + lam), settings)
            fidelities[i] = traj.final_fidelity
        except _SCAN_FAILURES as exc:  # recorded, scan continues
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return ScanResult(
        parameter="lambda",
        values=lambdas,
        fidelities=fidelities,
        spec=spec,
        failures=tuple(failures),
    )


def scan_systematic_grid(spec: TransferSpec, schedule: PulseSchedule, lambdas,
                         grid=None, dt: float = 1e-3) -> ScanResult:
    """Grid-engine variant of :func:`scan_systematic`.

    Each point runs the full 1D spinor simulation (mean field included when
    the spec carries interactions) under the scaled Zeeman channel.  Far
    slower than the reduced model; intended for spot checks of the
    two-level scan.
    """
    from .dynamics_grid import SpatialGrid, evolve, init_basis_state

    if grid is None:
        grid = SpatialGrid()
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise DomainError("empty scan grid")
    start = init_basis_state(grid, spec.morse, spec.n, "up", spec.alpha)
    fidelities = np.full(lambdas.shape, np.nan)
    failures = []
    for i, lam in enumerate(lambdas):
        try:
            _, report = evolve(start.copy(), spec,
                               schedule.with_channel_b_scaled(1.0 + lam), dt=dt)
            fidelities[i] = report.final_fidelity
        except _SCAN_FAILURES as exc:
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return ScanResult(
        parameter="lambda",
        values=lambdas,
        fidelities=fidelities,
        spec=spec,
        failures=tuple(failures),
    )


def scan_noise(spec: TransferSpec, schedule: PulseSchedule, lambdas_prime,
               dt: float = 1e-3) -> ScanResult:
    """Master-equation fidelity (1 - w)/2 at t_f for each noise strength."""
    _require_tilt_schedule(schedule)
    lambdas_prime = np.asarray(lambdas_prime, dtype=float)
    if lambdas_prime.size == 0:
        raise DomainError("empty scan grid")
    fidelities = np.full(lambdas_prime.shape, np.nan)
    failures = []
    for i, lam in enumerate(lambdas_prime):
        try:
            _, states = bloch_propagate(spec, schedule, lam, dt=dt)
            fidelities[i] = 0.5 * (1.0 - states[-1, 2])
        except _SCAN_FAILURES as exc:
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return ScanResult(
        parameter="lambda_prime",
        values=lambdas_prime,
        fidelities=fidelities,
        spec=spec,
        failures=tuple(failures),
    )


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
