"""Robustness of the tilted-field protocol to Zeeman-channel errors.

Two error models: a constant relative miscalibration of the Zeeman
amplitude, and white amplitude noise on the same channel.  The noise
average obeys a master equation with a double-commutator dephasing term;
an ensemble of stochastic trajectories with per-step phase kicks serves
as its independent oracle.

Each scan is one batched call over its points, and a single Bloch run is
a batch of one.  Without interactions the model is linear and a scan
needs only the final state, so the RK4 runs as a product of per-step
transfer matrices (:func:`~socmorse.dynamics_two_level.rk4_linear`), not
as a step loop.  The mean-field scans keep the step loop, but each step
advances one stacked state, ``(2, L)`` amplitudes or ``(3, L)`` Bloch
vectors for L points, with the drive tabulated per node before the loop.
The Zeeman term of every reduced-model scan comes from
:meth:`~socmorse.pulse_design.PulseSchedule.reduced_terms`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics_two_level import half_step_nodes, rk4, rk4_linear, step_amplitudes
from .errors import DomainError, NumericalFailureError, SocmorseError
from .numerics import OdeSettings, su2_exp, write_csv
from .pulse_design import PulseSchedule, TransferSpec

# Failures a scan records per point before moving on.  Anything else is a
# programming error and propagates rather than becoming a NaN point.
_SCAN_FAILURES = (SocmorseError, FloatingPointError)

# Steps whose noise draws and kicks the oracle holds at once.
_ORACLE_BLOCK = 512

# Fewest trajectories the stochastic oracle averages over.
MIN_TRAJECTORIES = 100

__all__ = [
    "MIN_TRAJECTORIES",
    "ScanResult",
    "bloch_propagate",
    "scan_systematic",
    "scan_systematic_grid",
    "scan_noise",
    "stochastic_oracle",
]


@dataclass
class ScanResult:
    """One fidelity-vs-parameter table with its provenance."""

    parameter: str
    values: np.ndarray
    fidelities: np.ndarray
    spec: TransferSpec
    failures: tuple = ()

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.fidelities = np.asarray(self.fidelities, dtype=float)
        if len(self.values) != len(self.fidelities):
            raise DomainError("scan columns must have equal length")

    def to_csv(self, path):
        return write_csv(path, f"{self.parameter},fidelity",
                         (self.values, self.fidelities))

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


def bloch_propagate(spec: TransferSpec, schedule: PulseSchedule,
                    noise_strength, dt: float = 1e-3,
                    record_stride: int | None = 10):
    """Integrate the noise-averaged state from spin up over the schedule.

    The Bloch vector (u, v, w) of the reduced density matrix precesses
    around the scheduled field with the mean-field frequency pull
    proportional to w, and its transverse part is damped at rate
    noise_strength^2 D(t)^2 / 2, where D is the Zeeman amplitude.  Returns
    (times, states) with rows (u, v, w), recorded every ``record_stride``
    steps and at the end (only at the ends with ``record_stride=None``).
    Without the w-dependent pull (g_s total zero) and with
    ``record_stride=None`` the model is linear and runs by
    :func:`~socmorse.dynamics_two_level.rk4_linear`; otherwise by ``rk4``.

    Every run steps one ``(3, L)`` state, one column per noise strength,
    with the shared drive as a per-node 3x3 table.  An array of L strengths
    gives states of shape (records, 3, L); a column that overflows comes
    back non-finite instead of raising, so one bad point cannot sink the
    batch.  A single strength runs as a batch of one, gives states of shape
    (records, 3) and raises :class:`NumericalFailureError` when its final
    Bloch vector is non-finite.
    """
    _require_tilt_schedule(schedule)
    nsteps, h, nodes = half_step_nodes(spec.t_f, dt)
    z, od = schedule.reduced_terms(nodes)
    d = np.asarray(schedule.b_at(nodes), dtype=float)[:, None]
    strength = np.asarray(noise_strength, dtype=float)
    start = np.zeros((3, strength.size))
    start[2] = 1.0
    with np.errstate(over="ignore"):
        damp = 0.5 * strength.reshape(-1)**2 * d * d
    g11, g22, g12, g21 = spec.g_effective
    gd_tot = 0.5 * (g11 - g22) + 0.5 * (g12 - g21)
    gs_tot = 0.5 * (g11 + g22) - 0.5 * (g12 + g21)
    x, y, z_eff = 2.0 * od.real, 2.0 * od.imag, z + gd_tot
    zero = np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        if record_stride is None and gs_tot == 0.0:
            steps, states = rk4_linear(((-damp, z_eff, -y), (-z_eff, -damp, x),
                                        (y, -x, zero)), start, nsteps, h)
        else:
            drive = np.stack((zero, z_eff, -y, -z_eff, zero, x, y, -x, zero),
                             axis=1).reshape(-1, 3, 3)
            pull = np.array([[gs_tot], [-gs_tot]])

            def deriv(j, s):
                out = drive[j] @ s
                out[:2] += (pull * s[2]) * s[1::-1] - damp[j] * s[:2]
                return (out,)

            steps, states = rk4(deriv, (start,), nsteps, h, record_stride)
            states = [s for s, in states]
    states = np.array(states)
    if strength.ndim == 0:
        states = states[..., 0]
        if not np.all(np.isfinite(states[-1])):
            raise NumericalFailureError(f"non-finite Bloch vector by t={spec.t_f:.6g}",
                                        time=spec.t_f)
    return np.array(steps) * h, states


def _batched_scan(parameter, values, spec, run):
    """Scan every point in one batched call: ``run(values)`` returns the
    per-point fidelities and failure messages (None where the point is
    fine).  A failure the batched call raises marks every point failed."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DomainError("empty scan grid")
    if not np.all(np.isfinite(values)):
        raise DomainError(f"scan values must be finite, got {values.tolist()}")
    fidelities = np.full(values.shape, np.nan)
    try:
        fid, problems = run(values)
    except _SCAN_FAILURES as exc:  # recorded, scan still returns
        problems = [f"{type(exc).__name__}: {exc}"] * values.size
    else:
        ok = np.array([p is None for p in problems])
        fidelities[ok] = fid[ok]
    return ScanResult(
        parameter=parameter,
        values=values,
        fidelities=fidelities,
        spec=spec,
        failures=tuple((i, p) for i, p in enumerate(problems) if p is not None),
    )


def scan_systematic(spec: TransferSpec, schedule: PulseSchedule, lambdas,
                    settings: OdeSettings = OdeSettings()) -> ScanResult:
    """Fidelity when the Zeeman channel is scaled by (1 + lambda).

    All points propagate the (mean-field, when the spec carries
    interactions) two-level model together, one column of the Zeeman
    table per point, Z(t) + lambda b(t) with Z from the schedule's
    :meth:`~socmorse.pulse_design.PulseSchedule.reduced_terms`; a point
    whose final amplitudes are non-finite or whose norm drifted by more
    than 1e-6 is recorded as a failure.
    """
    nsteps, h, nodes = half_step_nodes(spec.t_f, settings.step)  # raises here, not per point

    def run(lambdas):
        z, od = schedule.reduced_terms(nodes)
        b = np.asarray(schedule.b_at(nodes), dtype=float)
        z = z[:, None] + b[:, None] * lambdas
        _, states = step_amplitudes(z, od, nsteps, h,
                                    spec.g_effective if spec.interacting else None,
                                    stride=None)
        c1, c2 = states[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            norm_err = np.abs(np.abs(c1) ** 2 + np.abs(c2) ** 2 - 1.0)
        problems = [None if e <= 1e-6 else
                    f"NumericalFailureError: norm drifted by {e:.3g}" if np.isfinite(e) else
                    f"NumericalFailureError: non-finite amplitudes by t={spec.t_f:.6g}"
                    for e in norm_err]
        return np.abs(c2) ** 2, problems

    return _batched_scan("lambda", lambdas, spec, run)


def scan_systematic_grid(spec: TransferSpec, schedule: PulseSchedule, lambdas,
                         grid=None, dt: float = 1e-3) -> ScanResult:
    """Grid-engine variant of :func:`scan_systematic`.

    Each point runs the full 1D spinor simulation (mean field included when
    the spec carries interactions) under the scaled Zeeman channel.  Far
    slower than the reduced model; intended for spot checks of the
    two-level scan.
    """
    from .dynamics_grid import SpatialGrid, evolve, init_basis_state

    half_step_nodes(spec.t_f, dt)  # an invalid dt raises here, not per point
    start = init_basis_state(grid or SpatialGrid(), spec.morse, spec.n, "up", spec.alpha)

    def run(lambdas):
        fidelities, problems = np.full(lambdas.shape, np.nan), []
        for i, lam in enumerate(lambdas):
            try:
                _, report = evolve(start.copy(), spec,
                                   schedule.with_channel_b_scaled(1.0 + lam), dt=dt)
                fidelities[i], problem = report.final_fidelity, None
            except _SCAN_FAILURES as exc:
                problem = f"{type(exc).__name__}: {exc}"
            problems.append(problem)
        return fidelities, problems

    return _batched_scan("lambda", lambdas, spec, run)


def scan_noise(spec: TransferSpec, schedule: PulseSchedule, lambdas_prime,
               dt: float = 1e-3) -> ScanResult:
    """Master-equation fidelity (1 - w)/2 at t_f for each noise strength,
    all strengths in one batched :func:`bloch_propagate` call; a point whose
    final Bloch vector is non-finite or longer than 1 + 1e-6 is recorded as
    a failure.  An invalid ``dt`` raises instead."""
    _require_tilt_schedule(schedule)
    half_step_nodes(spec.t_f, dt)  # an invalid dt raises here, not per point

    def run(strengths):
        _, states = bloch_propagate(spec, schedule, strengths, dt=dt, record_stride=None)
        final = states[-1]
        finite = np.all(np.isfinite(final), axis=0)
        length = np.hypot(np.hypot(final[0], final[1]), final[2])
        problems = [None if r <= 1.0 + 1e-6 else
                    f"NumericalFailureError: Bloch vector grew to length {r:.6g}" if ok else
                    f"NumericalFailureError: non-finite Bloch vector by t={spec.t_f:.6g}"
                    for ok, r in zip(finite, length)]
        return 0.5 * (1.0 - final[2]), problems

    return _batched_scan("lambda_prime", lambdas_prime, spec, run)


def _midpoint_step(h11, h22, od, h):
    """(phase, u11, u12, u21, u22) of exp(-i h [[h11, od], [conj(od), h22]])."""
    return (np.exp(-1j * h * (0.5 * (h11 + h22))),
            *su2_exp(0.5 * (h11 - h22), od, h))


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
    not depend on evaluation order; they are drawn ``_ORACLE_BLOCK`` steps
    at a time, which leaves each stream unchanged.  Without interactions
    the deterministic step does not depend on the state and is tabulated
    once for every midpoint.  Returns (fidelity, stderr).
    """
    _require_tilt_schedule(schedule)
    if trajectories < MIN_TRAJECTORIES:
        raise DomainError(f"need at least {MIN_TRAJECTORIES} trajectories")
    nsteps, h, _ = half_step_nodes(spec.t_f, dt)
    mids = (np.arange(nsteps) + 0.5) * h
    z_m, od_m = schedule.reduced_terms(mids)
    d_m = np.asarray(schedule.b_at(mids), dtype=float)
    kick_scale = (-0.25 * lambda_prime * d_m * np.sqrt(h))[:, None]
    g11, g22, g12, g21 = spec.g_effective
    nonlinear = spec.interacting
    if not nonlinear:
        tabled = _midpoint_step(0.5 * z_m, -0.5 * z_m, od_m, h)
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            for i in range(trajectories)]

    c1 = np.ones(trajectories, dtype=complex)
    c2 = np.zeros(trajectories, dtype=complex)
    for start in range(0, nsteps, _ORACLE_BLOCK):
        stop = min(start + _ORACLE_BLOCK, nsteps)
        theta = np.empty((stop - start, trajectories))
        for i, rng in enumerate(rngs):
            theta[:, i] = rng.standard_normal(stop - start)
        theta *= kick_scale[start:stop]
        kicks = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=kicks.real)
        np.sin(theta, out=kicks.imag)
        for j, half_kick, conj_kick in zip(range(start, stop), kicks, kicks.conj()):
            if nonlinear:
                p1 = c1.real**2 + c1.imag**2
                p2 = c2.real**2 + c2.imag**2
                phase, u11, u12, u21, u22 = _midpoint_step(
                    0.5 * z_m[j] + g11 * p1 + g12 * p2,
                    -0.5 * z_m[j] + g21 * p1 + g22 * p2, od_m[j], h)
            else:
                phase, u11, u12, u21, u22 = (s[j] for s in tabled)
            a1 = c1 * half_kick
            a2 = c2 * conj_kick
            c1 = phase * (u11 * a1 + u12 * a2) * half_kick
            c2 = phase * (u21 * a1 + u22 * a2) * conj_kick

    target_pop = c2.real**2 + c2.imag**2
    fid = float(np.mean(target_pop))
    stderr = float(np.std(target_pop) / np.sqrt(trajectories))
    return fid, stderr
