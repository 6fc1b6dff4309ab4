"""Robustness of the tilted-field protocol to Zeeman-channel errors.

Two error models: a constant relative miscalibration of the Zeeman
amplitude, and white amplitude noise on the same channel.  The noise
average obeys a master equation with a double-commutator dephasing term;
an ensemble of stochastic trajectories with per-step phase kicks serves
as its independent oracle.

Each scan is one batched call over its points, and a single Bloch run is
a batch of one.  Without interactions the model is linear, so every run,
recorded or not, takes the RK4 as products of per-step transfer matrices
(:func:`~socmorse.dynamics_two_level.rk4_linear`), not as a step loop.
The mean-field runs keep the step loop, but each step advances one
stacked state, ``(2, L)`` amplitudes or ``(3, L)`` Bloch vectors for L
points.  The schedule is evaluated once, as 1-D arrays over the half-step
nodes; what a batch adds per point (the scaled Zeeman term, the damping
and the per-node tables of the mean-field step) is built from them one
block of steps at a time, so a batch's memory grows with its points but
not with its steps.  At 64 points the four scans peaked at 1.8-13.8 MiB
of numpy allocations (tracemalloc), and halving the step raised a peak by
at most 11% (``tests/test_robustness.py::TestWorkingSet``).
:data:`MAX_SCAN_NODES` bounds a scan's points times nodes, its work.
The Zeeman term of every reduced-model scan comes from
:meth:`~socmorse.pulse_design.PulseSchedule.reduced_terms`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics_two_level import (_node_blocks, half_step_nodes, rk4, rk4_linear,
                                 step_amplitudes)
from .errors import DomainError, NumericalFailureError, SocmorseError
from .numerics import OdeSettings, _cis, su2_exp, write_csv
from .pulse_design import PulseSchedule, TransferSpec

# Failures a scan records per point before moving on.  Anything else is a
# programming error and propagates rather than becoming a NaN point.
_SCAN_FAILURES = (SocmorseError, FloatingPointError)

# Steps whose noise draws and kicks the oracle holds at once, 32 bytes per
# step and trajectory (the draws, then the merged angles; a scratch row; the
# complex kicks).  1000 trajectories of 10**4 steps (2-core Xeon, three
# calls in each of two processes) took 0.38-0.41 s and 94 MiB peak resident
# memory in blocks of 256 steps, against 0.38-0.41 s and 102 MiB in blocks
# of 512.
_ORACLE_BLOCK = 256

# Side of the square tiles in which the oracle turns its per-trajectory
# draws into per-step rows.  On a 256 x 1000 block (2-core Xeon, warm
# buffers) 128 x 128 tiles took 0.70-0.75 ms, 64 x 64 tiles 0.81-0.87 ms,
# tiles as tall as the block 0.64-0.70 ms and one strided copy 0.77-1.19 ms:
# all below 0.3% of an oracle call.
_ORACLE_TILE = 128

# Fewest trajectories the stochastic oracle averages over.
MIN_TRAJECTORIES = 100

# Most trajectories it may average over: 10**4 trajectories of 10**4 steps
# took 4.0 s and 173 MiB peak resident memory on a 2-core Xeon.
MAX_TRAJECTORIES = 10**4

# Most scan points times half-step nodes one batched reduced-model scan may
# take.  It bounds the work, not the memory, which the blocks of steps keep
# independent of the step count: at the CLI's 1000 points and the default
# step (2 * 10**7 point-nodes, 2-core Xeon) the linear systematic scan took
# 2.7 s and 298 MiB peak resident memory and the mean-field one 1.4 s and
# 179 MiB.
MAX_SCAN_NODES = 25 * 10**6

__all__ = [
    "MIN_TRAJECTORIES",
    "MAX_TRAJECTORIES",
    "MAX_SCAN_NODES",
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
        """Twice the leading coefficient of a least-squares quadratic fitted
        to the finite points with |parameter| <= ``window``.

        This is not the curvature at zero: over a window this wide the fit
        takes in the quartic and higher terms of the fidelity.  For the
        linear tilted-field design at c = 0.1, t_f = 10 (depth 8,
        alpha = 1.6), the 21-point systematic scan over [-0.5, 0.5] gives
        -61.6, while the second difference of the scan at lambda = +-1e-3
        gives -103.0.  Returns None when fewer than three finite points fall
        inside the window.
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
    Without the w-dependent pull (g_s total zero) the model is linear and
    runs by :func:`~socmorse.dynamics_two_level.rk4_linear`, records or
    not; otherwise by ``rk4``.

    Every run steps one ``(3, L)`` state, one column per noise strength.
    The shared drive and the per-strength damping are built one block of
    steps at a time from the 1-D schedule.  An array of L strengths
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
        rate = 0.5 * strength.reshape(-1)**2

    def damp(s):  # the damping rate on the nodes s, one column per strength
        return rate * d[s] * d[s]

    g11, g22, g12, g21 = spec.g_effective
    gd_tot = 0.5 * (g11 - g22) + 0.5 * (g12 - g21)
    gs_tot = 0.5 * (g11 + g22) - 0.5 * (g12 + g21)
    x, y, z_eff = 2.0 * od.real, 2.0 * od.imag, z + gd_tot
    zero = np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        if gs_tot == 0.0:
            def loss(s):
                return -damp(s)

            steps, states = rk4_linear(((loss, z_eff, -y), (-z_eff, loss, x), (y, -x, zero)),
                                       start, nsteps, h, record_stride)
        else:
            pull = np.array([[gs_tot], [-gs_tot]])

            def tables(s):
                drive = np.stack((zero[s], z_eff[s], -y[s], -z_eff[s], zero[s], x[s], y[s],
                                  -x[s], zero[s]), axis=1).reshape(-1, 3, 3)
                return drive, damp(s)

            at = _node_blocks(tables)

            def deriv(j, s):
                (drive, damp_rows), k = at(j)
                out = drive[k] @ s
                out[:2] += (pull * s[2]) * s[1::-1] - damp_rows[k] * s[:2]
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


def _scan_nodes(t_f, step, values):
    """:func:`~socmorse.dynamics_two_level.half_step_nodes` for a batched
    scan over ``values``; raises :class:`DomainError` when the points times
    nodes exceed :data:`MAX_SCAN_NODES`, before any work is done."""
    nsteps, h, nodes = half_step_nodes(t_f, step)
    if np.size(values) * len(nodes) > MAX_SCAN_NODES:
        raise DomainError(f"{np.size(values)} scan points of {len(nodes)} half-step nodes "
                          f"each exceed the {MAX_SCAN_NODES:.3g} point-node limit")
    return nsteps, h, nodes


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
    term per point, Z(t) + lambda b(t), built one block of steps at a
    time from the 1-D Z and b, with Z from the schedule's
    :meth:`~socmorse.pulse_design.PulseSchedule.reduced_terms`; a point
    whose final amplitudes are non-finite or whose norm drifted by more
    than 1e-6 is recorded as a failure.  An invalid step, or more points
    times nodes than :data:`MAX_SCAN_NODES`, raises instead.
    """
    nsteps, h, nodes = _scan_nodes(spec.t_f, settings.step, lambdas)  # raises here, not per point

    def run(lambdas):
        z, od = schedule.reduced_terms(nodes)
        b = np.asarray(schedule.b_at(nodes), dtype=float)

        def zeeman(s):  # Z + lambda b on the nodes s, one column per point
            return z[s, None] + b[s, None] * lambdas

        _, states = step_amplitudes(zeeman, od, nsteps, h,
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
                _, report = evolve(start, spec, schedule.with_channel_b_scaled(1.0 + lam),
                                   dt=dt)
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
    a failure.  An invalid ``dt``, or more points times nodes than
    :data:`MAX_SCAN_NODES`, raises instead."""
    _require_tilt_schedule(schedule)
    _scan_nodes(spec.t_f, dt, lambdas_prime)  # raises here, not per point

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


def stochastic_oracle(spec: TransferSpec, schedule: PulseSchedule,
                      lambda_prime: float, trajectories: int = 1000,
                      seed: int = 0, dt: float = 1e-3):
    """Trajectory-averaged fidelity under white Zeeman-amplitude noise.

    Each step applies the exact dephasing kick K_j = exp(i theta_j sigma_z),
    theta_j = -lambda' (D/4) sqrt(h) xi_j with xi_j ~ N(0, 1), on both sides
    of one deterministic midpoint-frozen step U_j of the (mean-field)
    reduced model: c -> K_j U_j K_j c.  Both half-kicks of a step share one
    normal, so the noise/drift splitting is first-order weak: at
    lambda' = 0.5 its mean misses the converged master equation by 2.42e-4,
    1.21e-4 and 6.06e-5 at dt = 2e-3, 1e-3 and 5e-4.

    Only the relative phase of the two amplitudes is carried, since a
    common phase changes neither |c1|^2 nor |c2|^2, the only state the
    mean-field drive reads.  So U_j is taken without its trace (zero in the
    linear model), K_j = e^{i theta_j} diag(1, e^{-2i theta_j}) is the one
    factor e^{-2i theta_j} on c2, and the kicks after step j-1 and before
    step j merge into one factor e^{-2i (theta_{j-1} + theta_j)} per step
    boundary: theta_0 alone before the first step, and no kick after the
    last, which cannot change |c2|^2.

    Per-trajectory noise streams are derived deterministically from (seed,
    trajectory index), so the result does not depend on evaluation order;
    they are drawn ``_ORACLE_BLOCK`` steps at a time into buffers allocated
    once per call, and the last angle of a block is carried into the next,
    which leaves each stream and each kick unchanged.  Without interactions
    the deterministic step does not depend on the state and is tabulated
    once for every midpoint.  Returns (fidelity, stderr).
    """
    _require_tilt_schedule(schedule)
    if not MIN_TRAJECTORIES <= trajectories <= MAX_TRAJECTORIES:
        raise DomainError(f"need {MIN_TRAJECTORIES} to {MAX_TRAJECTORIES} trajectories, "
                          f"got {trajectories}")
    nsteps, h, _ = half_step_nodes(spec.t_f, dt)
    mids = (np.arange(nsteps) + 0.5) * h
    z_m, od_m = schedule.reduced_terms(mids)
    d_m = np.asarray(schedule.b_at(mids), dtype=float)
    angle_scale = (0.5 * lambda_prime * d_m * np.sqrt(h))[:, None]  # -2 theta_j / xi_j
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            for i in range(trajectories)]

    c1 = np.ones(trajectories, dtype=complex)
    c2 = np.zeros(trajectories, dtype=complex)
    if spec.interacting:
        g11, g22, g12, g21 = spec.g_effective
        pull1, pull2 = 0.5 * (g11 - g21), 0.5 * (g12 - g22)

        def steps(start, stop):
            # lazily: U_j reads the populations step j starts from
            for j in range(start, stop):
                p1 = c1.real**2 + c1.imag**2
                p2 = c2.real**2 + c2.imag**2
                yield su2_exp(0.5 * z_m[j] + pull1 * p1 + pull2 * p2, od_m[j], h)
    else:
        tabled = su2_exp(0.5 * z_m, od_m, h)

        def steps(start, stop):
            return zip(*(u[start:stop].tolist() for u in tabled))

    block = min(_ORACLE_BLOCK, nsteps)
    flat = np.empty(block * trajectories)  # draws, then the merged angles
    angles = np.empty((block, trajectories))
    kicks = np.empty((block, trajectories), dtype=complex)
    carried = np.zeros(trajectories)  # the angle of the step before the block
    t1, t2 = np.empty_like(c1), np.empty_like(c1)
    for start in range(0, nsteps, block):
        n = min(block, nsteps - start)
        draws = flat[:n * trajectories].reshape(trajectories, n)
        for rng, row in zip(rngs, draws):
            rng.standard_normal(out=row)
        scale, rows = angle_scale[start:start + n], angles[:n]
        for j0 in range(0, n, _ORACLE_TILE):
            j1 = j0 + _ORACLE_TILE
            for i0 in range(0, trajectories, _ORACLE_TILE):
                i1 = i0 + _ORACLE_TILE
                np.multiply(draws[i0:i1, j0:j1].T, scale[j0:j1], out=rows[j0:j1, i0:i1])
        merged = flat[:n * trajectories].reshape(n, trajectories)
        np.add(carried, rows[0], out=merged[0])
        np.add(rows[1:], rows[:-1], out=merged[1:])
        carried[:] = rows[-1]
        for kick, (u11, u12, u21, u22) in zip(_cis(merged, out=kicks[:n], scratch=rows),
                                              steps(start, start + n)):
            c2 *= kick
            np.multiply(c1, u21, out=t1)
            c1 *= u11
            np.multiply(c2, u12, out=t2)
            c1 += t2
            c2 *= u22
            c2 += t1

    target_pop = c2.real**2 + c2.imag**2
    fid = float(np.mean(target_pop))
    stderr = float(np.std(target_pop) / np.sqrt(trajectories))
    return fid, stderr
