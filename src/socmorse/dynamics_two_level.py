"""Exact propagation in the reduced two-state basis, and the one
fixed-step RK4 behind every reduced-model run.

States live in the ordered basis (initial vibrational state with spin up,
target state with spin down); the Hamiltonian comes from the schedule's
:meth:`~socmorse.pulse_design.PulseSchedule.reduced_terms` in its traceless
form.  The mean-field variant adds the state-dependent diagonal and remains
norm preserving because that diagonal is real.

:func:`rk4` steps a tuple of Python scalars (one run, the cheapest form
for a single state) or one stacked array whose columns are scan points,
stepped together, with the drive tabulated once on the half-step node grid
of :func:`half_step_nodes`.
A linear model that needs only its final state (the non-interacting scans)
takes :func:`rk4_linear`: the same RK4 step written as a transfer matrix,
tabulated for blocks of steps and composed by pairwise products instead of
a step loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailureError
from .morse import MatrixElements, characteristic_length
from .numerics import OdeSettings, write_csv
from .pulse_design import PulseSchedule, TransferSpec

__all__ = [
    "Trajectory",
    "half_step_nodes",
    "rk4",
    "rk4_linear",
    "step_amplitudes",
    "propagate",
    "propagate_nonlinear",
    "spin_polarization",
    "expectation_x",
]


@dataclass
class Trajectory:
    """Two-level propagation record with the data its observables need."""

    times: np.ndarray
    states: np.ndarray  # (len(times), 2) complex
    spec: TransferSpec
    me: MatrixElements

    def norm(self):
        return np.sum(np.abs(self.states) ** 2, axis=1)

    @property
    def final_fidelity(self) -> float:
        return float(np.abs(self.states[-1, 1]) ** 2)

    def observables(self, stride: int = 1):
        """Every recorded observable by column name, each ``stride``-th record."""
        px, py, pz = spin_polarization(self, self.me)
        xev = expectation_x(self, self.me)
        c1, c2 = self.states.T
        columns = {
            "t": self.times, "re_c1": c1.real, "im_c1": c1.imag,
            "re_c2": c2.real, "im_c2": c2.imag, "Px": px, "Py": py, "Pz": pz,
            "x_expect": xev,
            "x_expect_over_lc": xev / characteristic_length(self.spec.morse),
            "fidelity": np.abs(c2) ** 2,
        }
        return {name: col[::stride] for name, col in columns.items()}

    def to_csv(self, path, stride: int = 1):
        columns = self.observables(stride)
        return write_csv(path, ",".join(columns), columns.values())


# Most fixed steps one run may take: a 1e6-step two-level simulate run took
# 10-12 s and 551 MiB peak resident memory on a 2-core Xeon.
MAX_STEPS = 10**6


def half_step_nodes(t_f: float, step: float):
    """``(nsteps, h, nodes)``: the number and size of fixed steps that cover
    ``t_f`` nearest to ``step``, and the node grid 0, h/2, h, ..., t_f on
    which :func:`rk4` evaluates the drive.  The one step-grid rule of every
    propagator, the grid engine's included.  Raises :class:`DomainError`
    unless both are finite and positive and ``t_f / step`` is at most
    :data:`MAX_STEPS`, before anything is allocated."""
    if not (np.isfinite(step) and step > 0.0 and np.isfinite(t_f) and t_f > 0.0):
        raise DomainError(f"need a finite positive step and duration, got "
                          f"step={step:.6g}, t_f={t_f:.6g}")
    if t_f / step > MAX_STEPS:
        raise DomainError(f"t_f / step = {t_f / step:.6g} exceeds the "
                          f"{MAX_STEPS:.0e}-step limit (t_f={t_f:.6g}, step={step:.6g})")
    nsteps = max(1, int(round(t_f / step)))
    return nsteps, t_f / nsteps, np.linspace(0.0, t_f, 2 * nsteps + 1)


def rk4(deriv, state, nsteps, h, stride=1):
    """Classical fourth-order Runge-Kutta over ``nsteps`` steps of size h.

    ``deriv(j, *state)`` gives each component's derivative with the drive
    at node j of the half-step grid (step i uses nodes 2i, 2i+1 and 2i+2).
    Components may be scalars or equal-shape arrays.  Returns the step
    numbers and state tuples at step 0, every ``stride``-th step and the
    last step (only the first and last with ``stride=None``).
    """
    stride = stride or nsteps
    half, sixth = 0.5 * h, h / 6.0
    y = list(state)
    steps, states = [0], [tuple(y)]
    for i in range(nsteps):
        j = 2 * i
        k1 = deriv(j, *y)
        k2 = deriv(j + 1, *[c + half * k for c, k in zip(y, k1)])
        k3 = deriv(j + 1, *[c + half * k for c, k in zip(y, k2)])
        k4 = deriv(j + 2, *[c + h * k for c, k in zip(y, k3)])
        y = [c + sixth * (d1 + 2.0 * (d2 + d3) + d4)
             for c, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]
        if (i + 1) % stride == 0 or i + 1 == nsteps:
            steps.append(i + 1)
            states.append(tuple(y))
    return steps, states


# Steps whose transfer matrices rk4_linear tabulates at once.
_BLOCK = 512


def _matmul(a, b):
    """Product of two stacks of small matrices, each held entry by entry
    as a nested list of arrays with the stack on the leading axis."""
    out = []
    for row in a:
        out_row = []
        for c in range(len(b[0])):
            acc = row[0] * b[0][c]
            for k in range(1, len(b)):
                acc = acc + row[k] * b[k][c]
            out_row.append(acc)
        out.append(out_row)
    return out


def _identity_plus(s, m):
    """I + s m for a stack of matrices held as by :func:`_matmul`."""
    return [[1.0 + s * e if r == c else s * e for c, e in enumerate(row)]
            for r, row in enumerate(m)]


def _ordered_product(p):
    """p[m-1] @ ... @ p[1] @ p[0] of a stack of m matrices, by pairwise
    products; an odd last matrix is carried to the next level."""
    m = len(p[0][0])
    while m > 1:
        pairs = _matmul([[e[1:m:2] for e in row] for row in p],
                        [[e[0:m - 1:2] for e in row] for row in p])
        if m % 2:
            pairs = [[np.concatenate((e, t[m - 1:])) for e, t in zip(prow, row)]
                     for prow, row in zip(pairs, p)]
        p, m = pairs, (m + 1) // 2
    return p


def rk4_linear(matrix, state, nsteps, h):
    """:func:`rk4` with ``stride=None`` for a linear y' = A(t) y, without
    a step loop.

    ``matrix[r][c]`` holds A's (r, c) entry on the half-step nodes, with
    shape ``(nodes,)`` or ``(nodes, L)`` for L columns stepped at once.
    The same RK4 step, written out as a matrix, is y <- P_i y with
    K1 = A0, K2 = A1 (I + h/2 K1), K3 = A1 (I + h/2 K2),
    K4 = A2 (I + h K3) and P_i = I + h/6 (K1 + 2 K2 + 2 K3 + K4), where
    A0, A1, A2 sit on nodes 2i, 2i+1, 2i+2.  The P_i are tabulated entry
    by entry for blocks of ``_BLOCK`` steps, each block is reduced by
    pairwise products and the blocks are multiplied in step order.  Only
    rounding differs from the step loop.  A column that overflows comes
    back non-finite without touching the others.  Returns ``rk4``'s
    ``(steps, states)``: the first and the last step.
    """
    tables = [[np.asarray(e) for e in row] for row in matrix]
    if any(t.ndim == 2 for row in tables for t in row):
        tables = [[t.reshape(len(t), -1) for t in row] for row in tables]
    n = len(tables)
    half, sixth = 0.5 * h, h / 6.0
    total = None
    for start in range(0, nsteps, _BLOCK):
        stop = min(start + _BLOCK, nsteps)
        a0, a1, a2 = ([[t[2 * start + j:2 * stop + j:2] for t in row] for row in tables]
                      for j in (0, 1, 2))
        k1 = a0
        k2 = _matmul(a1, _identity_plus(half, k1))
        k3 = _matmul(a1, _identity_plus(half, k2))
        k4 = _matmul(a2, _identity_plus(h, k3))
        block = _ordered_product(_identity_plus(sixth, [
            [k1[r][c] + 2.0 * (k2[r][c] + k3[r][c]) + k4[r][c] for c in range(n)]
            for r in range(n)]))
        total = block if total is None else _matmul(block, total)
    final = tuple(sum(total[r][c][0] * state[c] for c in range(n)) for r in range(n))
    return [0, nsteps], [tuple(state), final]


def step_amplitudes(z, od, nsteps, h, g=None, initial=(1.0 + 0j, 0.0 + 0j), stride=1):
    """Amplitudes under H = [[z/2 + n1, od], [conj(od), -z/2 + n2]] by :func:`rk4`.

    ``z`` and ``od`` hold the drive on the half-step nodes, each with shape
    ``(nodes,)`` or ``(nodes, L)`` for L runs stepped at once.  With
    mean-field constants ``g = (g11, g22, g12, g21)`` the diagonal adds
    n1 = g11 p1 + g12 p2 and n2 = g21 p1 + g22 p2 from the populations p.
    A linear run that keeps only its ends (``g`` None, ``stride=None``)
    takes :func:`rk4_linear` instead of the step loop.  One run steps
    Python scalars; L runs step one stacked ``(2, L)`` state Y with the
    drive folded into per-node tables, dY = (D_j + G p) Y + O_j Y[::-1].
    Returns ``rk4``'s ``(steps, states)`` with ``(c1, c2)`` rows; nothing
    is checked here.
    """
    z, od = np.asarray(z), np.asarray(od)
    if g is None and stride is None:
        hz = 0.5 * z
        odc = np.conj(od)
        with np.errstate(over="ignore", invalid="ignore"):
            return rk4_linear(((-1j * hz, -1j * od), (-1j * odc, 1j * hz)),
                              initial, nsteps, h)
    if z.ndim == 1 and od.ndim == 1:
        hz, od, odc = (t.tolist() for t in (0.5 * z, od, np.conj(od)))
        g11, g22, g12, g21 = g or (0.0,) * 4

        def deriv(j, a1, a2):
            h11, h22 = hz[j], -hz[j]
            if g:
                p1 = a1.real * a1.real + a1.imag * a1.imag
                p2 = a2.real * a2.real + a2.imag * a2.imag
                h11 = h11 + (g11 * p1 + g12 * p2)
                h22 = h22 + (g21 * p1 + g22 * p2)
            return -1j * (h11 * a1 + od[j] * a2), -1j * (odc[j] * a1 + h22 * a2)

        with np.errstate(over="ignore", invalid="ignore"):
            return rk4(deriv, initial, nsteps, h, stride)

    hz, od = 0.5 * z.reshape(len(z), -1), od.reshape(len(od), -1)
    diag = -1j * np.stack((hz, -hz), axis=1)
    off = -1j * np.stack((od, od.conj()), axis=1)
    start = np.empty((2, max(hz.shape[1], od.shape[1])), dtype=complex)
    start[0], start[1] = initial
    if g:
        g11, g22, g12, g21 = g
        coupling = -1j * np.array([[g11, g12], [g21, g22]])

    def deriv(j, y):
        d = diag[j] + coupling @ (y * y.conj()).real if g else diag[j]
        return (d * y + off[j] * y[::-1],)

    with np.errstate(over="ignore", invalid="ignore"):
        steps, states = rk4(deriv, (start,), nsteps, h, stride)
    return steps, [tuple(y) for y, in states]


def _propagate(spec, me, schedule, settings, initial, nonlinear):
    nsteps, h, nodes = half_step_nodes(spec.t_f, settings.step)
    z, od = schedule.reduced_terms(nodes)
    _, states = step_amplitudes(z, od, nsteps, h, spec.g_effective if nonlinear else None,
                                (complex(initial[0]), complex(initial[1])))
    states = np.array(states, dtype=complex)
    bad = ~np.all(np.isfinite(states.view(float)), axis=1)
    if bad.any():
        t = int(np.argmax(bad)) * h
        raise NumericalFailureError(f"non-finite amplitudes at t={t:.6g}", time=t)
    norm_err = abs(float(np.sum(np.abs(states[-1]) ** 2)) - 1.0)
    if norm_err > 1e-6:
        raise NumericalFailureError(f"norm drifted by {norm_err:.3g}", time=spec.t_f)
    return Trajectory(times=np.linspace(0.0, spec.t_f, nsteps + 1), states=states,
                      spec=spec, me=me)


def propagate(spec: TransferSpec, me: MatrixElements, schedule: PulseSchedule,
              settings: OdeSettings = OdeSettings(),
              initial=(1.0 + 0j, 0.0 + 0j)) -> Trajectory:
    """Linear two-level propagation under the sampled schedule.

    Starts from the spin-up basis state by default.  Fixed-step fourth-order
    integration at ``settings.step``; channel values are pretabulated on the
    half-step grid the integrator touches.
    """
    return _propagate(spec, me, schedule, settings, initial, nonlinear=False)


def propagate_nonlinear(spec: TransferSpec, me: MatrixElements,
                        schedule: PulseSchedule,
                        settings: OdeSettings = OdeSettings(),
                        initial=(1.0 + 0j, 0.0 + 0j)) -> Trajectory:
    """Mean-field two-level propagation; the real diagonal nonlinearity
    preserves the norm, so the same drift check applies."""
    return _propagate(spec, me, schedule, settings, initial, nonlinear=True)


def spin_polarization(traj: Trajectory, me: MatrixElements):
    """Polarization components (Px, Py, Pz) along the trajectory.

    The transverse components carry the spatial overlap S of the two basis
    wavefunctions including their opposite momentum boosts; S vanishes only
    at zero spin-orbit strength, where Px = Py = 0 exactly.
    """
    c1 = traj.states[:, 0]
    c2 = traj.states[:, 1]
    cross = c1 * np.conj(c2) * me.S
    px = 2.0 * np.real(cross)
    py = -2.0 * np.imag(cross)
    pz = np.abs(c1) ** 2 - np.abs(c2) ** 2
    return px, py, pz


def expectation_x(traj: Trajectory, me: MatrixElements):
    """Coordinate expectation value along the trajectory.

    The position operator is spin diagonal and the two basis states carry
    orthogonal spins, so only the diagonal moments contribute.
    """
    p1 = np.abs(traj.states[:, 0]) ** 2
    p2 = np.abs(traj.states[:, 1]) ** 2
    return p1 * me.x_diag_n + p2 * me.x_diag_l

