"""Exact propagation in the reduced two-state basis, and the one
fixed-step integrator behind every reduced-model run.

States live in the ordered basis (initial vibrational state with spin up,
target state with spin down); the Hamiltonian comes from the schedule's
:meth:`~socmorse.pulse_design.PulseSchedule.reduced_terms` in its traceless
form.  The mean-field variant adds the state-dependent diagonal and remains
norm preserving because that diagonal is real.

:func:`rk4` steps a tuple of components that are Python scalars (one run)
or ``(L,)`` arrays (one row per scan point, stepped together), with the
drive tabulated once on the half-step node grid of :func:`half_step_nodes`.
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
    "node_table",
    "rk4",
    "step_amplitudes",
    "propagate",
    "propagate_nonlinear",
    "spin_polarization",
    "expectation_x",
    "fidelity",
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

    def fidelity_series(self, target: int = 2):
        return np.abs(self.states[:, target - 1]) ** 2

    @property
    def final_state(self):
        return self.states[-1]

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
            "fidelity": self.fidelity_series(),
        }
        return {name: col[::stride] for name, col in columns.items()}

    def to_csv(self, path, stride: int = 1):
        columns = self.observables(stride)
        return write_csv(path, ",".join(columns), columns.values())


def half_step_nodes(t_f: float, step: float):
    """``(nsteps, h, nodes)``: the number and size of fixed steps that cover
    ``t_f`` nearest to ``step``, and the node grid 0, h/2, h, ..., t_f on
    which :func:`rk4` evaluates the drive."""
    nsteps = max(1, int(round(t_f / step)))
    return nsteps, t_f / nsteps, np.linspace(0.0, t_f, 2 * nsteps + 1)


def node_table(values):
    """A drive table ready for per-node lookup: a 1-D table becomes a list
    of Python scalars (much faster to index and to combine with scalar
    states); a ``(nodes, L)`` table stays an array of rows."""
    values = np.asarray(values)
    return values.tolist() if values.ndim == 1 else values


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


def step_amplitudes(z, od, nsteps, h, g=None, initial=(1.0 + 0j, 0.0 + 0j), stride=1):
    """Amplitudes under H = [[z/2 + n1, od], [conj(od), -z/2 + n2]] by :func:`rk4`.

    ``z`` and ``od`` hold the drive on the half-step nodes, each with shape
    ``(nodes,)`` or ``(nodes, L)`` for L runs stepped at once.  With
    mean-field constants ``g = (g11, g22, g12, g21)`` the diagonal adds
    n1 = g11 p1 + g12 p2 and n2 = g21 p1 + g22 p2 from the populations p.
    Returns ``rk4``'s ``(steps, states)``; nothing is checked here.
    """
    hz, od, odc = (node_table(t) for t in (0.5 * np.asarray(z), od, np.conj(od)))
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


def fidelity(state, target: int = 2) -> float:
    """Squared amplitude on the requested basis state (1 or 2)."""
    if target not in (1, 2):
        raise DomainError("target index must be 1 or 2")
    c = np.asarray(state, dtype=complex)
    return float(np.abs(c[target - 1]) ** 2)
