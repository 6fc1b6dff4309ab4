"""Propagation in the reduced two-state basis by fixed-step classical RK4
(the CLI steps at ``grid.dt``), the one RK4 behind every reduced-model run.

States live in the ordered basis (initial vibrational state with spin up,
target state with spin down); the Hamiltonian comes from the schedule's
:meth:`~socmorse.pulse_design.PulseSchedule.reduced_terms` in its traceless
form.  The mean-field variant adds the state-dependent diagonal and remains
norm preserving because that diagonal is real.

The drive lives on the half-step node grid of :func:`half_step_nodes`.
Every linear run, whether it records a trajectory or keeps only its final
state, takes :func:`rk4_linear`: the same RK4 step written as a transfer
matrix, built for one block of steps at a time, composed by pairwise
products and applied to the state by a prefix scan instead of a step loop.
The mean-field runs take the :func:`rk4` step loop, on a tuple of Python
scalars (one run, the cheapest form for a single state) or on one stacked
array whose columns are scan points, stepped together with per-node tables
built one block of steps at a time.  A batch may give its drive as a
function of a node slice, so its ``(nodes, L)`` table is never held whole.
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
        """Every recorded observable by column name, each ``stride``-th record.

        The transverse polarization components carry the spatial overlap S
        of the two basis wavefunctions including their opposite momentum
        boosts; S vanishes only at zero spin-orbit strength, where
        Px = Py = 0 exactly.  The position operator is spin diagonal and the
        two basis states carry orthogonal spins, so only the diagonal
        moments enter <x>.
        """
        c1, c2 = self.states.T
        p1, p2 = np.abs(c1) ** 2, np.abs(c2) ** 2
        cross = c1 * np.conj(c2) * self.me.S
        xev = p1 * self.me.x_diag_n + p2 * self.me.x_diag_l
        columns = {
            "t": self.times, "re_c1": c1.real, "im_c1": c1.imag,
            "re_c2": c2.real, "im_c2": c2.imag,
            "Px": 2.0 * np.real(cross), "Py": -2.0 * np.imag(cross), "Pz": p1 - p2,
            "x_expect": xev,
            "x_expect_over_lc": xev / characteristic_length(self.spec.morse),
            "fidelity": p2,
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


def _pair_level(p):
    """The next level of the pairwise reduction of a stack of m matrices:
    the products p[2j+1] @ p[2j], with an odd last matrix carried up."""
    m = len(p[0][0])
    pairs = _matmul([[e[1:m:2] for e in row] for row in p],
                    [[e[0:m - 1:2] for e in row] for row in p])
    if m % 2:
        pairs = [[np.concatenate((e, t[m - 1:])) for e, t in zip(prow, row)]
                 for prow, row in zip(pairs, p)]
    return pairs


def _prefix_states(levels, y):
    """The state before each matrix of ``levels[0]``, from the start state y
    (a column, each entry with a leading axis of length 1), by walking the
    saved levels of :func:`_pair_level` down on vectors: the state before
    element 2j of a level is the one before element j of the level above,
    and the state before element 2j + 1 is element 2j applied to it."""
    for p in reversed(levels[:-1]):
        m = len(p[0][0])
        half = m // 2
        odd = _matmul([[e[0:2 * half:2] for e in row] for row in p],
                      [[c[:half]] for c, in y])
        nxt = []
        for (c,), (o,) in zip(y, odd):
            out = np.empty((m,) + o.shape[1:], dtype=np.result_type(c, o))
            out[0::2], out[1::2] = c, o
            nxt.append([out])
        y = nxt
    return y


def _on_nodes(entry):
    """``entry`` as a function of a slice of half-step nodes: itself when it
    is callable, else the rows of its table."""
    return entry if callable(entry) else np.asarray(entry).__getitem__


def _node_blocks(build):
    """``at(j) -> (tables, k)``: node j is row k of each table that
    ``build(nodes)`` returns for a slice of half-step nodes.  The tables are
    built for :data:`_BLOCK` steps at a time, when j leaves the last slice,
    so j must never decrease, as in :func:`rk4`."""
    lo, tables = -2 * _BLOCK, ()

    def at(j):
        nonlocal lo, tables
        if j - lo >= 2 * _BLOCK:
            lo, tables = j, build(slice(j, j + 2 * _BLOCK))
        return tables, j - lo

    return at


def rk4_linear(matrix, state, nsteps, h, stride=None):
    """:func:`rk4` for a linear y' = A(t) y, without a step loop.

    ``matrix[r][c]`` gives A's (r, c) entry on a slice of the half-step
    nodes, with shape ``(nodes,)`` or ``(nodes, L)`` for L columns stepped
    at once: either as a function of the slice, or as a table over every
    node, which is read by the same slices.  The same RK4 step, written out
    as a matrix, is y <- P_i y with K1 = A0, K2 = A1 (I + h/2 K1),
    K3 = A1 (I + h/2 K2), K4 = A2 (I + h K3) and
    P_i = I + h/6 (K1 + 2 K2 + 2 K3 + K4), where A0, A1, A2 sit on nodes
    2i, 2i+1, 2i+2.  The run goes in blocks of ``_BLOCK`` steps, and each
    block asks for the entries on its own 2 ``_BLOCK`` + 1 nodes only, so
    no table spans the run unless a caller passes one.  Each block's P_i
    are reduced by pairwise products (the up-sweep) and its product carries
    the state to the next block; a block that records a state past its
    start also walks the saved products down on its start state (the
    down-sweep of a work-efficient scan), so every record is a prefix
    product P_k ... P_0 y0.  Only rounding differs from the step loop.  A
    column that overflows comes back non-finite without touching the
    others.  Returns ``rk4``'s steps, for the same ``stride``, and the
    states as one array whose rows unpack like ``rk4``'s state tuples:
    shape ``(records, n)``, or ``(records, n, L)`` with L columns.
    """
    entries = [[_on_nodes(e) for e in row] for row in matrix]
    y = [np.asarray(c) for c in state]
    wide = any(c.ndim for c in y)  # has a column axis
    y = [[c.reshape(1, -1) if wide else c[None]] for c in y]
    n = len(entries)
    half, sixth = 0.5 * h, h / 6.0
    stride = stride or nsteps
    steps, records = [], []
    for start in range(0, nsteps, _BLOCK):
        stop = min(start + _BLOCK, nsteps)
        tables = [[np.asarray(e(slice(2 * start, 2 * stop + 1))) for e in row]
                  for row in entries]
        wide = wide or any(t.ndim == 2 for row in tables for t in row)
        if wide:
            tables = [[t.reshape(len(t), -1) for t in row] for row in tables]
        width = np.broadcast_shapes(*(t.shape[1:] for row in tables for t in row),
                                    *(c.shape[1:] for c, in y))
        y = [[np.broadcast_to(c, (1,) + width)] for c, in y]
        a0, a1, a2 = ([[t[j:j + 2 * (stop - start):2] for t in row] for row in tables]
                      for j in (0, 1, 2))
        k1 = a0
        k2 = _matmul(a1, _identity_plus(half, k1))
        k3 = _matmul(a1, _identity_plus(half, k2))
        k4 = _matmul(a2, _identity_plus(h, k3))
        picks = range(start + -start % stride, stop, stride)  # steps recorded here
        sweep = bool(picks) and picks[-1] > start  # a record past the block start
        levels = [_identity_plus(sixth, [
            [k1[r][c] + 2.0 * (k2[r][c] + k3[r][c]) + k4[r][c] for c in range(n)]
            for r in range(n)])]
        while len(levels[-1][0][0]) > 1:
            top = _pair_level(levels[-1])
            levels = levels + [top] if sweep else [top]
        if picks:
            before = _prefix_states(levels, y) if sweep else y
            records.append(np.stack([c[picks.start - start::stride] for c, in before], axis=1))
            steps.extend(picks)
        y = _matmul(levels[-1], y)
    steps.append(nsteps)
    records.append(np.stack([c for c, in y], axis=1))
    return steps, np.concatenate(records)


def step_amplitudes(z, od, nsteps, h, g=None, initial=(1.0 + 0j, 0.0 + 0j), stride=1):
    """Amplitudes under H = [[z/2 + n1, od], [conj(od), -z/2 + n2]].

    ``z`` and ``od`` give the drive on the half-step nodes, each as a table
    of shape ``(nodes,)`` or ``(nodes, L)`` for L runs stepped at once, or
    as a function of a node slice that gives the drive on those nodes (a
    batch of runs, whose ``(nodes, L)`` table is then never held whole).  A
    linear run (``g`` None) takes :func:`rk4_linear`, whatever the stride.
    With mean-field constants ``g = (g11, g22, g12, g21)`` the diagonal
    adds n1 = g11 p1 + g12 p2 and n2 = g21 p1 + g22 p2 from the populations
    p, and the run takes the :func:`rk4` step loop: one run, two 1-D
    tables, steps Python scalars; a batch steps one stacked ``(2, L)``
    state Y with the drive folded into per-node tables, built one block of
    steps at a time, dY = (D_j + G p) Y + O_j Y[::-1].  Returns ``rk4``'s
    ``(steps, states)`` with ``(c1, c2)`` rows; nothing is checked here.
    """
    if g is None:
        z, od = _on_nodes(z), _on_nodes(od)
        entries = ((lambda s: -1j * (0.5 * z(s)), lambda s: -1j * od(s)),
                   (lambda s: -1j * np.conj(od(s)), lambda s: 1j * (0.5 * z(s))))
        with np.errstate(over="ignore", invalid="ignore"):
            return rk4_linear(entries, initial, nsteps, h, stride)
    g11, g22, g12, g21 = g
    if not callable(z) and np.ndim(z) == 1 and np.ndim(od) == 1:
        hz, od, odc = (t.tolist() for t in (0.5 * np.asarray(z), np.asarray(od), np.conj(od)))

        def deriv(j, a1, a2):
            p1 = a1.real * a1.real + a1.imag * a1.imag
            p2 = a2.real * a2.real + a2.imag * a2.imag
            h11 = hz[j] + (g11 * p1 + g12 * p2)
            h22 = -hz[j] + (g21 * p1 + g22 * p2)
            return -1j * (h11 * a1 + od[j] * a2), -1j * (odc[j] * a1 + h22 * a2)

        with np.errstate(over="ignore", invalid="ignore"):
            return rk4(deriv, initial, nsteps, h, stride)

    z, od = _on_nodes(z), _on_nodes(od)

    def tables(nodes):
        hz, o = 0.5 * np.asarray(z(nodes)), np.asarray(od(nodes))
        hz, o = hz.reshape(len(hz), -1), o.reshape(len(o), -1)
        return -1j * np.stack((hz, -hz), axis=1), -1j * np.stack((o, o.conj()), axis=1)

    at = _node_blocks(tables)
    start = np.empty((2, max(t.shape[2] for t in at(0)[0])), dtype=complex)
    start[0], start[1] = initial
    coupling = -1j * np.array([[g11, g12], [g21, g22]])

    def deriv(j, y):
        (diag, off), k = at(j)
        return ((diag[k] + coupling @ (y * y.conj()).real) * y + off[k] * y[::-1],)

    with np.errstate(over="ignore", invalid="ignore"):
        steps, states = rk4(deriv, (start,), nsteps, h, stride)
    return steps, [tuple(y) for y, in states]


def _propagate(spec, me, schedule, settings, initial, nonlinear):
    nsteps, h, nodes = half_step_nodes(spec.t_f, settings.step)
    z, od = schedule.reduced_terms(nodes)
    _, states = step_amplitudes(z, od, nsteps, h, spec.g_effective if nonlinear else None,
                                (complex(initial[0]), complex(initial[1])))
    states = np.asarray(states, dtype=complex)
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

