"""Full 1D spinor dynamics on a spatial grid by operator splitting.

This is the validation layer for the reduced-basis designs: nothing here
assumes the two-level truncation or the small-tilt linearization.  Each
step applies exact exponentials of the position-space part (potential,
Zeeman, mean-field diagonal, Raman coupling) and of the momentum-space
part (kinetic term plus the momentum-proportional spin coupling), with
controls sampled at the step midpoint: the time-splitting spectral scheme
of Bao, Jaksch & Markowich, J. Comput. Phys. 187, 318 (2003).

The spinor is held as one stacked ``(2, N)`` array, transformed by one FFT
call per direction.  The momentum step is the same constant diagonal table
for every scheme, exp(-i h (k^2/2 + alpha k sigma_z)).  For the Raman scheme
that is the lab-frame step.  The tilted field couples alpha k to
M(theta1) = [[cos theta1, sin theta1], [sin theta1, -cos theta1]], and
M(theta1) = R sigma_z R^T with R = R(theta1/2) a real rotation that is the
same at every x and commutes with the FFT.  So the tilted-field schemes run
in the rotated frame chi = R_i^T psi of their step i, where the momentum
step is the Raman one; the frame change is folded into the position step.

In the linear schemes the Zeeman and Raman terms do not depend on x, so a
position half-step factors into the precomputed potential phase
exp(-i tau U(x)) times one 2x2 spin matrix shared by every grid point: S_i =
exp(-i tau [[b/2, w], [w, -b/2]]) (w = 0 for the tilted field), times R_i on
the way out of frame i and R_i^T on the way into it.  Between record points
the closing half-step of one step and the opening half-step of the next are
applied as one factor, exp(-i h U(x)) times R_{i+1}^T S_{i+1} S_i R_i; they
are split only where a record is taken, and records are taken in the lab
frame.

With the tilted-field mean field the position factor is spin diagonal in the
lab frame but varies with x, so it does not commute with R.  A merged step
turns the spinor to the lab frame with R_i, applies there one phase for the
potential, Zeeman and mean-field terms, and turns back with R_{i+1}^T; R is
real, so each turn is one real product on the spinor's float view.  The
phase leaves |psi_up|^2 and |psi_down|^2 unchanged, so both merged halves
see the density the momentum step left, and computing it once per step is
exact.  It is formed from the half-angle tangent (see ``_cis``).  The Raman
scheme carries no mean field (:class:`~socmorse.pulse_design.TransferSpec`
rejects interaction constants there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import fft as sp_fft

from .dynamics_two_level import half_step_nodes
from .errors import DomainError, NumericalFailureError
from .morse import MorseSpec, eigenfunction, potential
from .numerics import _cis, su2_exp, write_csv
from .pulse_design import PulseSchedule, TransferSpec, raw_from_effective

__all__ = [
    "SpatialGrid",
    "SpinorField",
    "GridRunReport",
    "init_basis_state",
    "target_state",
    "evolve",
    "density_profile",
]


# Most points one grid may hold: a 20-step grid run on 2**20 points took 9 s
# and 422 MiB peak resident memory on a 2-core Xeon.
MAX_POINTS = 2**20


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid and its Fourier dual."""

    x_min: float = -5.0
    x_max: float = 25.0
    points: int = 2048

    def __post_init__(self):
        if self.points < 512:
            raise DomainError("need at least 512 grid points")
        if self.points > MAX_POINTS:
            raise DomainError(f"{self.points} grid points exceed the {MAX_POINTS}-point limit")
        if self.points & (self.points - 1):
            raise DomainError("points must be a power of two")
        if not self.x_min < self.x_max:
            raise DomainError("need x_min < x_max")
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max) and np.isfinite(self.dx)):
            raise DomainError(f"need finite bounds and spacing, got "
                              f"[{self.x_min}, {self.x_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.points

    @cached_property
    def x(self):
        return self.x_min + self.dx * np.arange(self.points)

    @cached_property
    def k(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)


@dataclass
class SpinorField:
    """Two complex fields over one grid."""

    grid: SpatialGrid
    up: np.ndarray
    down: np.ndarray


@dataclass
class GridRunReport:
    """Time series recorded during one evolution plus run metadata."""

    times: np.ndarray
    norm: np.ndarray
    x_expect: np.ndarray
    Px: np.ndarray
    Py: np.ndarray
    Pz: np.ndarray
    fidelity: np.ndarray
    max_abs_tilt: Optional[float]
    settings: dict = field(default_factory=dict)

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelity[-1])

    def to_csv(self, path):
        return write_csv(path, "t,norm,x_expect,Px,Py,Pz,fidelity",
                         (self.times, self.norm, self.x_expect, self.Px, self.Py,
                          self.Pz, self.fidelity))


def _basis_profile(grid: SpatialGrid, morse: MorseSpec, n: int, spin: str,
                   alpha: float):
    boost = -1j * alpha if spin == "up" else 1j * alpha
    psi = eigenfunction(morse.bound_state(n), morse)(grid.x)
    return psi * np.exp(boost * grid.x)


def init_basis_state(grid: SpatialGrid, morse: MorseSpec, n: int, spin: str,
                     alpha: float) -> SpinorField:
    """Boosted bound state in one spin component, normalized on the grid.

    Raises :class:`DomainError` when the grid cannot hold the state: its
    mass on the grid is zero or not finite, or more than 1e-10 of it lies in
    the outer 5% of the domain.
    """
    if spin not in ("up", "down"):
        raise DomainError("spin must be 'up' or 'down'")
    comp = _basis_profile(grid, morse, n, spin, alpha)
    mass = float(np.sum(np.abs(comp) ** 2) * grid.dx)
    if not 0.0 < mass < np.inf:
        raise DomainError(f"grid [{grid.x_min}, {grid.x_max}] cannot hold state n={n}: "
                          f"its mass on the grid is {mass:.3g}")
    comp = comp / np.sqrt(mass)
    edge = max(1, grid.points // 20)
    density = np.abs(comp) ** 2 * grid.dx
    outer = float(np.sum(density[:edge]) + np.sum(density[-edge:]))
    if not outer <= 1e-10:  # nan fails too
        raise DomainError(
            f"grid [{grid.x_min}, {grid.x_max}] cannot hold state n={n}: "
            f"outer-5% mass {outer:.3g} exceeds 1e-10"
        )
    zero = np.zeros_like(comp)
    if spin == "up":
        return SpinorField(grid, comp, zero)
    return SpinorField(grid, zero, comp)


def target_state(grid: SpatialGrid, spec: TransferSpec) -> SpinorField:
    """Grid-discretized transfer target (state l, spin down)."""
    return init_basis_state(grid, spec.morse, spec.l, "down", spec.alpha)


def _observables(psi, tgt, grid: SpatialGrid):
    """Norm, coordinate mean, polarization components and the fidelity to
    ``tgt`` of the stacked ``(2, N)`` spinor ``psi``, in the column order of
    :class:`GridRunReport`."""
    dx = grid.dx
    dens_up = np.abs(psi[0]) ** 2
    dens_dn = np.abs(psi[1]) ** 2
    cross = np.sum(np.conj(psi[1]) * psi[0]) * dx
    overlap = np.sum(np.conj(tgt[0]) * psi[0] + np.conj(tgt[1]) * psi[1]) * dx
    return (float(np.sum(dens_up + dens_dn) * dx),
            float(np.sum(grid.x * (dens_up + dens_dn)) * dx),
            float(2.0 * cross.real),
            float(-2.0 * cross.imag),
            float(np.sum(dens_up - dens_dn) * dx),
            float(np.abs(overlap) ** 2))


def density_profile(fld: SpinorField):
    """Per-spin densities |psi(x)|^2 on the field's grid."""
    return np.abs(fld.up) ** 2, np.abs(fld.down) ** 2


def _turn(rot, psi):
    """rot @ psi for a real 2x2 ``rot`` and a C-contiguous complex spinor,
    as one real product on its float view."""
    return (rot @ psi.view(np.float64)).view(complex)


def evolve(fld: SpinorField, spec: TransferSpec, schedule: PulseSchedule,
           dt: float = 1e-3, t_f: Optional[float] = None,
           record_stride: int = 20):
    """Propagate the spinor field under the scheduled controls.

    Returns the final field and a :class:`GridRunReport`.  Strang splitting:
    half step in position space, full step in momentum space, half step in
    position space, with all controls evaluated at the step midpoint.  Mean
    field terms (present whenever the spec carries interaction constants)
    use the instantaneous densities and the raw per-spin couplings recovered
    from the spec's effective ones.

    Every scheme takes the same momentum step, the constant diagonal table
    exp(-i h (k^2/2 + alpha k sigma_z)).  The tilted-field schemes get it by
    running in the frame chi = R_i^T psi, R_i = R(theta1_i/2), of their step
    i: exp(-i h alpha k M(theta1)) = R_i exp(-i h alpha k sigma_z) R_i^T.
    Without mean field a position half-step is the potential phase
    exp(-i tau U(x)) times a 2x2 spin matrix that is the same at every grid
    point, with R_i or R_i^T folded in.  Between record points the closing
    half-step of one step and the opening half-step of the next are applied
    as one position factor: exp(-i h U(x)) times R_{i+1}^T S_{i+1} S_i R_i.
    The tilted-field mean field adds a spin-diagonal phase, so the merged
    factor turns the spinor to the lab frame with R_i, applies one phase for
    the potential, Zeeman and mean-field terms there and turns it back with
    R_{i+1}^T; the phase leaves each |psi|^2 as the momentum step left it,
    so one density per step serves both halves exactly.  Records and the
    returned field are in the lab frame.  The steps come from the one step
    rule, :func:`~socmorse.dynamics_two_level.half_step_nodes`.  Raises
    :class:`DomainError` unless ``dt`` and ``t_f`` are finite and positive
    and ``record_stride >= 1``.
    """
    raman = spec.scheme == "raman"
    if raman != (schedule.spec.scheme == "raman"):
        raise DomainError(
            f"schedule for scheme {schedule.spec.scheme!r} cannot drive "
            f"a {spec.scheme!r} simulation"
        )
    if t_f is None:
        t_f = schedule.t_f
    nsteps, h, _ = half_step_nodes(t_f, dt)
    if not record_stride >= 1:
        raise DomainError(f"record_stride must be at least 1, got {record_stride!r}")
    grid = fld.grid
    tau = 0.5 * h
    mids = (np.arange(nsteps) + 0.5) * h
    amp_mid = np.asarray(schedule.a_at(mids), dtype=float)
    gap_mid = np.asarray(schedule.b_at(mids), dtype=float)
    w_mid = 0.5 * amp_mid if raman else np.zeros(nsteps)

    u_pot = potential(grid.x, spec.morse)
    k = grid.k
    # exp(-i h (k^2/2 + alpha k sigma_z)): the momentum step of every scheme
    mom = np.exp(-1j * h * 0.5 * k**2) * np.exp(-1j * h * spec.alpha
                                                * np.outer([1.0, -1.0], k))

    if not raman:  # R_i = R(theta1_i/2), M(theta1_i) = R_i sigma_z R_i^T
        cos_h, sin_h = np.cos(0.5 * amp_mid), np.sin(0.5 * amp_mid)
        rot = np.array([[cos_h, -sin_h], [sin_h, cos_h]]).transpose(2, 0, 1)

    if spec.interacting:
        # Only a tilted-field scheme gets here (TransferSpec rejects a Raman
        # mean field).  The density is a lab-frame quantity, and there the
        # potential, Zeeman and mean-field terms are all spin diagonal: one
        # phase per position step, between R_i (out of frame i) and
        # R_{i+1}^T (into frame i+1).  zeeman[i] is the Zeeman half-step's
        # angle, -tau b/2 for spin up and +tau b/2 for spin down.
        g_uu, g_dd, g_ud, g_du = raw_from_effective(spec)
        g_mat = np.array([[g_uu, g_ud], [g_du, g_dd]])
        zeeman = np.multiply.outer(0.5 * tau * gap_mid, [[-1.0], [1.0]])
        zeeman_merged = zeeman[1:] + zeeman[:-1]

        def lab_phase(psi, halves, zeeman_angle):
            angle = g_mat @ (psi.real**2 + psi.imag**2)
            angle += u_pot
            angle *= -(halves * tau)
            angle += zeeman_angle
            return _cis(angle)

        def leave(i, chi):
            psi = _turn(rot[i], chi)
            return lab_phase(psi, 1, zeeman[i]) * psi

        def enter(i, psi):
            return _turn(rot[i].T, lab_phase(psi, 1, zeeman[i]) * psi)

        def merged(i, chi):
            psi = _turn(rot[i], chi)
            return _turn(rot[i + 1].T, lab_phase(psi, 2, zeeman_merged[i]) * psi)
    else:
        # to_lab[i] ends a position half-step in the lab frame: the spin
        # matrix S_i for Raman, S_i R_i for the tilted field, whose S_i =
        # diag(u11, u22) and R_i = R(theta1_i/2) is real.  S_i is symmetric in
        # both, so the transpose R_i^T S_i starts one from the lab frame into
        # frame i.
        u11, u12, u21, u22 = su2_exp(0.5 * gap_mid, w_mid, tau)
        if raman:
            to_lab = np.array([[u11, u12], [u21, u22]]).transpose(2, 0, 1)
        else:
            to_lab = np.stack((u11, u22), axis=1)[:, :, None] * rot
        to_frame = to_lab.transpose(0, 2, 1)
        spin_merged = to_frame[1:] @ to_lab[:-1]
        u_phases = {halves: np.exp(-1j * (halves * tau) * u_pot) for halves in (1, 2)}

        def leave(i, chi):
            return u_phases[1] * (to_lab[i] @ chi)

        def enter(i, psi):
            return u_phases[1] * (to_frame[i] @ psi)

        def merged(i, chi):
            return u_phases[2] * (spin_merged[i] @ chi)

    target = target_state(grid, spec)
    tgt = np.array([target.up, target.down])
    psi = np.array([fld.up, fld.down], dtype=complex)

    records = []  # rows (t, *_observables)

    def record(t):
        obs = _observables(psi, tgt, grid)
        records.append((t, *obs))
        norm = obs[0]
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-4:
            raise NumericalFailureError(
                f"norm {norm!r} at t={t:.6g} (step {len(records)})", time=t
            )

    record(0.0)
    psi = enter(0, psi)
    for i in range(nsteps):
        f = sp_fft.fft(psi, overwrite_x=True)
        f *= mom
        psi = sp_fft.ifft(f, overwrite_x=True)
        step_no = i + 1
        if step_no % record_stride and step_no < nsteps:
            psi = merged(i, psi)
            continue
        psi = leave(i, psi)
        record(step_no * h)
        if step_no < nsteps:
            psi = enter(i + 1, psi)

    report = GridRunReport(
        *np.array(records).T,
        max_abs_tilt=None if raman else float(np.max(np.abs(amp_mid))),
        settings={
            "dt": h,
            "t_f": t_f,
            "points": grid.points,
            "x_min": grid.x_min,
            "x_max": grid.x_max,
            "scheme": spec.scheme,
            "record_stride": record_stride,
        },
    )
    return SpinorField(grid, psi[0], psi[1]), report
