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
coupling mixes the spins in position space, so a Raman mean field
(``transfer.scheme = raman`` with any ``interaction.g_*`` set, run by
``socmorse simulate --engine grid``) keeps the per-point exponential with
the density refreshed before every half-step.
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
from .numerics import su2_exp, write_csv
from .pulse_design import PulseSchedule, TransferSpec, raw_from_effective

__all__ = [
    "SpatialGrid",
    "SpinorField",
    "GridObservables",
    "GridRunReport",
    "init_basis_state",
    "target_state",
    "evolve",
    "observables",
    "density_profile",
]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid and its Fourier dual."""

    x_min: float = -5.0
    x_max: float = 25.0
    points: int = 2048

    def __post_init__(self):
        if self.points < 512:
            raise DomainError("need at least 512 grid points")
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

    def norm(self) -> float:
        return float(np.sum(np.abs(self.up) ** 2 + np.abs(self.down) ** 2)
                     * self.grid.dx)

    def copy(self) -> "SpinorField":
        return SpinorField(self.grid, self.up.copy(), self.down.copy())

    def overlap(self, other: "SpinorField") -> complex:
        return complex(
            np.sum(np.conj(other.up) * self.up + np.conj(other.down) * self.down)
            * self.grid.dx
        )


@dataclass(frozen=True)
class GridObservables:
    norm: float
    x_expect: float
    Px: float
    Py: float
    Pz: float
    fidelity: float


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
    final_fidelity: float
    max_abs_tilt: Optional[float]
    settings: dict = field(default_factory=dict)

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


def observables(fld: SpinorField, grid: SpatialGrid, morse: MorseSpec,
                spec: TransferSpec) -> GridObservables:
    """Norm, coordinate mean, polarization components, target fidelity."""
    tgt = init_basis_state(grid, morse, spec.l, "down", spec.alpha)
    return _observables_fast(fld, tgt)


def _observables_fast(fld: SpinorField, tgt: SpinorField) -> GridObservables:
    dx = fld.grid.dx
    dens_up = np.abs(fld.up) ** 2
    dens_dn = np.abs(fld.down) ** 2
    cross = np.sum(np.conj(fld.down) * fld.up) * dx
    return GridObservables(
        norm=float(np.sum(dens_up + dens_dn) * dx),
        x_expect=float(np.sum(fld.grid.x * (dens_up + dens_dn)) * dx),
        Px=float(2.0 * cross.real),
        Py=float(-2.0 * cross.imag),
        Pz=float(np.sum(dens_up - dens_dn) * dx),
        fidelity=float(np.abs(fld.overlap(tgt)) ** 2),
    )


def density_profile(fld: SpinorField):
    """Per-spin densities |psi(x)|^2 on the field's grid."""
    return np.abs(fld.up) ** 2, np.abs(fld.down) ** 2


def _cis(angle):
    """exp(1j * angle) for a real array, from the half-angle tangent
    t = tan(angle/2) as ((1 - t^2) + 2it) / (1 + t^2).  numpy's float64 tan
    is vectorised where cos and sin may not be, so this is about twice as
    fast as a cos and a sin; a double's tan is never infinite, so the form
    needs no guard."""
    t = np.tan(0.5 * angle)
    r = t * t
    r += 1.0
    np.divide(2.0, r, out=r)  # 2 / (1 + t^2)
    out = np.empty(angle.shape, dtype=complex)
    np.subtract(r, 1.0, out=out.real)
    np.multiply(t, r, out=out.imag)
    return out


def _turn(rot, psi):
    """rot @ psi for a real 2x2 ``rot`` and a C-contiguous complex spinor,
    as one real product on its float view."""
    return (rot @ psi.view(np.float64)).view(complex)


def _position_half_step(psi, diag, w, tau):
    """exp(-i tau [[diag[0], w], [w, diag[1]]]) applied pointwise to the
    stacked spinor, for x-dependent diagonals and a real coupling ``w``."""
    u11, u12, u21, u22 = su2_exp(0.5 * (diag[0] - diag[1]), w, tau)
    phase = np.exp(-0.5j * tau * (diag[0] + diag[1]))
    return phase * np.stack((u11 * psi[0] + u12 * psi[1],
                             u21 * psi[0] + u22 * psi[1]))


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
    so one density per step serves both halves exactly.  With a Raman
    mean field the position factor mixes the spins, so the density is
    refreshed before each half-step.  Records and the returned field are in
    the lab frame.  The steps come from the one step rule,
    :func:`~socmorse.dynamics_two_level.half_step_nodes`.  Raises
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

    nonlinear = spec.interacting
    if nonlinear:
        g_uu, g_dd, g_ud, g_du = raw_from_effective(spec)
        g_mat = np.array([[g_uu, g_ud], [g_du, g_dd]])

        def mean_field(psi):
            return g_mat @ (psi.real**2 + psi.imag**2)

    if not raman:  # R_i = R(theta1_i/2), M(theta1_i) = R_i sigma_z R_i^T
        cos_h, sin_h = np.cos(0.5 * amp_mid), np.sin(0.5 * amp_mid)
        rot = np.array([[cos_h, -sin_h], [sin_h, cos_h]]).transpose(2, 0, 1)

    if raman and nonlinear:
        zeeman = np.array([[0.5], [-0.5]])

        def half(i, psi):
            diag = u_pot + mean_field(psi) + gap_mid[i] * zeeman
            return _position_half_step(psi, diag, w_mid[i], tau)

        def merged(i, psi):
            return half(i + 1, half(i, psi))

        enter = leave = half
    elif nonlinear:
        # The density is a lab-frame quantity, and there the potential,
        # Zeeman and mean-field terms are all spin diagonal: one phase per
        # position step, between R_i (out of frame i) and R_{i+1}^T (into
        # frame i+1).  zeeman[i] is the Zeeman half-step's angle, -tau b/2
        # for spin up and +tau b/2 for spin down.
        zeeman = np.multiply.outer(0.5 * tau * gap_mid, [[-1.0], [1.0]])
        zeeman_merged = zeeman[1:] + zeeman[:-1]

        def lab_phase(psi, halves, zeeman_angle):
            angle = mean_field(psi)
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

    tgt = target_state(grid, spec)
    psi = np.array([fld.up, fld.down], dtype=complex)

    records = []

    def record(t):
        snap = _observables_fast(SpinorField(grid, psi[0], psi[1]), tgt)
        records.append((t, snap))
        if not np.isfinite(snap.norm) or abs(snap.norm - 1.0) > 1e-4:
            raise NumericalFailureError(
                f"norm {snap.norm!r} at t={t:.6g} (step {len(records)})", time=t
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

    final = SpinorField(grid, psi[0], psi[1])
    times = np.array([t for t, _ in records])
    series = {name: np.array([getattr(s, name) for _, s in records])
              for name in ("norm", "x_expect", "Px", "Py", "Pz", "fidelity")}
    report = GridRunReport(
        times=times,
        final_fidelity=float(series["fidelity"][-1]),
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
        **series,
    )
    return final, report
