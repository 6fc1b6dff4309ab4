"""Full 1D spinor dynamics on a spatial grid by operator splitting.

This is the validation layer for the reduced-basis designs: nothing here
assumes the two-level truncation or the small-tilt linearization.  Each
step applies exact exponentials of the position-space part (potential,
Zeeman, mean-field diagonal, Raman coupling) and of the momentum-space
part (kinetic term plus the momentum-proportional spin coupling, a
constant 2x2 matrix per Fourier mode), with controls sampled at the step
midpoint.

The spinor is held as one stacked ``(2, N)`` array, transformed by one FFT
call per direction.  In the linear schemes the Zeeman and Raman terms do
not depend on x, so a position half-step factors into the precomputed
potential phase exp(-i tau U(x)) times one 2x2 spin matrix shared by every
grid point, exp(-i tau [[b/2, w], [w, -b/2]]) (w = 0 for the tilted field).
The tilted-field momentum step is kin(k) [cos(h alpha k) - i sin(h alpha k)
M(theta1)] with M = [[cos theta1, sin theta1], [sin theta1, -cos theta1]],
from two tables precomputed once.  Between record points the closing
half-step of one step and the opening half-step of the next are applied as
one factor, exp(-i h U(x)) times the product of the two spin matrices; they
are split only where a record is taken.

With the tilted-field mean field the position factor is spin diagonal, so
it leaves |psi_up|^2 and |psi_down|^2 unchanged: both merged halves see the
density the momentum step left, and computing it once per step is exact.
The Raman coupling mixes the spins in position space, so a Raman mean field
(reachable only from the library) keeps the per-point exponential with the
density refreshed before every half-step, as in the time-splitting spectral
scheme of Bao, Jaksch & Markowich, J. Comput. Phys. 187, 318 (2003).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import fft as sp_fft

from .errors import ConfigError, DomainError, NumericalFailureError
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

    Raises :class:`ConfigError` when the grid is too narrow to hold the
    state (more than 1e-10 of its mass in the outer 5% of the domain).
    """
    if spin not in ("up", "down"):
        raise DomainError("spin must be 'up' or 'down'")
    comp = _basis_profile(grid, morse, n, spin, alpha)
    comp = comp / np.sqrt(np.sum(np.abs(comp) ** 2) * grid.dx)
    edge = max(1, grid.points // 20)
    density = np.abs(comp) ** 2 * grid.dx
    outer = float(np.sum(density[:edge]) + np.sum(density[-edge:]))
    if outer > 1e-10:
        raise ConfigError(
            f"grid [{grid.x_min}, {grid.x_max}] too narrow for state n={n}: "
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
    """exp(1j * angle) for a real array, from cos and sin (several times
    faster than numpy's complex exp)."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


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

    Without mean field a position half-step is the potential phase
    exp(-i tau U(x)) times a 2x2 spin matrix that is the same at every grid
    point.  Between record points the closing half-step of one step and the
    opening half-step of the next are applied as one position factor:
    exp(-i h U(x)) times the product of the two steps' spin matrices.  The
    tilted-field mean field adds a spin-diagonal phase to that factor, so it
    leaves each |psi|^2 as the momentum step left it and one density per
    step serves both halves exactly.  With a Raman mean field the position
    factor mixes the spins, so the density is refreshed before each
    half-step.  Raises :class:`DomainError` unless ``dt > 0``, ``t_f > 0``
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
    if not (dt > 0 and t_f > 0):
        raise DomainError(f"need dt > 0 and t_f > 0, got dt={dt!r}, t_f={t_f!r}")
    if not record_stride >= 1:
        raise DomainError(f"record_stride must be at least 1, got {record_stride!r}")
    grid = fld.grid
    nsteps = max(1, int(round(t_f / dt)))
    h = t_f / nsteps
    tau = 0.5 * h
    mids = (np.arange(nsteps) + 0.5) * h
    amp_mid = np.asarray(schedule.a_at(mids), dtype=float)
    gap_mid = np.asarray(schedule.b_at(mids), dtype=float)
    w_mid = 0.5 * amp_mid if raman else np.zeros(nsteps)

    u_pot = potential(grid.x, spec.morse)
    k = grid.k
    kin_phase = np.exp(-1j * h * 0.5 * k**2)
    if raman:
        mom = kin_phase * np.exp(-1j * h * spec.alpha * np.outer([1.0, -1.0], k))

        def kick(i, f):
            f *= mom
            return f
    else:
        # kin_phase exp(-i h alpha k M(theta1)), M = [[cos, sin], [sin, -cos]]
        kin_cos = kin_phase * np.cos(h * spec.alpha * k)
        kin_sin = -1j * kin_phase * np.sin(h * spec.alpha * k)
        cos_t1, sin_t1 = np.cos(amp_mid), np.sin(amp_mid)
        tilt = np.array([[cos_t1, sin_t1], [sin_t1, -cos_t1]],
                        dtype=complex).transpose(2, 0, 1)

        def kick(i, f):
            mixed = tilt[i] @ f
            mixed *= kin_sin
            f *= kin_cos
            f += mixed
            return f

    nonlinear = spec.interacting
    if nonlinear:
        g_uu, g_dd, g_ud, g_du = raw_from_effective(spec)
        g_mat = np.array([[g_uu, g_ud], [g_du, g_dd]])

        def mean_field(psi):
            return g_mat @ (psi.real**2 + psi.imag**2)

    if raman and nonlinear:
        zeeman = np.array([[0.5], [-0.5]])

        def half(i, psi):
            diag = u_pot + mean_field(psi) + gap_mid[i] * zeeman
            return _position_half_step(psi, diag, w_mid[i], tau)

        def merged(i, psi):
            return half(i + 1, half(i, psi))
    else:
        u11, u12, u21, u22 = su2_exp(0.5 * gap_mid, w_mid, tau)
        spin = np.array([[u11, u12], [u21, u22]]).transpose(2, 0, 1)
        spin_merged = spin[1:] @ spin[:-1]
        u_phases = {halves: np.exp(-1j * (halves * tau) * u_pot) for halves in (1, 2)}
        if nonlinear:
            def pot_phase(psi, halves):
                return u_phases[halves] * _cis(-(halves * tau) * mean_field(psi))
        else:
            def pot_phase(psi, halves):
                return u_phases[halves]

        def half(i, psi):
            return pot_phase(psi, 1) * (spin[i] @ psi)

        def merged(i, psi):
            return pot_phase(psi, 2) * (spin_merged[i] @ psi)

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
    psi = half(0, psi)
    for i in range(nsteps):
        psi = sp_fft.ifft(kick(i, sp_fft.fft(psi, overwrite_x=True)), overwrite_x=True)
        step_no = i + 1
        if step_no % record_stride and step_no < nsteps:
            psi = merged(i, psi)
            continue
        psi = half(i, psi)
        record(step_no * h)
        if step_no < nsteps:
            psi = half(i + 1, psi)

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
