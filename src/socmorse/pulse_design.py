"""Invariant-based inverse engineering of the transfer schedules.

The state path is pinned by a smooth-step polar angle (cubic in time) and
an azimuthal angle fixed by a singularity-cancelling constraint with gap
parameter ``c``; the control channels then follow in closed form.  Two
schemes share the machinery: a Raman pair (coupling amplitude, detuning)
and a tilted spin-orbit field (tilt angle, Zeeman amplitude), the latter
optionally compensated for mean-field interactions.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DesignInfeasibleError, DomainError
from .morse import MatrixElements, MorseSpec, overlap_Q
from .numerics import write_csv, write_json

__all__ = [
    "SCHEMES",
    "AdiabaticityWarning",
    "SmallAngleWarning",
    "TransferSpec",
    "PulseSchedule",
    "design_scheme1",
    "design_scheme2",
    "design_scheme2_interacting",
    "effective_g",
    "raw_from_effective",
    "invariant_residual",
]

SCHEMES = ("raman", "so_direction", "so_direction_interacting")

_COUPLING_FLOOR = 1e-12


class AdiabaticityWarning(UserWarning):
    """Operation time is not clearly long compared to the boundary gap."""


class SmallAngleWarning(UserWarning):
    """Designed tilt angle leaves the small-angle regime it assumes."""


@dataclass(frozen=True)
class TransferSpec:
    """Full statement of one transfer problem."""

    morse: MorseSpec
    n: int = 0
    l: int = 1
    alpha: float = 1.6
    t_f: float = 10.0
    c: float = 0.1
    scheme: str = "raman"
    g11: float = 0.0
    g22: float = 0.0
    g12: float = 0.0
    g21: float = 0.0

    def __post_init__(self):
        if self.l != self.n + 1:
            raise DomainError(f"target must be l = n+1, got n={self.n}, l={self.l}")
        if not self.t_f > 0:
            raise DomainError("operation time must be positive")
        if not math.isfinite(self.t_f * self.t_f):  # the designs use t_f**2
            raise DomainError(f"operation time t_f must be finite with a finite square, "
                              f"got {self.t_f}")
        if not math.isfinite(self.alpha):
            raise DomainError(f"spin-orbit strength alpha must be finite, got {self.alpha}")
        if self.c == 0:
            raise DomainError("gap parameter c must be nonzero")
        if self.scheme not in SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if not all(map(math.isfinite, self.g_effective)):
            raise DomainError(f"interaction constants must be finite, got {self.g_effective}")
        self.morse.bound_state(self.l)  # both states must be bound
        if self.t_f * self.delta_e < 10.0:
            warnings.warn(
                f"t_f * gap = {self.t_f * self.delta_e:.3g} < 10; the two-level "
                "reduction assumes the operation is slow on the gap scale",
                AdiabaticityWarning,
                stacklevel=3,  # past the dataclass __init__ to the caller
            )

    @property
    def delta_e(self) -> float:
        """Boundary energy gap of the dressed two-level system."""
        return 1.5 * abs(self.c)

    @property
    def energy_n(self) -> float:
        return self.morse.bound_state(self.n).energy

    @property
    def energy_l(self) -> float:
        return self.morse.bound_state(self.l).energy

    @property
    def level_splitting(self) -> float:
        return self.energy_l - self.energy_n

    @property
    def g_effective(self):
        return (self.g11, self.g22, self.g12, self.g21)

    @property
    def interacting(self) -> bool:
        return any(g != 0.0 for g in self.g_effective)

    def to_dict(self):
        return {
            "depth_A": self.morse.depth_A,
            "n": self.n,
            "l": self.l,
            "alpha": self.alpha,
            "t_f": self.t_f,
            "c": self.c,
            "scheme": self.scheme,
            "g11": self.g11,
            "g22": self.g22,
            "g12": self.g12,
            "g21": self.g21,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        morse = MorseSpec(d.pop("depth_A"))
        return cls(morse=morse, **d)


class _SmoothStepPath:
    """Cubic polar angle 0 -> pi with zero endpoint rate, evaluated stably.

    Near the final time the angle approaches pi quadratically; computing
    sin(theta) through pi - theta directly (same cubic in the remaining
    time) avoids the total cancellation that plain sin(pi - tiny) suffers.
    """

    def __init__(self, t_f: float):
        self.t_f = t_f

    def _s(self, t):
        return np.clip(np.asarray(t, dtype=float) / self.t_f, 0.0, 1.0)

    @staticmethod
    def _ramp(s):
        return np.pi * s * s * (3.0 - 2.0 * s)

    def theta(self, t):
        s = self._s(t)
        out = np.where(s <= 0.5, self._ramp(s), np.pi - self._ramp(1.0 - s))
        return out if out.ndim else float(out)

    def sin_cos_theta(self, t):
        s = self._s(t)
        near = self._ramp(np.where(s <= 0.5, s, 1.0 - s))  # theta or pi - theta
        sin_t = np.sin(near)
        cos_t = np.where(s <= 0.5, np.cos(near), -np.cos(near))
        if sin_t.ndim:
            return sin_t, cos_t
        return float(sin_t), float(cos_t)

    def dtheta(self, t):
        s = self._s(t)
        out = 6.0 * np.pi * s * (1.0 - s) / self.t_f
        return out if out.ndim else float(out)

    def ddtheta(self, t):
        s = self._s(t)
        out = 6.0 * np.pi * (1.0 - 2.0 * s) / self.t_f**2
        return out if out.ndim else float(out)


def _mismatch_sin_cos(path: _SmoothStepPath, c: float, t):
    """sin and cos of (phi - phi_a) on the branch continuous inside (0, t_f).

    The constraint fixes tan(phi - phi_a) = dtheta / (c sin theta); the
    branch with cos(phi - phi_a) >= 0 is continuous and tends to
    sign(c) * pi/2 at both ends.
    """
    sin_t, _ = path.sin_cos_theta(t)
    dth = path.dtheta(t)
    sg = 1.0 if c > 0 else -1.0
    r = np.hypot(dth, c * np.asarray(sin_t))
    safe = np.where(r > 0.0, r, 1.0)
    s_pma = np.where(r > 0.0, sg * dth / safe, sg)
    c_pma = np.where(r > 0.0, abs(c) * np.asarray(sin_t) / safe, 0.0)
    if np.ndim(s_pma):
        return s_pma, c_pma
    return float(s_pma), float(c_pma)


def _dphi_a(path: _SmoothStepPath, c: float, t):
    """Rate of the azimuthal angle; finite limits +-c/2 at the endpoints."""
    sin_t, cos_t = path.sin_cos_theta(t)
    dth = path.dtheta(t)
    ddth = path.ddtheta(t)
    num = c * (dth * dth * np.asarray(cos_t) - ddth * np.asarray(sin_t))
    den = (c * np.asarray(sin_t)) ** 2 + dth * dth
    s = path._s(t)
    endpoint = np.where(s < 0.5, 0.5 * c, -0.5 * c)
    out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), endpoint)
    return out if out.ndim else float(out)


def _phi_a(path: _SmoothStepPath, c: float, phi: float, t: float) -> float:
    """Azimuthal angle of the tracked eigenstate at time t for coupling phase phi."""
    s_pma, c_pma = _mismatch_sin_cos(path, c, t)
    return phi - math.atan2(s_pma, c_pma)


# ---------------------------------------------------------------------------
# schedules


@dataclass
class PulseSchedule:
    """Sampled control channels plus the exact callables that built them.

    Channel evaluation prefers the analytic callables when present (always,
    for freshly designed schedules) and falls back to a cubic spline through
    the samples after a CSV round trip, so simulators at any time step see
    a well-defined interpolation contract either way.
    """

    times: np.ndarray
    channel_a: np.ndarray
    channel_b: np.ndarray
    label_a: str
    label_b: str
    spec: TransferSpec
    coupling: complex
    phi: float
    fn_a: Optional[Callable] = field(default=None, repr=False)
    fn_b: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.channel_a = np.asarray(self.channel_a, dtype=float)
        self.channel_b = np.asarray(self.channel_b, dtype=float)
        if not (len(self.times) == len(self.channel_a) == len(self.channel_b)):
            raise DomainError("schedule columns must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times must be strictly increasing")
        for name, col in (("times", self.times), (self.label_a, self.channel_a),
                          (self.label_b, self.channel_b)):
            if not np.all(np.isfinite(col)):
                raise DomainError(f"non-finite values in {name}")
        self._spl_a = None
        self._spl_b = None

    @property
    def t_f(self) -> float:
        return float(self.times[-1])

    def _clip(self, t):
        return np.clip(t, self.times[0], self.times[-1])

    def a_at(self, t):
        if self.fn_a is not None:
            return self.fn_a(self._clip(t))
        if self._spl_a is None:
            self._spl_a = CubicSpline(self.times, self.channel_a)
        out = self._spl_a(self._clip(t))
        return out if np.ndim(out) else float(out)

    def b_at(self, t):
        if self.fn_b is not None:
            return self.fn_b(self._clip(t))
        if self._spl_b is None:
            self._spl_b = CubicSpline(self.times, self.channel_b)
        out = self._spl_b(self._clip(t))
        return out if np.ndim(out) else float(out)

    @property
    def max_abs_a(self) -> float:
        return float(np.max(np.abs(self.channel_a)))

    def endpoint_summary(self):
        return {
            "a_start": float(self.channel_a[0]),
            "a_end": float(self.channel_a[-1]),
            "b_start": float(self.channel_b[0]),
            "b_end": float(self.channel_b[-1]),
        }

    def reduced_terms(self, t):
        """The reduced two-level Hamiltonian the schedule sets at time(s) t.

        Returns ``(Z, od)`` for H = [[Z/2, od], [conj(od), -Z/2]] in the
        basis (initial state spin up, target state spin down):
        Z = E_n - E_l + b(t) and od = (X + iY)/2 = a(t) * coupling, halved
        for the Raman pair.  Works on scalars and on any time array.
        """
        spec = self.spec
        half = 0.5 if spec.scheme == "raman" else 1.0
        z = spec.energy_n - spec.energy_l + np.asarray(self.b_at(t), dtype=float)
        od = half * self.coupling * np.asarray(self.a_at(t), dtype=float)
        return z, od

    def with_channel_b_scaled(self, factor: float) -> "PulseSchedule":
        """Same schedule with the second channel multiplied by ``factor``."""
        fn_b = None if self.fn_b is None else (lambda t, f=self.fn_b: factor * np.asarray(f(t)))
        out = PulseSchedule(
            times=self.times.copy(),
            channel_a=self.channel_a.copy(),
            channel_b=factor * self.channel_b,
            label_a=self.label_a,
            label_b=self.label_b,
            spec=self.spec,
            coupling=self.coupling,
            phi=self.phi,
            fn_a=self.fn_a,
            fn_b=fn_b,
        )
        return out

    # -- serialization ------------------------------------------------------

    def to_csv(self, csv_path):
        """Write samples as CSV plus a JSON sidecar with the metadata."""
        csv_path = str(csv_path)
        write_csv(csv_path, "t,channel_a,channel_b",
                  (self.times, self.channel_a, self.channel_b))
        meta = {
            "format_version": 1,
            "label_a": self.label_a,
            "label_b": self.label_b,
            "spec": self.spec.to_dict(),
            "coupling": [self.coupling.real, self.coupling.imag],
            "phi": self.phi,
            "delta_e": self.spec.delta_e,
            "endpoints": self.endpoint_summary(),
            "max_abs_a": self.max_abs_a,
            "sample_count": int(len(self.times)),
        }
        return csv_path, write_json(_sidecar_path(csv_path), meta)

    @classmethod
    def from_csv(cls, csv_path):
        """Read a schedule written by :meth:`to_csv`; channels are then
        evaluated by cubic splines through the samples."""
        csv_path = str(csv_path)
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        with open(_sidecar_path(csv_path)) as fh:
            meta = json.load(fh)
        spec = TransferSpec.from_dict(meta["spec"])
        return cls(
            times=data[:, 0],
            channel_a=data[:, 1],
            channel_b=data[:, 2],
            label_a=meta["label_a"],
            label_b=meta["label_b"],
            spec=spec,
            coupling=complex(meta["coupling"][0], meta["coupling"][1]),
            phi=meta["phi"],
        )


def _sidecar_path(csv_path: str) -> str:
    """The JSON metadata file that goes with a schedule CSV."""
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".json"


# ---------------------------------------------------------------------------
# the designs


def _amplitude_fn(path: _SmoothStepPath, c: float, denom: float):
    """Common closed form -sign(c) sqrt(dtheta^2 + c^2 sin^2 theta) / denom.

    Equals -dtheta / (denom * sin(phi - phi_a)) on the constraint branch but
    stays well defined at the endpoints where that quotient is 0/0.
    """
    sg = 1.0 if c > 0 else -1.0

    def amp(t):
        sin_t, _ = path.sin_cos_theta(t)
        dth = path.dtheta(t)
        out = -sg * np.hypot(dth, c * np.asarray(sin_t)) / denom
        return out if np.ndim(out) else float(out)

    return amp


def _gap_fn(path: _SmoothStepPath, spec: TransferSpec, compensation=None):
    """Detuning/Zeeman channel; the constraint reduces its singular term to
    c cos(theta), and the endpoint rates +-c/2 give gaps of 3|c|/2."""
    split = spec.level_splitting
    c = spec.c

    def gap(t):
        sin_t, cos_t = path.sin_cos_theta(t)
        b = split - _dphi_a(path, c, t) - c * np.asarray(cos_t)
        if compensation is not None:
            g11, g22, g12, g21 = compensation
            cos_half_sq = 0.5 * (1.0 + np.asarray(cos_t))
            sin_half_sq = 0.5 * (1.0 - np.asarray(cos_t))
            b = b - g11 * cos_half_sq - g12 * sin_half_sq \
                + g22 * sin_half_sq + g21 * cos_half_sq
        return b if np.ndim(b) else float(b)

    return gap


def _build_schedule(spec, coupling, phi, label_a, label_b, denom,
                    sample_count, compensation=None):
    if abs(coupling) < _COUPLING_FLOOR:
        raise DesignInfeasibleError(
            f"coupling magnitude {abs(coupling):.3g} too small to drive the "
            f"transfer (alpha={spec.alpha})"
        )
    if sample_count < 16:
        raise DomainError("sample_count must be at least 16")
    path = _SmoothStepPath(spec.t_f)
    amp = _amplitude_fn(path, spec.c, denom)
    gap = _gap_fn(path, spec, compensation)
    times = np.linspace(0.0, spec.t_f, sample_count)
    return PulseSchedule(
        times=times,
        channel_a=np.asarray(amp(times)),
        channel_b=np.asarray(gap(times)),
        label_a=label_a,
        label_b=label_b,
        spec=spec,
        coupling=coupling,
        phi=phi,
        fn_a=amp,
        fn_b=gap,
    )


def design_scheme1(spec: TransferSpec, me: MatrixElements, sample_count: int = 4096):
    """Raman-channel schedule (coupling amplitude, detuning).

    The detuning depends only on the angle path and c, so it is identical
    for every spin-orbit strength; only the amplitude rescales with 1/|G|.
    """
    return _build_schedule(
        spec, me.G, me.phi_G, "Omega", "Delta", abs(me.G), sample_count
    )


def _design_tilt(spec, me, sample_count, compensation=None):
    sched = _build_schedule(
        spec, me.M_coupling, me.phi_M, "theta1", "beta",
        2.0 * abs(me.M_coupling), sample_count, compensation,
    )
    if sched.max_abs_a > 0.3:
        warnings.warn(
            f"peak tilt angle {sched.max_abs_a:.3f} rad exceeds 0.3; the "
            "linear-in-angle design degrades beyond this",
            SmallAngleWarning,
            stacklevel=3,  # past the public design function to its caller
        )
    return sched


def design_scheme2(spec: TransferSpec, me: MatrixElements, sample_count: int = 4096):
    """Tilted-field schedule (tilt angle of the SO axis, Zeeman amplitude).

    The tilt angle enters the reduced model linearly, so the design is valid
    in the small-angle regime; a warning reports when the peak tilt leaves
    it.  The reduced model also omits the second-order shift of the
    detuning by kappa sin^2(theta1) (kappa = 0.723 at the canonical
    parameters) from the spin-flip coupling to every other level, which the
    grid simulation contains; it, not leakage (about 0.2% of the population
    leaves the two states), sets the grid fidelity of this design.
    """
    return _design_tilt(spec, me, sample_count)


def design_scheme2_interacting(spec: TransferSpec, me: MatrixElements,
                               sample_count: int = 4096):
    """Tilted-field schedule with the Zeeman channel compensating mean-field
    shifts; the tilt channel is unchanged from the noninteracting design."""
    return _design_tilt(spec, me, sample_count,
                        compensation=(spec.g11, spec.g22, spec.g12, spec.g21))


def effective_g(raw_g, morse: MorseSpec, n: int, l: int):
    """Scale raw per-spin couplings (uu, dd, ud, du) by the density overlaps.

    Returns the reduced-model constants (g11, g22, g12, g21).
    """
    g_uu, g_dd, g_ud, g_du = raw_g
    q_nn = overlap_Q(n, n, morse)
    q_ll = overlap_Q(l, l, morse)
    q_nl = overlap_Q(n, l, morse)
    return (g_uu * q_nn, g_dd * q_ll, g_ud * q_nl, g_du * q_nl)


def raw_from_effective(spec: TransferSpec):
    """Invert :func:`effective_g` for the grid simulation (uu, dd, ud, du)."""
    q_nn = overlap_Q(spec.n, spec.n, spec.morse)
    q_ll = overlap_Q(spec.l, spec.l, spec.morse)
    q_nl = overlap_Q(spec.n, spec.l, spec.morse)
    return (spec.g11 / q_nn, spec.g22 / q_ll, spec.g12 / q_nl, spec.g21 / q_nl)


# ---------------------------------------------------------------------------
# self-test of a schedule against the state path it was built from


def _hamiltonian_from_schedule(schedule: PulseSchedule, t: float):
    """Traceless 2x2 matrix the reduced model assigns to the schedule at t.

    For the interacting scheme the mean-field diagonal is evaluated on the
    designed state path, which is the model in which the compensated design
    is exact.
    """
    spec = schedule.spec
    z, off = schedule.reduced_terms(t)
    h = np.array([[0.5 * z, off], [np.conj(off), -0.5 * z]], dtype=complex)
    if spec.scheme == "so_direction_interacting":
        path = _SmoothStepPath(spec.t_f)
        _, cos_t = path.sin_cos_theta(t)
        p1 = 0.5 * (1.0 + cos_t)
        p2 = 0.5 * (1.0 - cos_t)
        n1 = spec.g11 * p1 + spec.g12 * p2
        n2 = spec.g21 * p1 + spec.g22 * p2
        h += np.diag([0.5 * (n1 - n2), -0.5 * (n1 - n2)])
    return h


def invariant_residual(schedule: PulseSchedule, t: float) -> float:
    """Frobenius norm of i dI/dt - [H, I] at time t.

    I is the tracked-path operator built from the design angles; H is
    assembled from the schedule's channels.  Vanishes (to rounding) for an
    uncorrupted designed schedule at interior times.
    """
    spec = schedule.spec
    if not 0.0 < t < spec.t_f:
        raise DomainError("residual is defined on the open interval (0, t_f)")
    path = _SmoothStepPath(spec.t_f)
    sin_t, cos_t = path.sin_cos_theta(t)
    dth = path.dtheta(t)
    phi_a = _phi_a(path, spec.c, schedule.phi, t)
    dphi = _dphi_a(path, spec.c, t)

    eip = np.exp(1j * phi_a)
    inv = 0.5 * np.array(
        [[cos_t, sin_t * eip], [sin_t * np.conj(eip), -cos_t]], dtype=complex
    )
    dinv = 0.5 * np.array(
        [
            [-sin_t * dth, (cos_t * dth + 1j * dphi * sin_t) * eip],
            [(cos_t * dth - 1j * dphi * sin_t) * np.conj(eip), sin_t * dth],
        ],
        dtype=complex,
    )
    h = _hamiltonian_from_schedule(schedule, t)
    resid = 1j * dinv - (h @ inv - inv @ h)
    return float(np.linalg.norm(resid))
