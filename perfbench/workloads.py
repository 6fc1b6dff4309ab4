"""The three workloads: set-up, one round of operations, and the checks.

Each workload calls socmorse's public functions in the order the CLI
commands call them.  A round is always the same list of operations, so
the share of failed operations does not depend on the seed or on how
many rounds a run makes.  Only the operations are timed; the checks run
after each round with tracing paused.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import checks
import reference

# The paper's canonical transfer (depth 8, n=0 -> l=1, alpha 1.6, t_f 10)
# and the acceptance suite's effective mean-field couplings.
DEPTH = 8.0
ALPHA = 1.6
T_F = 10.0
C_SMALL = 0.1
C_LARGE = 1.5
G_EFFECTIVE = (0.3, 0.2, 0.115, 0.115)
DT = 1e-3
LAMBDAS = np.round(np.arange(-0.5, 0.5001, 0.05), 10)
LAMBDAS_PRIME = np.round(np.arange(0.0, 1.0001, 0.05), 10)
ORACLE_LAMBDA_PRIME = 0.5
ORACLE_TRAJECTORIES = 1000


@dataclass
class Op:
    """One timed call; ``count`` operations of which ``failed`` failed."""

    name: str
    seconds: float
    count: int = 1
    failed: int = 0
    data: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _write_table(path, header, columns):
    """CSV in the CLI's artifact format: 12 significant digits, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")


def _read_table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    """``run_round`` yields the round's operations one at a time, so the
    runner can sample the machine's speed between them."""

    name = ""
    MIN_ROUNDS = 1

    def __init__(self, sm, seed, out_dir, tracer=None):
        self.sm = sm
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)

    def paused(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def fingerprint(self, ops):
        """Results that must repeat bit for bit in every round, or None."""
        return None

    def extras(self, normalised):
        """Per-layer values measured by extra calls after the rounds."""
        return {}

    def rates(self, wall_s, rounds):
        return {}


class GridVerify(Workload):
    """The four canonical designs on the full spinor grid, as
    ``socmorse simulate --engine grid`` runs each of them."""

    name = "grid-verify"
    CASES = ("raman_c0.1", "raman_c1.5", "so_direction", "mean_field_compensated")
    EXTRA_T_F = 1.0
    EXTRA_PAIRS = 4

    def setup(self):
        sm = self.sm
        morse = sm.morse.MorseSpec(DEPTH)
        TS = sm.pulse_design.TransferSpec
        g11, g22, g12, g21 = G_EFFECTIVE
        specs = {
            "raman_c0.1": TS(morse=morse, alpha=ALPHA, t_f=T_F, c=C_SMALL),
            "raman_c1.5": TS(morse=morse, alpha=ALPHA, t_f=T_F, c=C_LARGE),
            "so_direction": TS(morse=morse, alpha=ALPHA, t_f=T_F, c=C_SMALL,
                               scheme="so_direction"),
            "mean_field_compensated": TS(morse=morse, alpha=ALPHA, t_f=T_F, c=C_SMALL,
                                         scheme="so_direction_interacting", g11=g11,
                                         g22=g22, g12=g12, g21=g21),
        }
        sm.pulse_design.raw_from_effective(specs["mean_field_compensated"])
        design = {"raman": sm.pulse_design.design_scheme1,
                  "so_direction": sm.pulse_design.design_scheme2,
                  "so_direction_interacting": sm.pulse_design.design_scheme2_interacting}
        self.cases = {}
        for case, spec in specs.items():
            me = sm.morse.matrix_elements(spec.n, spec.l, spec.alpha, spec.morse)
            self.cases[case] = (spec, design[spec.scheme](spec, me))
        self.morse = morse
        self.grid = sm.dynamics_grid.SpatialGrid()
        self.order = [self.CASES[i] for i in self.rng.permutation(len(self.CASES))]
        for case in self.CASES:
            (self.out_dir / case).mkdir(exist_ok=True)

    def _simulate(self, case):
        """One ``simulate --engine grid`` run and the artifacts it writes."""
        dg = self.sm.dynamics_grid
        spec, schedule = self.cases[case]
        fld = dg.init_basis_state(self.grid, self.morse, spec.n, "up", spec.alpha)
        final, rep = dg.evolve(fld, spec, schedule, dt=DT)
        out = self.out_dir / case
        rep.to_csv(out / "grid_report.csv")
        dens_up, dens_dn = dg.density_profile(final)
        tgt_up, tgt_dn = dg.density_profile(dg.target_state(self.grid, spec))
        density = (self.grid.x, dens_up, dens_dn, tgt_up + tgt_dn)
        _write_table(out / "final_density.csv", "x,dens_up,dens_down,dens_target", density)
        report = {"engine": "grid", "final_fidelity": rep.final_fidelity,
                  "norm_drift": abs(float(rep.norm[-1]) - 1.0),
                  "max_abs_tilt": rep.max_abs_tilt,
                  "Pz_start": float(rep.Pz[0]), "Pz_end": float(rep.Pz[-1])}
        with open(out / "report.json", "w", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return rep, density

    def run_round(self, r):
        for case in self.order:
            (rep, density), seconds = _timed(self._simulate, case)
            spec = self.cases[case][0]
            failed = case == "mean_field_compensated" and not checks.meets_mean_field_target(
                rep.final_fidelity)
            steps = int(round(rep.settings["t_f"] / rep.settings["dt"]))
            yield Op(case, seconds, failed=int(failed), data={
                "fidelity": rep.final_fidelity, "report": rep, "density": density,
                "mean_field": spec.interacting, "site_steps": steps * self.grid.points})

    def check_round(self, r, ops):
        by = {op.name: op.data for op in ops}
        out = []
        for case, d in by.items():
            rep = d["report"]
            out += checks.grid_norm_drift(rep.norm, d["mean_field"])
            if case.startswith("raman"):
                out += checks.raman_grid_fidelity(float(case[len("raman_c"):]), d["fidelity"])
            else:
                out += checks.tilted_grid_run(d["fidelity"], float(rep.Pz[0]), float(rep.Pz[-1]))
            if r == 0:
                written = np.column_stack([rep.times, rep.norm, rep.x_expect, rep.Px,
                                           rep.Py, rep.Pz, rep.fidelity])
                out += checks.table_round_trip(
                    written, _read_table(self.out_dir / case / "grid_report.csv"),
                    f"{case} grid_report.csv")
                out += checks.table_round_trip(
                    np.column_stack(d["density"]),
                    _read_table(self.out_dir / case / "final_density.csv"),
                    f"{case} final_density.csv")
        out += checks.wider_gap_lower(by["raman_c0.1"]["fidelity"],
                                      by["raman_c1.5"]["fidelity"])
        for d in by.values():  # keep one round's series in memory, not all
            d.pop("report")
            d.pop("density")
        return out

    def fingerprint(self, ops):
        return [op.data["fidelity"] for op in sorted(ops, key=lambda o: o.name)]

    def extras(self, normalised):
        """Record and mean-field costs, measured from outside through
        ``evolve``'s ``t_f`` and ``record_stride`` arguments: pairs of short
        runs in alternating order, each rescaled to the reference speed by
        ``normalised(seconds, start, end)``, the median difference scaled to
        the full 10k-step run."""
        dg = self.sm.dynamics_grid
        spec_r, sched_r = self.cases["raman_c0.1"]
        spec_t, sched_t = self.cases["so_direction"]
        spec_mf = self.cases["mean_field_compensated"][0]
        full_steps = int(round(T_F / DT))
        short_steps = int(round(self.EXTRA_T_F / DT))

        def run(spec, schedule, stride):
            fld = dg.init_basis_state(self.grid, self.morse, 0, "up", ALPHA)
            t0 = time.perf_counter()
            _, rep = dg.evolve(fld, spec, schedule, dt=DT, t_f=self.EXTRA_T_F,
                               record_stride=stride)
            t1 = time.perf_counter()
            return normalised(t1 - t0, t0, t1), len(rep.times)

        def median_difference(a, b):
            diffs = []
            for i in range(self.EXTRA_PAIRS):
                if i % 2:
                    (tb, nb), (ta, na) = b(), a()
                else:
                    (ta, na), (tb, nb) = a(), b()
                diffs.append(ta - tb)
            return float(np.median(diffs)), na - nb

        record, extra_records = median_difference(lambda: run(spec_r, sched_r, 1),
                                                  lambda: run(spec_r, sched_r, 10**9))
        mean_field, _ = median_difference(lambda: run(spec_mf, sched_t, 10**9),
                                          lambda: run(spec_t, sched_t, 10**9))
        default_records = full_steps // 20 + 1
        return {
            "dynamics_grid.record_s": record / extra_records * (default_records - 2),
            "dynamics_grid.mean_field_extra_s": mean_field * full_steps / short_steps,
        }

    def rates(self, wall_s, rounds):
        site_steps = sum(op.data["site_steps"] for op in rounds[0])
        return {"grid_site_steps_per_s": (site_steps / wall_s, "points*steps/s")}


class ReducedScan(Workload):
    """The fig8/fig9 robustness data: systematic and noise scans of the
    tilted-field and compensated mean-field designs, plus the oracle."""

    name = "reduced-scan"
    MIN_ROUNDS = 2

    def setup(self):
        sm = self.sm
        morse = sm.morse.MorseSpec(DEPTH)
        TS = sm.pulse_design.TransferSpec
        g11, g22, g12, g21 = G_EFFECTIVE
        self.spec_lin = TS(morse=morse, alpha=ALPHA, t_f=T_F, c=C_SMALL, scheme="so_direction")
        self.spec_mf = TS(morse=morse, alpha=ALPHA, t_f=T_F, c=C_SMALL,
                          scheme="so_direction_interacting",
                          g11=g11, g22=g22, g12=g12, g21=g21)
        self.me = sm.morse.matrix_elements(0, 1, ALPHA, morse)
        self.sched_lin = sm.pulse_design.design_scheme2(self.spec_lin, self.me)
        self.sched_mf = sm.pulse_design.design_scheme2_interacting(self.spec_mf, self.me)
        self.settings = sm.numerics.OdeSettings(step=DT)
        self.oracle_seed = int(np.random.SeedSequence([self.seed, 1]).generate_state(1)[0])
        self.sampled = sorted(self.rng.choice(len(LAMBDAS), size=2, replace=False))

    def run_round(self, r):
        rb = self.sm.robustness
        for label, spec, sched in (("linear", self.spec_lin, self.sched_lin),
                                   ("mean_field", self.spec_mf, self.sched_mf)):
            res, s = _timed(rb.scan_systematic, spec, sched, LAMBDAS, self.settings)
            yield Op(f"systematic_{label}", s, len(LAMBDAS), len(res.failures),
                     {"fidelities": res.fidelities})
        for label, spec, sched in (("linear", self.spec_lin, self.sched_lin),
                                   ("mean_field", self.spec_mf, self.sched_mf)):
            res, s = _timed(rb.scan_noise, spec, sched, LAMBDAS_PRIME, dt=DT)
            yield Op(f"noise_{label}", s, len(LAMBDAS_PRIME), len(res.failures),
                     {"fidelities": res.fidelities})
        (fid, se), s = _timed(rb.stochastic_oracle, self.spec_lin, self.sched_lin,
                              ORACLE_LAMBDA_PRIME, trajectories=ORACLE_TRAJECTORIES,
                              seed=self.oracle_seed, dt=DT)
        yield Op("oracle", s, 1, 0, {"fidelity": fid, "stderr": se})

    def _amplitude_fidelity(self, label):
        tl = self.sm.dynamics_two_level
        if label == "linear":
            return tl.propagate(self.spec_lin, self.me, self.sched_lin, self.settings)
        return tl.propagate_nonlinear(self.spec_mf, self.me, self.sched_mf, self.settings)

    def check_round(self, r, ops):
        by = {op.name: op.data for op in ops}
        out = []
        for label in ("linear", "mean_field"):
            out += checks.scan_peak_at_zero(LAMBDAS, by[f"systematic_{label}"]["fidelities"],
                                            f"systematic scan ({label})")
            out += checks.noise_nonincreasing(by[f"noise_{label}"]["fidelities"],
                                              f"noise scan ({label})")
        i_half = int(np.argmin(np.abs(LAMBDAS_PRIME - ORACLE_LAMBDA_PRIME)))
        out += checks.master_vs_oracle(by["noise_linear"]["fidelities"][i_half],
                                       by["oracle"]["fidelity"], by["oracle"]["stderr"])
        if r == 0:
            out += self._reference_checks(by)
        return out

    def _reference_checks(self, by):
        out = []
        for label, spec, sched in (("linear", self.spec_lin, self.sched_lin),
                                   ("mean_field", self.spec_mf, self.sched_mf)):
            amp = self._amplitude_fidelity(label).final_fidelity
            out += checks.matches_reference(by[f"noise_{label}"]["fidelities"][0], amp,
                                            f"noise scan ({label}) at lambda'=0 vs amplitude propagator")
            for i in self.sampled:
                ref = reference.reduced_fidelity(
                    DEPTH, False, sched.coupling, sched.a_at, sched.b_at, T_F,
                    zeeman_scale=1.0 + LAMBDAS[i], g=spec.g_effective)
                out += checks.matches_reference(
                    by[f"systematic_{label}"]["fidelities"][i], ref,
                    f"systematic scan ({label}) at lambda={LAMBDAS[i]} vs solve_ivp")
        return out

    def fingerprint(self, ops):
        return [op.data.get("fidelities", op.data.get("fidelity")) for op in ops]

    def rates(self, wall_s, rounds):
        scan_s = np.median([sum(op.seconds for op in ops if op.name != "oracle")
                            for ops in rounds])
        oracle_s = np.median([op.seconds for ops in rounds for op in ops if op.name == "oracle"])
        points = sum(op.count for op in rounds[0] if op.name != "oracle")
        steps = ORACLE_TRAJECTORIES * int(round(T_F / DT))
        return {"scan_points_per_s": (points / scan_s, "points/s"),
                "oracle_trajectory_steps_per_s": (steps / oracle_s, "traj*steps/s")}


class DesignSweep(Workload):
    """Seeded parameter points, each new to the process, run through the
    design pipeline: matrix elements and overlaps, both schemes, residual
    self-check, schedule CSV round trip and a coarse two-level check."""

    name = "design-sweep"
    POINTS_PER_ROUND = 8
    RESIDUAL_TIMES = 16
    ALPHA_SHIFT = 0.25
    COARSE_STEP = 1e-2

    def setup(self):
        self.seen = set()
        self.csv_path = self.out_dir / "schedule.csv"

    def _draw(self):
        while True:
            point = (float(self.rng.uniform(6.0, 12.0)), float(self.rng.uniform(0.8, 2.0)),
                     float(self.rng.uniform(0.1, 1.0)), float(self.rng.uniform(8.0, 16.0)))
            if point not in self.seen:
                self.seen.add(point)
                return point

    def _design_point(self, depth, alpha, c, t_f):
        sm = self.sm
        pd = sm.pulse_design
        morse = sm.morse.MorseSpec(depth)
        spec_r = pd.TransferSpec(morse=morse, alpha=alpha, t_f=t_f, c=c)
        spec_t = pd.TransferSpec(morse=morse, alpha=alpha, t_f=t_f, c=c, scheme="so_direction")
        spec_r2 = pd.TransferSpec(morse=morse, alpha=alpha + self.ALPHA_SHIFT, t_f=t_f, c=c)
        me = sm.morse.matrix_elements(0, 1, alpha, morse)
        overlaps = [sm.morse.overlap_Q(a, b, morse) for a, b in ((0, 0), (1, 1), (0, 1))]
        sched_r = pd.design_scheme1(spec_r, me)
        sched_t = pd.design_scheme2(spec_t, sm.morse.matrix_elements(0, 1, alpha, morse))
        me2 = sm.morse.matrix_elements(0, 1, spec_r2.alpha, morse)
        sched_r2 = pd.design_scheme1(spec_r2, me2)
        times = t_f * (np.arange(self.RESIDUAL_TIMES) + 0.5) / self.RESIDUAL_TIMES
        residuals = {label: [pd.invariant_residual(s, float(t)) for t in times]
                     for label, s in (("raman", sched_r), ("so_direction", sched_t))}
        sched_r.to_csv(self.csv_path)
        loaded = pd.PulseSchedule.from_csv(self.csv_path)
        traj = sm.dynamics_two_level.propagate(
            spec_r, me, sched_r, sm.numerics.OdeSettings(step=self.COARSE_STEP))
        return {"point": (depth, alpha, c, t_f), "G": me.G, "overlaps": overlaps,
                "raman": sched_r, "so_direction": sched_t, "raman_alpha2": sched_r2,
                "residuals": residuals, "loaded": loaded,
                "fidelity": traj.final_fidelity}

    def run_round(self, r):
        self.sampled = int(self.rng.integers(self.POINTS_PER_ROUND))
        for _ in range(self.POINTS_PER_ROUND):
            point = self._draw()
            data, s = _timed(self._design_point, *point)
            yield Op("design_point", s, data=data)

    def check_round(self, r, ops):
        out = []
        for i, op in enumerate(ops):
            d = op.data
            depth, alpha, c, t_f = d["point"]
            what = f"point A={depth:.4f} alpha={alpha:.4f} c={c:.4f} t_f={t_f:.4f}"
            split = reference.level_splitting(depth)
            for label in ("raman", "so_direction"):
                sched = d[label]
                out += checks.residual_small(d["residuals"][label], f"{what} {label}")
                out += checks.design_endpoints(float(sched.b_at(0.0)), float(sched.b_at(t_f)),
                                               split, c, f"{what} {label} endpoints")
            out += checks.detuning_alpha_invariant(d["raman"].channel_b,
                                                   d["raman_alpha2"].channel_b)
            out += checks.csv_round_trip(d["raman"].times, d["raman"].fn_a,
                                         d["raman"].fn_b, d["loaded"])
            out += checks.transfer_complete(d["fidelity"], f"{what} coarse two-level run")
            out += checks.overlaps_consistent(*d["overlaps"])
            if i == self.sampled:
                sched = d["raman"]
                out += checks.g_matches_fd(d["G"], reference.fd_abs_G(depth, alpha))
                ref = reference.reduced_fidelity(depth, True, sched.coupling, sched.a_at,
                                                 sched.b_at, t_f)
                out += checks.matches_reference(d["fidelity"], ref,
                                                f"{what} coarse two-level run vs solve_ivp")
            op.data = {"point": d["point"], "fidelity": d["fidelity"]}
        return out

    def rates(self, wall_s, rounds):
        return {"design_points_per_s": (self.POINTS_PER_ROUND / wall_s, "points/s")}


WORKLOADS = {w.name: w for w in (GridVerify, ReducedScan, DesignSweep)}
