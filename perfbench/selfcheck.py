"""Shows that every check in ``checks.py`` rejects a wrong result.

Run from the root of a source checkout (takes about half a minute):

    python3 perfbench/selfcheck.py

Each case feeds a check one right input, which must pass, and one wrong
input, which must be rejected: a schedule with its Zeeman channel scaled
by 1.02, a fidelity from the wrong gap c, a result one ulp off, and so on.
Exits 1 if a check rejects the right input or accepts the wrong one.
"""

import sys

import numpy as np

import checks
import reference
import workloads as w
from run import OUT, import_socmorse


def cases(sm):
    pd, rb, tl = sm.pulse_design, sm.robustness, sm.dynamics_two_level
    morse = sm.morse.MorseSpec(w.DEPTH)
    me = sm.morse.matrix_elements(0, 1, w.ALPHA, morse)
    spec = pd.TransferSpec(morse=morse, alpha=w.ALPHA, t_f=w.T_F, c=w.C_SMALL,
                           scheme="so_direction")
    sched = pd.design_scheme2(spec, me)
    off = sched.with_channel_b_scaled(1.02)
    settings = sm.numerics.OdeSettings(step=w.DT)
    raman = pd.TransferSpec(morse=morse, alpha=w.ALPHA, t_f=w.T_F, c=w.C_SMALL)
    sched_r = pd.design_scheme1(raman, me)
    wrong_c = pd.design_scheme1(
        pd.TransferSpec(morse=morse, alpha=w.ALPHA, t_f=w.T_F, c=0.12), me)
    split = reference.level_splitting(w.DEPTH)
    ones = np.ones(501)

    yield ("grid norm drift, linear",
           checks.grid_norm_drift(ones + 1e-12, False),
           checks.grid_norm_drift(ones + 2e-8, False))
    yield ("grid norm drift, mean field",
           checks.grid_norm_drift(ones + 1e-8, True),
           checks.grid_norm_drift(ones + 2e-6, True))
    yield ("Raman grid fidelity, fidelity from the wrong gap c",
           checks.raman_grid_fidelity(0.1, 0.9966) + checks.raman_grid_fidelity(1.5, 0.979),
           checks.raman_grid_fidelity(0.1, 0.979))
    yield ("wider gap transfers less",
           checks.wider_gap_lower(0.9966, 0.979), checks.wider_gap_lower(0.979, 0.9966))
    yield ("tilted-field grid run",
           checks.tilted_grid_run(0.98, 1.0, -0.97),
           checks.tilted_grid_run(0.96, 1.0, -0.97) + checks.tilted_grid_run(1.0, 1.0, -1.0)
           + checks.tilted_grid_run(0.98, 1.0, -0.9))
    yield ("mean-field grid target",
           [] if checks.meets_mean_field_target(0.995) else ["0.995 missed"],
           [] if checks.meets_mean_field_target(0.98285) else ["0.98285 missed"])

    scan = rb.scan_systematic(spec, sched, w.LAMBDAS, settings).fidelities
    scan_off = rb.scan_systematic(spec, off, w.LAMBDAS, settings).fidelities
    yield ("systematic scan peak, Zeeman channel scaled by 1.02",
           checks.scan_peak_at_zero(w.LAMBDAS, scan, "scan"),
           checks.scan_peak_at_zero(w.LAMBDAS, scan_off, "scan"))
    noise = rb.scan_noise(spec, sched, w.LAMBDAS_PRIME, dt=w.DT).fidelities
    yield ("noise scan nonincreasing, scan reversed",
           checks.noise_nonincreasing(noise, "noise"),
           checks.noise_nonincreasing(noise[::-1], "noise"))
    i_half = int(np.argmin(np.abs(w.LAMBDAS_PRIME - 0.5)))
    f_right, se_right = rb.stochastic_oracle(spec, sched, 0.5, trajectories=1000, seed=3)
    f_wrong, se_wrong = rb.stochastic_oracle(spec, sched, 1.0, trajectories=1000, seed=3)
    yield ("master equation vs oracle, oracle at the wrong noise strength",
           checks.master_vs_oracle(noise[i_half], f_right, se_right),
           checks.master_vs_oracle(noise[i_half], f_wrong, se_wrong))

    ref = reference.reduced_fidelity(w.DEPTH, False, sched.coupling, sched.a_at,
                                     sched.b_at, w.T_F)
    yield ("solve_ivp reference, Zeeman channel scaled by 1.02",
           checks.matches_reference(scan[10], ref, "lambda=0"),
           checks.matches_reference(scan_off[10], ref, "lambda=0"))
    amp = tl.propagate(spec, me, sched, settings).final_fidelity
    amp_off = tl.propagate(spec, me, off, settings).final_fidelity
    yield ("noise scan at lambda'=0 vs amplitude propagator",
           checks.matches_reference(noise[0], amp, "lambda'=0"),
           checks.matches_reference(noise[0], amp_off, "lambda'=0"))
    times = w.T_F * (np.arange(16) + 0.5) / 16
    yield ("invariant residual, Zeeman channel scaled by 1.02",
           checks.residual_small([pd.invariant_residual(sched, t) for t in times], "design"),
           checks.residual_small([pd.invariant_residual(off, t) for t in times], "design"))
    yield ("design endpoints, design from the wrong gap c",
           checks.design_endpoints(sched_r.b_at(0.0), sched_r.b_at(w.T_F), split, 0.1, "c"),
           checks.design_endpoints(wrong_c.b_at(0.0), wrong_c.b_at(w.T_F), split, 0.1, "c"))
    me2 = sm.morse.matrix_elements(0, 1, w.ALPHA + 0.25, morse)
    other_alpha = pd.design_scheme1(
        pd.TransferSpec(morse=morse, alpha=w.ALPHA + 0.25, t_f=w.T_F, c=w.C_SMALL), me2)
    yield ("Raman detuning independent of alpha, detuning from the wrong gap c",
           checks.detuning_alpha_invariant(sched_r.channel_b, other_alpha.channel_b),
           checks.detuning_alpha_invariant(sched_r.channel_b, wrong_c.channel_b))

    OUT.mkdir(exist_ok=True)
    path = OUT / "selfcheck_schedule.csv"
    sched_r.to_csv(path)
    loaded = pd.PulseSchedule.from_csv(path)
    yield ("schedule CSV round trip, Zeeman channel scaled by 1.02",
           checks.csv_round_trip(sched_r.times, sched_r.fn_a, sched_r.fn_b, loaded),
           checks.csv_round_trip(sched_r.times, sched_r.fn_a,
                                 lambda t: 1.02 * np.asarray(sched_r.fn_b(t)), loaded))
    table = np.column_stack([sched_r.times, sched_r.channel_a])
    yield ("CSV table round trip, one entry off by 1e-9",
           checks.table_round_trip(table, table.copy(), "table"),
           checks.table_round_trip(table, table * (1.0 + 1e-9 * (np.arange(2) == 1)), "table"))
    q = [sm.morse.overlap_Q(a, b, morse) for a, b in ((0, 0), (1, 1), (0, 1))]
    yield ("density overlaps, Q_nl from a state paired with itself",
           checks.overlaps_consistent(*q), checks.overlaps_consistent(q[0], q[1], q[0]))
    g_fd = reference.fd_abs_G(w.DEPTH, w.ALPHA)
    g_off = sm.morse.matrix_elements(0, 1, w.ALPHA + 0.01, morse).G
    yield ("|G| against finite differences, G at alpha + 0.01",
           checks.g_matches_fd(me.G, g_fd), checks.g_matches_fd(g_off, g_fd))
    yield ("bit-identical rounds, one fidelity one ulp off",
           checks.bit_identical([scan, 0.5], [scan.copy(), 0.5], "rounds"),
           checks.bit_identical([scan, 0.5], [scan, np.nextafter(0.5, 1.0)], "rounds"))


def main():
    sm = import_socmorse()
    bad = 0
    for name, right, wrong in cases(sm):
        ok = not right and bool(wrong)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        for text in right:
            print(f"       right input rejected: {text}")
        if not wrong:
            print("       wrong input accepted")
    print(f"{'all checks reject wrong results' if not bad else f'{bad} checks misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
