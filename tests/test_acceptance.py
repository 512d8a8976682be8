"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line at its stated tolerance.  Everything here is closed-form-oracle or
property-based; the expensive shared runs live in session fixtures."""

import math

import numpy as np
import pytest

import pulsefront.fronts as fr
import pulsefront.homogenize as hg
import pulsefront.profiles as pr
import pulsefront.spectral as spx
import pulsefront.stability as st
from pulsefront.solver import Stepper, build_grid

C_EXACT = 0.4 / math.sqrt(2.0)          # (1 - 2*0.3)/sqrt(2)
C0_HETERO = math.sqrt(2.0 * math.sqrt(3.0)) * 0.2
# -lambda_1 = 3/8 - (3/2)(1/2 - theta)^2 at theta = 0.3: the second bound
# state of the reference front's linearization (a Rosen-Morse well), the
# asymptotic decay rate of a front-like datum on a Dirichlet window
RATE_EXACT = 3.0 / 8.0 - 1.5 * (0.5 - 0.3) ** 2


def check(report, number, passed, detail):
    report(number, passed, detail)
    assert passed, f"criterion {number}: {detail}"


# -- 1 -----------------------------------------------------------------------

def test_01_homogeneous_speed_oracle(homog_front, homog_inst, acceptance_report):
    est = homog_front.speed_estimate
    hd = pr.homogenized_data(homog_inst.coeff, homog_inst.reaction)
    limit = hg.solve_homogenized_front(hd)
    ok = (abs(est.c_period - C_EXACT) < 1e-2
          and abs(est.c_level - C_EXACT) < 1e-2
          and abs(limit.c0 - C_EXACT) < 1e-3)
    check(acceptance_report, 1, ok,
          f"c_period={est.c_period:.5f} c_level={est.c_level:.5f} "
          f"c0={limit.c0:.5f} vs exact {C_EXACT:.5f}")


# -- 2 -----------------------------------------------------------------------

@pytest.fixture(scope="session")
def sign_matrix(unit_coeff, cos_coeff):
    records = {}
    for th in (0.3, 0.5, 0.7):
        for name, coeff in (("a=1", unit_coeff), ("a=2+cos", cos_coeff)):
            rx = pr.make_cubic(th)
            inst = pr.ProblemInstance(coeff=coeff, reaction=rx, L=0.5)
            hd = pr.homogenized_data(coeff, rx)
            cfg = fr.FrontRunConfig(tail_floor=1e-6)
            records[(th, name)] = (fr.classify_quenching(inst, cfg, fr.Budget(500.0)), hd)
    return records


@pytest.mark.slow
def test_02_sign_law_matrix(sign_matrix, acceptance_report):
    failures = []
    for (th, name), (rec, hd) in sign_matrix.items():
        if th == 0.5:
            if rec.kind != fr.STATIONARY:
                failures.append(f"({th},{name})={rec.kind}, wanted Stationary")
        else:
            if rec.kind != fr.PROPAGATING:
                failures.append(f"({th},{name})={rec.kind}, wanted Propagating")
            elif math.copysign(1.0, rec.c) != math.copysign(1.0, hd.i_fbar):
                failures.append(f"({th},{name}): sign(c)={math.copysign(1, rec.c)} "
                                f"vs sign(I)={math.copysign(1, hd.i_fbar)}")
    check(acceptance_report, 2, not failures,
          "sign(c) = sign(int fbar) on the 6-instance matrix"
          + ("" if not failures else f"; failures: {failures}"))


# -- 3 -----------------------------------------------------------------------

@pytest.fixture(scope="session")
def hetero_sweep(cos_coeff, cubic03):
    cfg = fr.FrontRunConfig(tail_floor=1e-6)
    records, front0 = hg.homogenization_sweep(
        cos_coeff, cubic03, [0.8, 0.4, 0.2, 0.1], cfg, fr.Budget(400.0))
    return records, front0


@pytest.mark.slow
def test_03_homogenization_limit(hetero_sweep, acceptance_report):
    records, front0 = hetero_sweep
    ok = not any(isinstance(r, tuple) for r in records)
    gaps = [abs(r.c_L - front0.c0) for r in records if not isinstance(r, tuple)]
    pgaps = [r.profile_gap for r in records if not isinstance(r, tuple)]
    ok = ok and abs(front0.c0 - C0_HETERO) < 1e-6
    ok = ok and all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = ok and gaps[-1] < 0.05 * abs(front0.c0)
    ok = ok and all(b < a for a, b in zip(pgaps, pgaps[1:]))
    check(acceptance_report, 3, ok,
          f"c gaps {['%.2e' % g for g in gaps]} decreasing, final "
          f"{gaps[-1] / front0.c0:.2%} of c0; profile gaps "
          f"{['%.2e' % g for g in pgaps]} decreasing")


# -- 4 -----------------------------------------------------------------------

@pytest.fixture(scope="session")
def hetero_half_front(cos_coeff, cubic03):
    inst = pr.ProblemInstance(coeff=cos_coeff, reaction=cubic03, L=0.5)
    hd = pr.homogenized_data(cos_coeff, cubic03)
    front = fr.compute_pulsating_front(inst, fr.FrontRunConfig(), fr.Budget(400.0))
    return front, hd


@pytest.mark.slow
def test_04_speed_integral_identity(homog_front, homog_inst, hetero_half_front,
                                    acceptance_report):
    hd0 = pr.homogenized_data(homog_inst.coeff, homog_inst.reaction)
    rep0 = fr.verify_speed_identity(homog_front, hd0)
    front1, hd1 = hetero_half_front
    rep1 = fr.verify_speed_identity(front1, hd1)
    ok = rep0.mismatch < 0.02 and rep1.mismatch < 0.05
    check(acceptance_report, 4, ok,
          f"identity mismatch homogeneous {rep0.mismatch:.2%} (< 2%), "
          f"heterogeneous L=0.5 {rep1.mismatch:.2%} (< 5%)")


# -- 5 -----------------------------------------------------------------------

def test_05_pulsating_relation(homog_front, hetero_half_front, acceptance_report):
    front1, _ = hetero_half_front
    ok = (homog_front.pulsating_error < 1e-3 and front1.pulsating_error < 1e-3)
    check(acceptance_report, 5, ok,
          f"pulsating defects {homog_front.pulsating_error:.2e}, "
          f"{front1.pulsating_error:.2e} (< 1e-3, one whole period each)")


# -- 6 -----------------------------------------------------------------------

def test_06_eigen_closed_forms(homog_inst, acceptance_report):
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    R = math.pi / 2.0
    dir_pair = spx.dirichlet_principal_eigen(homog_inst, zero, R, n_nodes=2048)
    dir_err = abs(dir_pair.value - (-0.3 - 1.0))
    per_pair = spx.periodic_principal_eigen(homog_inst, zero, n_nodes=256)
    per_err = abs(per_pair.value - (-0.3))
    lim = spx.stability_limit(homog_inst, zero, [2.0, 4.0, 8.0, 16.0])
    mono1 = all(b > a - 1e-10 for a, b in zip(lim.lambdas, lim.lambdas[1:]))
    theta_state = lambda x: np.full_like(np.asarray(x, dtype=float), 0.3)
    lim2 = spx.stability_limit(homog_inst, theta_state, [2.0, 4.0, 8.0])
    mono2 = all(b > a - 1e-10 for a, b in zip(lim2.lambdas, lim2.lambdas[1:]))
    ok = dir_err < 1e-6 and per_err < 1e-10 and mono1 and mono2
    check(acceptance_report, 6, ok,
          f"dirichlet err {dir_err:.1e} (< 1e-6), periodic err {per_err:.1e} "
          f"(< 1e-10), traces increasing: {mono1 and mono2}")


# -- 7 -----------------------------------------------------------------------

def test_07_intermediate_states_unstable(unit_coeff, acceptance_report):
    # oscillating level at small period
    rx_osc = pr.make_cubic(pr.HarmonicCurve(0.5, 0.1))
    inst_small = pr.ProblemInstance(coeff=unit_coeff, reaction=rx_osc, L=0.1)
    states_small = spx.find_periodic_steady_states(inst_small)
    # large period with positive-everywhere reaction integral
    rx03 = pr.make_cubic(0.3)
    inst_large = pr.ProblemInstance(coeff=unit_coeff, reaction=rx03, L=10.0)
    states_large = spx.find_periodic_steady_states(inst_large)
    ok = bool(states_small) and bool(states_large)
    ok = ok and all(s.lambda1 > 0 for s in states_small + states_large)
    check(acceptance_report, 7, ok,
          f"small-L states: {[('%.3f' % float(np.mean(s.u)), '%.3g' % s.lambda1) for s in states_small]}; "
          f"large-L states: {[('%.3f' % float(np.mean(s.u)), '%.3g' % s.lambda1) for s in states_large]} "
          "(all lambda1 > 0)")


# -- 8 -----------------------------------------------------------------------

def test_08_decay_rate_consistency(homog_inst, homog_front, acceptance_report):
    c = homog_front.speed
    mu1_root = spx.decay_root_mu(homog_inst, c, "right", "linearized")
    mu2_root = spx.decay_root_mu(homog_inst, c, "left", "linearized")
    rel1 = abs(homog_front.mu1_fit - mu1_root) / mu1_root
    rel2 = abs(homog_front.mu2_fit - mu2_root) / mu2_root
    # constant-coefficient margin-mode oracle
    gamma = homog_inst.reaction.gamma
    for d in (1.0, 2.0):
        coeff = pr.CoefficientProfile.from_curve(pr.HarmonicCurve(d))
        inst_d = pr.ProblemInstance(coeff=coeff, reaction=homog_inst.reaction, L=1.0)
        mu = spx.decay_root_mu(inst_d, 0.0, "right", "margin")
        exact = math.sqrt(gamma / d)
        if abs(mu - exact) >= 1e-6:
            check(acceptance_report, 8, False,
                  f"margin root {mu} vs sqrt(gamma/d) {exact}")
    ok = rel1 < 0.10 and rel2 < 0.10
    check(acceptance_report, 8, ok,
          f"tail fits vs roots: right {rel1:.1%}, left {rel2:.1%} (< 10%); "
          f"sqrt(gamma/d) reproduced to 1e-6")


# -- 9 -----------------------------------------------------------------------

@pytest.fixture(scope="session")
def stability_reports(homog_inst, homog_front):
    L = homog_inst.L
    front = homog_front

    def shifted(x):
        return front.interp(x - 3.0 * L, x / L)

    def perturbed(x):
        bump = 0.05 * np.exp(-((x - 2.0) / 1.5) ** 2)
        return np.clip(front.interp(x, x / L) + bump, 0.0, 1.0)

    def step(x):
        return np.where(x < 0.0, 1.0, 0.0)

    reports = {}
    for name, g in (("shifted", shifted), ("perturbed", perturbed), ("step", step)):
        reports[name] = st.global_stability_experiment(homog_inst, front, g,
                                                       fr.Budget(120.0))
    return reports


@pytest.mark.slow
def test_09_exponential_stability(homog_inst, homog_front, stability_reports,
                                  acceptance_report):
    reps = stability_reports
    ok = all(r.accepted for r in reps.values())
    ok = ok and all(r.mu_fit > 0 for r in reps.values())
    ok = ok and all(r.final_error < 1e-4 for r in reps.values())
    finite = [r.mu_fit for r in reps.values() if math.isfinite(r.mu_fit)]
    pairwise = (max(finite) - min(finite)) / min(finite) if len(finite) > 1 else 0.0
    ok = ok and pairwise < 0.20
    # the shifted datum is the front's translate by 3L: its phase is 3L/c to
    # within the node spacing's worth of time
    shifted = reps["shifted"]
    tau_err = abs(shifted.tau_g - 3.0 * homog_inst.L / homog_front.speed)
    tau_tol = shifted.diagnostics["h"] / abs(homog_front.speed)
    ok = ok and tau_err < tau_tol
    # trapped-data route for a datum that is front-like only between the
    # intermediate state levels
    states = spx.find_periodic_steady_states(homog_inst)

    def g2(x):
        return 0.45 - 0.40 / (1.0 + np.exp(-x / 0.8))

    rep2 = st.initialv2_experiment(homog_inst, homog_front, states, g2,
                                   fr.Budget(220.0))
    ok = ok and rep2.accepted and rep2.mu_fit > 0
    # the oracle: every rate is -lambda1 to within 5%, from a third-difference
    # record that fell below the fit floor
    every = [*reps.values(), rep2]
    oracle = all(math.isfinite(r.mu_fit) and abs(r.mu_fit / RATE_EXACT - 1) < 0.05
                 for r in every)
    floor = all(r.diagnostics["floor_reached"] for r in every)
    ok = ok and oracle and floor

    def vs_exact(mu):
        return f"{mu:.4f}" + (f" ({mu / RATE_EXACT - 1:+.1%})" if math.isfinite(mu) else "")

    rates = ", ".join(f"{k} {vs_exact(v.mu_fit)}" for k, v in reps.items())
    check(acceptance_report, 9, ok,
          f"rates {rates} vs -lambda1 = {RATE_EXACT:.4f} (each within 5%, records below "
          f"{st.FIT_FLOOR:.0e}: {floor}), pairwise {pairwise:.1%} (< 20%), "
          f"shifted phase |tau_g - 3L/c| = {tau_err:.4f} (< h/|c| = {tau_tol:.4f}), finals "
          f"{['%.1e' % r.final_error for r in reps.values()]} (< 1e-4), "
          f"trapped-datum accepted={rep2.accepted} rate={vs_exact(rep2.mu_fit)}")


# -- 10 ----------------------------------------------------------------------

def test_10_supersub_defects(homog_inst, homog_front, acceptance_report):
    sup = st.build_supersub(homog_inst, "super", homog_front.speed)
    sub = st.build_supersub(homog_inst, "sub", homog_front.speed)
    ok = sup.defect_min >= -1e-8 and sub.defect_max <= 1e-8
    check(acceptance_report, 10, ok,
          f"min defect(super) = {sup.defect_min:.2e} (>= -1e-8), "
          f"max defect(sub) = {sub.defect_max:.2e} (<= 1e-8), K = {sup.K:.3g}")


# -- 11 ----------------------------------------------------------------------

@pytest.mark.slow
def test_11_poincare_spectrum(homog_spectrum, acceptance_report):
    spec = homog_spectrum
    rate = -math.log(spec.second_modulus) / spec.T
    ok = (spec.n_nodes <= 400 and spec.leading_gap < 1e-2
          and spec.cosine_similarity > 0.99 and spec.second_modulus < 1.0
          and abs(rate - RATE_EXACT) < 0.02 * RATE_EXACT)
    check(acceptance_report, 11, ok,
          f"leading |lambda - 1| = {spec.leading_gap:.2e} (< 1e-2), cos "
          f"{spec.cosine_similarity:.4f} (> 0.99), second modulus "
          f"{spec.second_modulus:.3f} (< 1), rate -ln|lambda_2|/T = {rate:.4f} vs "
          f"-lambda1 = {RATE_EXACT:.4f} ({rate / RATE_EXACT - 1:+.2%}, within 2%), "
          f"{spec.n_above_ess} modes above "
          f"e^(-gamma T/2)+0.05 = {spec.ess_radius + spec.margin:.3f}")


# -- 12 ----------------------------------------------------------------------

@pytest.mark.slow
def test_12_quenching_trend(quench_records, acceptance_report):
    speeds = []
    ok = True
    for lam, rec in quench_records:
        if rec.kind == fr.INCONCLUSIVE:
            ok = False
            speeds.append(None)
            continue
        speeds.append(abs(rec.c))
        if rec.kind == fr.STATIONARY:
            ok = ok and rec.evidence["stationary_residual"] < 1e-6
    known = [s for s in speeds if s is not None]
    scale = max(known) if known else 1.0
    ok = ok and all(b <= a + 1e-3 * scale for a, b in zip(known, known[1:]))
    check(acceptance_report, 12, ok,
          "|c| non-increasing over lambda grid: "
          + str(["%.4g" % s if s is not None else "??" for s in speeds])
          + "; stationary residual < 1e-6 where pinned")


# -- 13 ----------------------------------------------------------------------

def test_13_discrete_comparison(homog_inst, acceptance_report):
    grid = build_grid(homog_inst, 6.0, 64)
    stepper = Stepper(homog_inst, grid, 0.05)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        lo = np.clip(rng.random(grid.n), 0.0, 1.0)
        hi = np.clip(lo + rng.random(grid.n) * (1.0 - lo), lo, 1.0)
        lo[0] = hi[0] = 1.0
        lo[-1] = hi[-1] = 0.0
        out_lo, _ = stepper.run(lo.copy(), 0.0, 30)
        out_hi, _ = stepper.run(hi.copy(), 0.0, 30)
        worst = min(worst, float(np.min(out_hi - out_lo)))
    ok = worst >= -1e-10
    check(acceptance_report, 13, ok,
          f"50 ordered pairs stay ordered; worst violation {worst:.2e} (>= -1e-10)")
