"""Seeded workloads and their output checks.

generate(workload, seed) draws the instance parameters from narrow bands and
writes the config text the program reads; it needs nothing but the standard
library.  setup() parses the configs and builds the instances; run_pass()
runs one pass of the workload through the public entry points and returns
one Check per operation.  Every check is a closed-form or property oracle.

The seed must not change how much work a pass does, or the spread between
seeds would be about the inputs and not about the code.
compute_pulsating_front advances in 10-time-unit chunks and opens its first
capture window once t >= max(20 L/|c|, 50).  Where 20 L/|c| < 50 that test
compares a float sum of chunks with 50, so whether the window opens at
t = 50 or t = 60 flips with theta at the 1e-4 scale (5-15% of a pass).
Hence:
- theta is drawn from 0.3 +- 0.0015 (or 0.7 +- 0.0015) only where
  20 L/|c| > 50 and stays between chunk boundaries (L = 1, 2);
- the L = 0.5 fronts use theta = 0.3 and 0.7 exactly;
- homogenize runs L = 2, 1 with 128 nodes per period (transients 107 and
  54, grids of 4.5k and 8.8k nodes) instead of L = 0.8, 0.4 at 64.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("front-scan", "homogenize", "front-analysis")

# Never used while the benchmark or a change is being written; later claims
# are checked on it.
HELD_OUT_SEED = 7919

THETA_BAND = 0.0015
A_AMP_BAND = 0.01
# acceptance 1 tolerance on a measured front speed
SPEED_TOL = 1e-2
# homogenized speed against its closed form (shooting solve at tol_c 1e-10)
C0_TOL = 1e-6
# acceptance 9 (stability experiments) and acceptance 11 (spectrum)
FINAL_ERROR_TOL = 1e-4
PAIRWISE_RATE_TOL = 0.20
SPECTRUM_GAP_TOL = 1e-2
SPECTRUM_COS_TOL = 0.99
SPECTRUM_NODES = 400
STABILITY_BUDGET = 120.0
# decay roots against the constant-coefficient closed form
DECAY_TOL = 1e-8
EIGEN_TOL = 1e-6

FRONT_ANALYSIS_OPS = (
    "reference front", "stability experiment shifted", "stability experiment perturbed",
    "stability experiment step", "stability rates agree", "poincare_spectrum",
    "eigen trace zero state", "eigen trace theta state", "periodic steady states",
    "decay root right", "decay root left")


@dataclass
class Check:
    op: str
    ok: bool
    detail: str
    speed_err: float | None = None     # |c - c_oracle| where an oracle exists


@dataclass
class Plan:
    workload: str
    seed: int
    cases: list = field(default_factory=list)   # dicts: name, scenario, text, oracle


def _band(rng: random.Random, center: float, half: float) -> float:
    return center + rng.uniform(-half, half)


def _cubic_text(prefix: str, theta: float, L: float, budget: float, a: float = 1.0,
                a_amp: float = 0.0, extra_numerics: str = "", run: str = "") -> str:
    text = (f"# generated by perfbench\n[profile]\nfamily = cubic\ntheta = {theta!r}\n"
            f"a = {a!r}\na_amp = {a_amp!r}\n\n[numerics]\nL = {L!r}\nbudget = {budget!r}\n"
            f"{extra_numerics}\n[experiment]\nworkers = 1\n\n[output]\nprefix = {prefix}\n")
    if run:
        text += f"\n[run]\n{run}\n"
    return text


def generate(workload: str, seed: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"pulsefront-bench/{workload}/{seed}")
    plan = Plan(workload=workload, seed=seed)
    if workload == "front-scan":
        k = 0
        for center in (0.3, 0.7):
            for L in (0.5, 1.0, 2.0):
                theta = center if L == 0.5 else _band(rng, center, THETA_BAND)
                plan.cases.append({
                    "name": f"front theta={theta:.5f} L={L:g}", "scenario": "front",
                    "text": _cubic_text(f"fs{k}", theta, L, 300.0),
                    "oracle": {"c": math.sqrt(0.5) * (1.0 - 2.0 * theta)}})
                k += 1
        plan.cases.append({
            "name": "front theta=0.5 L=1 (pinned)", "scenario": "front",
            "text": _cubic_text(f"fs{k}", 0.5, 1.0, 300.0), "oracle": {"c": 0.0}})
    elif workload == "homogenize":
        theta = _band(rng, 0.3, THETA_BAND)
        a_amp = _band(rng, 1.0, A_AMP_BAND)
        a_h = math.sqrt(4.0 - a_amp ** 2)
        plan.cases.append({
            "name": f"homogenize theta={theta:.5f} a=2+{a_amp:.4f}cos", "scenario": "homogenize",
            "text": _cubic_text("hg", theta, 1.0, 400.0, a=2.0, a_amp=a_amp,
                                extra_numerics="nodes_per_period = 128\ntail_floor = 1e-6\n",
                                run="L_list = 2.0 1.0"),
            "oracle": {"c0": math.sqrt(a_h / 2.0) * (1.0 - 2.0 * theta), "L_list": (2.0, 1.0)}})
    else:
        theta = _band(rng, 0.3, THETA_BAND)
        plan.cases.append({
            "name": f"reference front theta={theta:.5f} L=1", "scenario": "front",
            "text": _cubic_text("fa", theta, 1.0, 300.0),
            "oracle": {"theta": theta, "c": math.sqrt(0.5) * (1.0 - 2.0 * theta)}})
    return plan


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------

def setup(plan: Plan, pf) -> dict:
    """Parse every config and build its instance and homogenized data."""
    config, profiles = pf["config"], pf["profiles"]
    state = {"cfgs": [], "insts": []}
    for case in plan.cases:
        cfg = config.parse_config(case["text"], case["scenario"])
        inst = config.build_instance(cfg)
        profiles.homogenized_data(inst.coeff, inst.reaction)
        state["cfgs"].append(cfg)
        state["insts"].append(inst)
    return state


def run_pass(plan: Plan, state: dict, pf, out_dir: str) -> list[Check]:
    body = {"front-scan": _pass_front_scan, "homogenize": _pass_homogenize,
            "front-analysis": _pass_front_analysis}[plan.workload]
    return body(plan, state, pf, out_dir)


def _guarded(ops, fn) -> list[Check]:
    """Run one operation; an exception fails each of its checks (ops: one
    name or a tuple of names) and the pass goes on."""
    try:
        return fn()
    except Exception as exc:  # the benchmark must keep running and report it
        names = (ops,) if isinstance(ops, str) else ops
        return [Check(op, False, f"{type(exc).__name__}: {exc}") for op in names]


def _read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _pass_front_scan(plan, state, pf, out_dir):
    runner = pf["runner"]
    checks = []
    for case, cfg in zip(plan.cases, state["cfgs"]):
        def one(case=case, cfg=cfg):
            res = runner.run_scenario(cfg, out_dir)
            row = _read_csv(res.artifacts[0])[0]
            c_exact = case["oracle"]["c"]
            kind = row["classification"]
            if c_exact == 0.0:
                ok = (kind == "Stationary" and float(row["c_period"]) == 0.0
                      and not res.failures)
                return [Check(case["name"], ok, f"{kind} c={row['c_period']}")]
            c_per, c_lev = float(row["c_period"]), float(row["c_level"])
            err = max(abs(c_per - c_exact), abs(c_lev - c_exact))
            ok = (kind == "Propagating" and not res.failures
                  and len(res.artifacts) == 2 and err < SPEED_TOL)
            return [Check(case["name"], ok,
                          f"{kind} c_period={c_per:.6f} c_level={c_lev:.6f} "
                          f"exact={c_exact:.6f} err={err:.2e}", speed_err=err)]
        checks += _guarded(case["name"], one)
    return checks


def _pass_homogenize(plan, state, pf, out_dir):
    runner = pf["runner"]
    case, cfg = plan.cases[0], state["cfgs"][0]
    oracle = case["oracle"]

    def body():
        res = runner.run_scenario(cfg, out_dir)
        rows = _read_csv(res.artifacts[0])
        c0 = float(rows[0]["c0"]) if rows else math.nan
        c0_err = abs(c0 - oracle["c0"])
        out = [Check("c0 shooting", c0_err < C0_TOL,
                     f"c0={c0:.10f} exact={oracle['c0']:.10f} err={c0_err:.1e}",
                     speed_err=c0_err)]
        by_L = {float(r["L"]): r for r in rows}
        for L in oracle["L_list"]:
            r = by_L.get(L)
            if r is None:
                out.append(Check(f"front L={L:g}", False,
                                 "no record; " + "; ".join(res.failures)))
                continue
            c_L = float(r["c_L"])
            err = abs(c_L - oracle["c0"])
            out.append(Check(f"front L={L:g}", err < SPEED_TOL,
                             f"c_L={c_L:.6f} |c_L-c0_exact|={err:.2e} "
                             f"gap={float(r['c_gap_rel']):.2e} "
                             f"profile_gap={float(r['profile_gap_L2']):.2e}", speed_err=err))
        gaps = [(float(by_L[L]["c_gap_rel"]), float(by_L[L]["profile_gap_L2"]))
                for L in oracle["L_list"] if L in by_L]
        mono = (len(gaps) == len(oracle["L_list"])
                and all(b[0] < a[0] and b[1] < a[1] for a, b in zip(gaps, gaps[1:])))
        out.append(Check("gaps decrease along L", mono and not res.failures, f"{gaps}"))
        return out

    return _guarded(("c0 shooting",) + tuple(f"front L={L:g}" for L in oracle["L_list"])
                    + ("gaps decrease along L",), body)


def _pass_front_analysis(plan, state, pf, out_dir):
    np = pf["numpy"]
    fr, st, spx = pf["fronts"], pf["stability"], pf["spectral"]
    config = pf["config"]
    case, cfg, inst = plan.cases[0], state["cfgs"][0], state["insts"][0]
    theta, c_exact = case["oracle"]["theta"], case["oracle"]["c"]
    checks: list[Check] = []

    rc, budget = config.build_run_config(cfg)
    try:
        front = fr.compute_pulsating_front(inst, rc, budget)
    except Exception as exc:  # nothing else can run without the front
        return [Check(op, False, f"reference front: {type(exc).__name__}: {exc}")
                for op in FRONT_ANALYSIS_OPS]
    est = front.speed_estimate
    err = max(abs(est.c_period - c_exact), abs(est.c_level - c_exact))
    checks.append(Check("reference front", err < SPEED_TOL and front.pulsating_error < 1e-3,
                        f"c={front.speed:.6f} exact={c_exact:.6f} err={err:.2e} "
                        f"defect={front.pulsating_error:.1e}", speed_err=err))
    L = inst.L

    def shifted(x):
        return front.interp(x - 3.0 * L, x / L)

    def perturbed(x):
        bump = 0.05 * np.exp(-((x - 2.0) / 1.5) ** 2)
        return np.clip(front.interp(x, x / L) + bump, 0.0, 1.0)

    def step(x):
        return np.where(x < 0.0, 1.0, 0.0)

    rates = {}
    for name, g in (("shifted", shifted), ("perturbed", perturbed), ("step", step)):
        def experiment(name=name, g=g):
            rep = st.global_stability_experiment(inst, front, g, fr.Budget(STABILITY_BUDGET))
            rates[name] = rep.mu_fit
            ok = rep.accepted and rep.mu_fit > 0 and rep.final_error < FINAL_ERROR_TOL
            return [Check(f"stability experiment {name}", ok,
                          f"accepted={rep.accepted} mu={rep.mu_fit:.4f} "
                          f"final={rep.final_error:.1e}")]
        checks += _guarded(f"stability experiment {name}", experiment)
    finite = [r for r in rates.values() if math.isfinite(r)]
    pairwise = (max(finite) - min(finite)) / min(finite) if len(finite) > 1 else 0.0
    checks.append(Check("stability rates agree", len(rates) == 3 and pairwise < PAIRWISE_RATE_TOL,
                        f"pairwise {pairwise:.1%} of {len(finite)} finite rates"))

    def spectrum():
        spec = st.poincare_spectrum(inst, front, n_nodes=SPECTRUM_NODES)
        ok = (spec.n_nodes <= SPECTRUM_NODES and spec.leading_gap < SPECTRUM_GAP_TOL
              and spec.cosine_similarity > SPECTRUM_COS_TOL and spec.second_modulus < 1.0)
        return [Check("poincare_spectrum", ok,
                      f"leading={spec.leading.real:.3f} |lambda-1|={spec.leading_gap:.2e} "
                      f"cos={spec.cosine_similarity:.3f} second={spec.second_modulus:.3f} "
                      f"n={spec.n_nodes}")]
    checks += _guarded("poincare_spectrum", spectrum)

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    theta_state = lambda x: np.asarray(inst.theta_L(x), dtype=float)
    for name, ubar, radii, lam_exact in (
            ("eigen trace zero state", zero, (2, 4, 8, 16, 32, 64), -theta),
            ("eigen trace theta state", theta_state, (2, 4, 8, 16, 32), theta * (1 - theta))):
        def trace(name=name, ubar=ubar, radii=radii, lam_exact=lam_exact):
            lim = spx.stability_limit(inst, ubar, radii)
            lams = list(lim.lambdas)
            ok = (lim.periodic_value is not None
                  and abs(lim.periodic_value - lam_exact) < EIGEN_TOL
                  and all(b > a for a, b in zip(lams, lams[1:]))
                  and lams[-1] < lim.periodic_value + EIGEN_TOL)
            return [Check(name, ok, f"trace {lams[0]:.4f}..{lams[-1]:.6f} -> "
                                    f"periodic {lim.periodic_value:.8f} exact {lam_exact:.6f}")]
        checks += _guarded(name, trace)

    def steady():
        states = spx.find_periodic_steady_states(inst)
        ok = bool(states) and all(s.lambda1 > 0 for s in states)
        return [Check("periodic steady states", ok,
                      f"{len(states)} states, lambda1 {[round(s.lambda1, 6) for s in states]}")]
    checks += _guarded("periodic steady states", steady)

    gamma = inst.reaction.gamma
    a = 1.0
    for direction, sign in (("right", 1.0), ("left", -1.0)):
        def decay(direction=direction, sign=sign):
            c = front.speed
            mu = spx.decay_root_mu(inst, c, direction, "margin")
            exact = (sign * c + math.sqrt(c * c + 4.0 * a * gamma)) / (2.0 * a)
            return [Check(f"decay root {direction}", abs(mu - exact) < DECAY_TOL,
                          f"mu={mu:.10f} exact={exact:.10f}")]
        checks += _guarded(f"decay root {direction}", decay)
    return checks
