"""Stability experiments around a computed pulsating front.

In the frame xi = x - c t the front becomes a time-periodic solution of
v_t = (a_L(xi + c t) v_xi)_xi + c v_xi + f_L(xi + c t, v) with period
T = L/|c|, and its translates phi(xi + tau, (xi + c t)/L) are fixed points of
the period map.  Every evolution here is a lab-frame run on a solver.Window:
the phase/rate experiments slide it by whole periods to keep the interface
inside it, and the period map is one period T of lab-frame steps followed by
a slide of exactly one period L, an exact translation of the L-periodic
medium, so no transport term is discretized.  This module fits phase shifts
and exponential convergence rates of front-like initial data, assembles the
explicit super/subsolution pairs used to trap such data, and computes the
spectrum of the linearized period map, whose implicit steps reuse the flux
stencil and the factor-once tridiagonal solve of the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .fronts import Budget, FrontSolution, _golden_min, fit_line, level_position
from .profiles import ProblemInstance
from .solver import (REACTION_BUDGET, Grid1D, SolverConfig, Stepper, Window, build_grid,
                     choose_dt, shift_window, solve_banded)

PROBE_DT = 1.0              # time between phase fits
TAU_SPAN_PERIODS = 5.0      # golden-section window, units of L/|c|
TAU_SETTLE_FACTOR = 1.0     # stabilization threshold, units of h/|c|
FIT_FLOOR = 1e-11
FIT_CEILING = 5e-2
MIN_FIT_POINTS = 8
N_MODES = 12                # eigenvalues kept in a SpectrumSummary, at least
ESS_MARGIN = 0.05           # tolerance above the essential radius
RECENTER_FRAC = 0.3         # interface drift allowance, times the halfwidth


def poincare_map(inst: ProblemInstance, grid: Grid1D, c: float, cfg: SolverConfig,
                 g: np.ndarray, on_step: Callable | None = None) -> np.ndarray:
    """One frame period P(g) of a front of speed c: n lab-frame steps with
    n*dt = T = L/|c| exactly (cfg.dt shortened to T/n), then the window slid
    one period along the front.

    on_step(k, t, u) fires after every step k = 1..n, before the slide.
    """
    if c == 0.0:
        raise ValueError("the period map needs a nonzero speed")
    T = inst.L / abs(c)
    n = max(1, int(math.ceil(T / cfg.dt - 1e-9)))
    win = Window(Stepper(inst, grid, replace(cfg, dt=T / n)), g)
    win.run(n, on_step)
    win.slide(1 if c > 0 else -1)
    return win.u


# ---------------------------------------------------------------------------
# global stability experiments (lab frame)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    tau_g: float
    mu_fit: float
    accepted: bool
    sup_errors: tuple          # ((t, e), ...)
    final_error: float
    diagnostics: dict
    spectrum: tuple = ()


def _edge_zones(n: int):
    k = max(3, int(0.05 * n))
    return slice(0, k), slice(n - k, n)


def check_front_like(g: np.ndarray, delta: float) -> bool:
    """The truncated-domain version of the front-like condition: above
    1 - delta near the left edge, below delta near the right edge (the outer
    5% of the nodes on each side)."""
    left, right = _edge_zones(len(g))
    return bool(np.min(g[left]) > 1.0 - delta and np.max(g[right]) < delta)


def global_stability_experiment(inst: ProblemInstance, front: FrontSolution,
                                g, budget: Budget = Budget(200.0)) -> StabilityReport:
    """Track sup_x |u(t, .) - U(t + tau, .)| for a front-like datum g.

    The phase tau is re-fit at every probe by golden-section; once it
    stabilizes, log sup-error against t on the stabilized window gives the
    exponential rate.  Reports are 'not accepted' (with diagnostics) when tau
    never settles or the fitted rate is not positive.
    """
    win = _experiment_window(inst, front, g)
    if not check_front_like(win.u, inst.reaction.delta):
        raise ValueError("initial datum violates the front-like condition "
                         "(above 1-delta left, below delta right) on this domain")
    return _track_phase(front, win, budget.t_max)


def _experiment_window(inst: ProblemInstance, front: FrontSolution, g) -> Window:
    """The experiment's run: g realized on a front-sized grid at the front's
    resolution, stepped at solver.choose_dt for the front's speed."""
    if front.stationary or front.speed == 0.0:
        raise ValueError("stability experiments need a non-stationary front")
    span = float(front.xi[-1] - front.xi[0])
    halfwidth = max(0.55 * span, 10.0)
    grid = build_grid(inst, halfwidth, max(
        64, int(round(inst.L / (front.xi[1] - front.xi[0])))))
    if callable(g):
        u0 = np.asarray(g(grid.nodes), dtype=float)
    else:
        u0 = np.asarray(g, dtype=float)
        if u0.shape != (grid.n,):
            raise ValueError("array datum must match the experiment grid; pass a "
                             "callable for automatic sampling")
    dt = choose_dt(inst.reaction.lip_k, grid.h, front.speed)
    return Window(Stepper(inst, grid, SolverConfig(dt=dt, u_left=1.0, u_right=0.0)), u0)


def _track_phase(front: FrontSolution, win: Window, t_span: float) -> StabilityReport:
    """The phase/rate record of the run on win over t_span, probe times
    counted on the window's clock."""
    grid = win.grid
    c = front.speed
    dt = win.stepper.cfg.dt
    tau_span = TAU_SPAN_PERIODS * grid.L / abs(c)
    tau_tol = TAU_SETTLE_FACTOR * grid.h / abs(c)

    tau_hat = 0.0
    probes: list[tuple[float, float, float]] = []   # (t, tau, sup_err)
    steps_per_probe = max(1, int(round(PROBE_DT / dt)))
    n_probes = int(t_span / (steps_per_probe * dt))
    if n_probes < 1:
        raise ValueError(f"stability budget {t_span:.6g} is shorter than one probe "
                         f"interval ({steps_per_probe * dt:.6g})")
    # a whole-period slide keeps node q in cell q mod M, so the reference
    # stays bound to the same cells however far the window moves
    ref = front.on_cells(grid.nodes_per_period, grid.n)

    for _ in range(n_probes):
        win.run(steps_per_probe)
        u, t = win.u, win.t
        x_abs = grid.nodes + win.x_offset

        def err(tau):
            d = ref(x_abs - c * (t + tau))
            np.subtract(u, d, out=d)
            np.abs(d, out=d)
            return float(d.max())

        tau_hat, e = _golden_min(err, tau_hat - tau_span, tau_hat + tau_span,
                                 tol=min(tau_tol * 0.1, 1e-4))
        probes.append((t, tau_hat, e))
        # keep the interface well inside the window
        win.recenter(level_position(grid.nodes, u), RECENTER_FRAC)

    ts = np.array([p[0] for p in probes])
    taus = np.array([p[1] for p in probes])
    errs = np.array([p[2] for p in probes])
    diagnostics = {"n_probes": len(probes), "dt": dt, "h": grid.h,
                   "tau_tol": tau_tol}
    # stabilization: last third of the record must hold tau within tolerance
    k_tail = max(MIN_FIT_POINTS, len(probes) // 3)
    tau_var = float(np.max(taus[-k_tail:]) - np.min(taus[-k_tail:]))
    diagnostics["tau_variation"] = tau_var
    stabilized = tau_var < tau_tol
    tau_g = float(np.median(taus[-k_tail:]))
    mu_fit = math.nan
    accepted = False
    if stabilized:
        # fit the decaying stretch only: after the phase settles and before
        # the record flattens onto the measurement floor
        settle_idx = np.nonzero(np.abs(taus - tau_g) < tau_tol)[0]
        i0 = int(settle_idx[0]) if len(settle_idx) else len(taus) - k_tail
        floor = float(np.min(errs))
        thresh = max(8.0 * floor, FIT_FLOOR)
        diagnostics["floor"] = floor
        tw, ew = [], []
        for t_i, e_i in zip(ts[i0:], errs[i0:]):
            if e_i <= thresh:
                break
            if e_i < FIT_CEILING:
                tw.append(t_i)
                ew.append(e_i)
        diagnostics["fit_points"] = len(tw)
        if len(tw) >= MIN_FIT_POINTS and ew[0] / ew[-1] > math.e:
            slope, stderr = fit_line(np.asarray(tw), np.log(np.asarray(ew)))
            mu_fit = -slope
            diagnostics["fit_stderr"] = stderr
            accepted = mu_fit > 0.0
        elif errs[-1] <= thresh:
            # already indistinguishable from the reference at the first
            # stabilized probe: faster than the record can resolve
            mu_fit = math.inf
            accepted = True
    return StabilityReport(tau_g=tau_g, mu_fit=mu_fit, accepted=accepted,
                           sup_errors=tuple((float(a), float(b))
                                            for a, b in zip(ts, errs)),
                           final_error=float(errs[-1]), diagnostics=diagnostics)


def initialv2_experiment(inst: ProblemInstance, front: FrontSolution,
                         states: Sequence, g,
                         budget: Budget = Budget(300.0)) -> StabilityReport:
    """Front-like convergence for data trapped between intermediate states.

    All intermediate periodic steady states must be unstable; the datum g
    must exceed one of them near -infinity and stay below one near +infinity.
    The solution is evolved until it is genuinely front-like, then handed to
    the phase/rate experiment.
    """
    for s in states:
        if s.cls != "unstable":
            raise ValueError("an intermediate steady state is not unstable; "
                             "the trapped-data route does not apply")
    win = _experiment_window(inst, front, g)
    if states:
        left, right = _edge_zones(win.grid.n)
        x, u0 = win.grid.nodes, win.u
        ok_left = any(np.min(u0[left] - np.asarray(
            _state_on(s, x[left], inst))) > 0.0 for s in states)
        ok_right = any(np.max(u0[right] - np.asarray(
            _state_on(s, x[right], inst))) < 0.0 for s in states)
        if not (ok_left and ok_right):
            raise ValueError("datum does not satisfy the trapped-data condition "
                             "against the intermediate states")
    chunk = max(1, int(round(1.0 / win.stepper.cfg.dt)))
    while win.t < 0.5 * budget.t_max:
        if check_front_like(win.u, inst.reaction.delta):
            break
        win.run(chunk)
    else:
        return StabilityReport(tau_g=math.nan, mu_fit=math.nan, accepted=False,
                               sup_errors=(), final_error=math.nan,
                               diagnostics={"reason": "not-front-like",
                                            "message": "never reached the "
                                            "front-like condition",
                                            "t_final": win.t})
    # the phase record's clock starts at the hand-off
    t_frontlike, win.t = win.t, 0.0
    rep = _track_phase(front, win, budget.t_max - t_frontlike)
    return replace(rep, diagnostics={**rep.diagnostics, "t_frontlike": t_frontlike})


def _state_on(state, x, inst):
    xs = state.x
    L = inst.L
    return np.interp(np.mod(x, L), xs, state.u, period=L)


# ---------------------------------------------------------------------------
# explicit super/subsolutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperSubSolution:
    kind: str                  # "super" | "sub"
    c_pm: float
    K: float
    defect_min: float
    defect_max: float
    w: Callable

    def __call__(self, t, xi):
        return self.w(t, xi)


def _eta(z):
    return 0.5 * (1.0 + np.tanh(-0.5 * np.asarray(z, dtype=float)))


def build_supersub(inst: ProblemInstance, kind: str, c: float,
                   K: float | None = None) -> SuperSubSolution:
    """Assemble the explicit comparison solution and sample its frame defect
    on a 64 x 64 lattice of t in [0, 10/gamma] and xi in [-40, 40].

    super: w = w1(t) eta(xi + c+ t) + w2(t)(1 - eta), w1 = 1 + (1-d)e^{-g t},
    w2 = d e^{-g t}, c+ = c - |a| - |a'| - 2K; the frame operator applied to w
    must be >= 0 up to rounding.  sub mirrors it from below.
    """
    reaction = inst.reaction
    gamma, delta = reaction.gamma, reaction.delta
    if K is None:
        K = reaction.lip_k
    if K < reaction.lip_k:
        raise ValueError(f"K={K} below the profile Lipschitz constant {reaction.lip_k}")
    y = np.linspace(0.0, 1.0, 4096, endpoint=False)
    norm_a = float(np.max(np.abs(inst.coeff.a(y))))
    norm_da = float(np.max(np.abs(inst.coeff.da(y)))) / inst.L
    if kind == "super":
        c_pm = c - norm_a - norm_da - 2.0 * K
        w1 = lambda t: 1.0 + (1.0 - delta) * np.exp(-gamma * t)
        w2 = lambda t: delta * np.exp(-gamma * t)
        dw1 = lambda t: -gamma * (1.0 - delta) * np.exp(-gamma * t)
        dw2 = lambda t: -gamma * delta * np.exp(-gamma * t)
    elif kind == "sub":
        c_pm = c + norm_a + norm_da + 2.0 * K
        w1 = lambda t: 1.0 - delta * np.exp(-gamma * t)
        w2 = lambda t: -(1.0 + delta) * np.exp(-gamma * t)
        dw1 = lambda t: gamma * delta * np.exp(-gamma * t)
        dw2 = lambda t: gamma * (1.0 + delta) * np.exp(-gamma * t)
    else:
        raise ValueError("kind must be 'super' or 'sub'")

    def w(t, xi):
        t = np.asarray(t, dtype=float)
        xi = np.asarray(xi, dtype=float)
        e = _eta(xi + c_pm * t)
        return w1(t) * e + w2(t) * (1.0 - e)

    TT, XX = np.meshgrid(np.linspace(0.0, 10.0 / gamma, 64), np.linspace(-40.0, 40.0, 64),
                         indexing="ij")
    Z = XX + c_pm * TT
    E = _eta(Z)
    dE = -E * (1.0 - E)
    d2E = E * (1.0 - E) * (1.0 - 2.0 * E)
    W1 = w1(TT)
    W2 = w2(TT)
    W = W1 * E + W2 * (1.0 - E)
    Wt = dw1(TT) * E + dw2(TT) * (1.0 - E) + (W1 - W2) * dE * c_pm
    Wx = (W1 - W2) * dE
    Wxx = (W1 - W2) * d2E
    xlab = XX + c * TT
    a_lab = np.asarray(inst.a_L(xlab), dtype=float)
    da_lab = np.asarray(inst.da_L(xlab), dtype=float)
    f_lab = np.asarray(inst.f_L(xlab, W), dtype=float)
    defect = Wt - c * Wx - (da_lab * Wx + a_lab * Wxx) - f_lab
    return SuperSubSolution(kind=kind, c_pm=c_pm, K=float(K),
                            defect_min=float(defect.min()),
                            defect_max=float(defect.max()), w=w)


# ---------------------------------------------------------------------------
# linearized period map and its spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumSummary:
    eigenvalues: np.ndarray        # sorted by decreasing modulus
    leading: complex
    leading_gap: float             # |leading - 1|
    cosine_similarity: float
    second_modulus: float
    ess_radius: float              # e^{-gamma T / 2}
    margin: float
    n_above_ess: int
    flagged: tuple                 # eigenvalues above the essential band
    T: float
    n_nodes: int


def linearized_period_map(inst: ProblemInstance, orbit_potentials: np.ndarray,
                          grid: Grid1D, dt: float, shift_periods: int) -> np.ndarray:
    """Matrix of one period of the linearized lab evolution composed with the
    exact grid shift by shift_periods * L (the frame period map).

    orbit_potentials[k] holds df_L(x, u_k) along the nonlinear orbit, one row
    per time step.  Each step is one backward Euler solve of all columns
    against the Stepper's interior factor of I - dt*D; the pinned boundary
    rows are 0.
    """
    n = grid.n
    factor = Stepper(inst, grid, SolverConfig(dt=dt)).factor
    # interior rows only, in Fortran order so dpttrs solves all n columns in place
    W = np.asfortranarray(np.eye(n)[1:-1])
    for pot in orbit_potentials:
        W *= (1.0 + dt * pot[1:-1])[:, None]
        W = solve_banded(factor, W)
    P = np.zeros((n, n))
    P[1:-1] = W
    return shift_window(P, shift_periods, grid.nodes_per_period, 0.0, 0.0)


def poincare_spectrum(inst: ProblemInstance, front: FrontSolution,
                      n_nodes: int = 400) -> SpectrumSummary:
    """Spectrum of the linearized time-T frame map on a coarse grid.

    The orbit is the production period map (poincare_map: lab-frame steps and
    the exact one-period grid shift, with no transport-term discretization
    error), started on the profile.  Checks: an eigenvalue near 1 aligned with
    the profile's xi-derivative, everything else inside the unit disk, and all
    but finitely many modes below the essential radius e^{-gamma T/2} plus a
    margin.
    """
    if front.stationary or front.speed == 0.0:
        raise ValueError("spectrum needs a non-stationary front")
    if n_nodes > 400:
        raise ValueError("dense linearization capped at 400 nodes")
    c = front.speed
    L = inst.L
    T = L / abs(c)
    # adopt the front's own resolution; coarsen to the node budget, and only
    # then trim the extent, so the front's tails stay on the grid
    h_front = float(front.xi[1] - front.xi[0])
    npp = max(4, int(round(L / h_front)))
    halfwidth = 0.5 * float(front.xi[-1] - front.xi[0])
    grid = build_grid(inst, halfwidth, npp)
    while grid.n > n_nodes and npp > 4:
        npp -= 1
        grid = build_grid(inst, halfwidth, npp)
    while grid.n > n_nodes and halfwidth > 2.0 * L:
        halfwidth -= L
        grid = build_grid(inst, halfwidth, npp)
    # its own step rule, not solver.choose_dt: the reaction budget and at
    # least 50 whole steps per period T.  On this coarse grid (down to 8
    # nodes/period) choose_dt's 0.05 cap and h/(4|c|) limit give a different
    # dt, hence a different orbit and spectrum (acceptance 11).
    dt = min(REACTION_BUDGET / inst.reaction.lip_k, 0.02 * T)
    n_steps = max(1, int(math.ceil(T / dt)))
    dt = T / n_steps
    # start on the attractor: the profile itself at t = 0
    u0 = front.interp(grid.nodes, grid.nodes / L)
    u0[0], u0[-1] = 1.0, 0.0
    pots = np.empty((n_steps, grid.n))
    pots[0] = inst.df_L(grid.nodes, u0)

    def record(k, t, u):
        if k < n_steps:
            pots[k] = inst.df_L(grid.nodes, u)

    poincare_map(inst, grid, c, SolverConfig(dt=dt), u0, record)
    P = linearized_period_map(inst, pots, grid, dt, 1 if c > 0 else -1)
    vals, vecs = np.linalg.eig(P)
    order = np.argsort(-np.abs(vals))
    vals = vals[order]
    vecs = vecs[:, order]
    lead = vals[0]
    v_lead = np.real(vecs[:, 0])
    w0 = np.gradient(u0, grid.h)
    cos = float(abs(np.dot(v_lead, w0)) /
                (np.linalg.norm(v_lead) * np.linalg.norm(w0)))
    gamma = inst.reaction.gamma
    ess = math.exp(-gamma * T / 2.0)
    above = np.abs(vals) > ess + ESS_MARGIN
    flagged = tuple(complex(v) for v in vals[above])
    return SpectrumSummary(
        eigenvalues=vals[:max(N_MODES, int(np.count_nonzero(above)) + 2)],
        leading=complex(lead), leading_gap=float(abs(lead - 1.0)),
        cosine_similarity=cos, second_modulus=float(np.abs(vals[1])),
        ess_radius=ess, margin=ESS_MARGIN,
        n_above_ess=int(np.count_nonzero(above)), flagged=flagged,
        T=T, n_nodes=grid.n)
