"""Stability experiments around a computed pulsating front.

In the frame xi = x - c t the front becomes a time-periodic solution of
v_t = (a_L(xi + c t) v_xi)_xi + c v_xi + f_L(xi + c t, v) with period
T = L/|c|, and its translates phi(xi + tau, (xi + c t)/L) are fixed points of
the period map `solver.Window.period`: n = T/dt lab-frame steps followed by
a slide of exactly one period L, an exact translation of the L-periodic
medium, so no transport term is discretized.  The rate experiments step the
same map period after period, probing inside each period, and fit the decay
of the third difference across whole periods, which needs no reference
front and cancels the drift of the run against the front (Tuckerman and
Barkley, "Bifurcation analysis for timesteppers", 2000).  This module also
assembles the explicit super/subsolution pairs used to trap front-like data,
and computes the spectrum of the linearized period map on one orbit of
`Window.period`, whose implicit steps reuse the flux stencil and the
factor-once tridiagonal solve of the solver.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .fronts import (Budget, FrontSolution, _golden_min, default_halfwidth, fit_line,
                     level_position)
from .profiles import ProblemInstance
from .solver import (Grid1D, Stepper, Window, build_grid, choose_dt, shift_window,
                     solve_banded, steps_per_period)

PROBE_DT = 1.0              # time between probes of the third difference
TAU_SPAN_PERIODS = 5.0      # bounded Brent window of the phase fit, units of L/|c|
FIT_FLOOR = 1e-10           # the rate is fitted on the record above this level
MIN_FIT_POINTS = 8
WINDOW_DEPTH = 1e-6         # depth of the front's slower tail at a pinned window's ends
N_MODES = 12                # eigenvalues kept in a SpectrumSummary, at least
ESS_MARGIN = 0.05           # tolerance above the essential radius


def pinned_halfwidth(front: FrontSolution) -> float:
    """Half-extent of the experiments' pinned windows: where the slower tail of
    the front's averaged data falls to WINDOW_DEPTH (the front's own window ends
    where its tails are linear, which says nothing of a perturbation's)."""
    return default_halfwidth(front.homog, WINDOW_DEPTH)


def period_steps(inst: ProblemInstance, grid: Grid1D, c: float) -> tuple[float, int]:
    """The period T = L/|c| of a front of speed c and the fewest steps n whose
    dt = T/n is at most solver.choose_dt on grid (solver.steps_per_period)."""
    T = inst.L / abs(c)
    return T, steps_per_period(T, choose_dt(inst.reaction.lip_k, grid.h, c))


# ---------------------------------------------------------------------------
# global stability experiments (lab frame)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    tau_g: float
    mu_fit: float
    accepted: bool
    sup_errors: tuple          # ((t, sup of the third period difference), ...)
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
                                g, budget: Budget) -> StabilityReport:
    """The exponential convergence of a front-like datum g to a translate of
    the front.

    The run probes q times per period T and slides one period after every
    period; sup_errors records (t, sup_x |u_k - 3u_{k-q} + 3u_{k-2q} - u_{k-3q}|),
    the third difference across whole periods at one phase.  The run stops at
    the first probe below FIT_FLOOR, so budget.t_max is a cap.  mu_fit is
    minus the least-squares slope of the record's logarithm over the last
    max(MIN_FIT_POINTS, 2q) probes before that one (the record's last ones if
    the budget ends it first); the report is accepted when that rate is
    positive.  The phase tau_g and final_error = sup_x |u(t, .) - U(t + tau_g, .)|
    come from one bounded Brent fit on the state the run stopped at.
    diagnostics["stop"] says why it stopped ("floor" or "budget"), and
    diagnostics["t_final"] when.
    """
    win = _experiment_window(inst, front, g)
    if not check_front_like(win.u, inst.reaction.delta):
        raise ValueError("initial datum violates the front-like condition "
                         "(above 1-delta left, below delta right) on this domain")
    return _track_phase(front, win, budget.t_max)


def _experiment_window(inst: ProblemInstance, front: FrontSolution, g) -> Window:
    """The experiment's run: g(x) sampled on the pinned window of
    pinned_halfwidth at the front's resolution, stepped at dt = T/n, the
    period rule of poincare_spectrum."""
    if front.stationary:
        raise ValueError("stability experiments need a non-stationary front")
    grid = build_grid(inst, pinned_halfwidth(front), max(
        64, int(round(inst.L / (front.xi[1] - front.xi[0])))))
    u0 = np.asarray(g(grid.nodes), dtype=float)
    T, n = period_steps(inst, grid, front.speed)
    return Window(Stepper(inst, grid, T / n), u0)


def _track_phase(front: FrontSolution, win: Window, t_span: float) -> StabilityReport:
    """The third-difference record of the run on win, probe times counted on
    the window's clock, and the phase of the state it stops at.

    The run takes q = round(T / PROBE_DT) probes per period (at least 1, at
    most n), at step offsets round(j n / q) in every period, so states whole
    periods apart are exactly comparable.  It stops at the first probe whose
    third difference is below FIT_FLOOR (diagnostics stop "floor"), the last
    probe the fit reads, or at the last probe within t_span (stop "budget").
    """
    grid = win.grid
    c = front.speed
    dt = win.stepper.dt
    T = grid.L / abs(c)
    n = round(T / dt)
    q = max(1, min(n, round(T / PROBE_DT)))
    offsets = [round(j * n / q) for j in range(q + 1)]
    strides = [b - a for a, b in zip(offsets, offsets[1:])]
    max_steps = int(t_span / dt)
    if strides[0] > max_steps:
        raise ValueError(f"stability budget {t_span:.6g} is shorter than one probe "
                         f"interval ({strides[0] * dt:.6g})")
    # the last 3q + 1 probe states, kept in the frames they were stored in: the
    # slide after every period makes states whole periods apart comparable
    states = deque([win.u], maxlen=3 * q + 1)
    record: list[tuple[float, float]] = []
    steps, n_probes, stop = 0, 0, "budget"
    while steps + strides[n_probes % q] <= max_steps:
        stride = strides[n_probes % q]
        win.run(stride)
        steps += stride
        n_probes += 1
        if n_probes % q == 0:
            win.slide(1 if c > 0 else -1)
            # a recenter moves the frame: no difference may span it
            if win.recenter(level_position(grid.nodes, win.u)):
                states.clear()
        states.append(win.u)
        if len(states) == states.maxlen:
            d3 = states[-1] - 3.0 * states[2 * q] + 3.0 * states[q] - states[0]
            record.append((win.t, float(np.max(np.abs(d3)))))
            if record[-1][1] < FIT_FLOOR:
                stop = "floor"
                break

    ts = np.array([r[0] for r in record])
    d3s = np.array([r[1] for r in record])
    # the decay rate from the stretch just above the record's floor
    i1 = len(record) - 1 if stop == "floor" else len(record)
    i0 = max(0, i1 - max(MIN_FIT_POINTS, 2 * q))
    diagnostics = {"n_probes": n_probes, "probes_per_period": q, "dt": dt,
                   "h": grid.h, "fit_points": i1 - i0,
                   "floor_reached": stop == "floor", "stop": stop, "t_final": win.t}
    mu_fit = math.nan
    if i1 - i0 >= MIN_FIT_POINTS:
        slope, diagnostics["fit_stderr"] = fit_line(ts[i0:i1], np.log(d3s[i0:i1]))
        mu_fit = -slope
    # one phase fit on the final state against the front's translates, on
    # the window's cells: a whole-period slide keeps node q in cell (q mod M)/M
    M = grid.nodes_per_period
    cells = (np.arange(grid.n) % M) / M
    x_abs = grid.nodes + win.x_offset

    def err(tau):
        d = front.interp(x_abs - c * (win.t + tau), cells)
        np.subtract(win.u, d, out=d)
        np.abs(d, out=d)
        return float(d.max())

    tau_g, final_error = _golden_min(err, -TAU_SPAN_PERIODS * T, TAU_SPAN_PERIODS * T,
                                     tol=min(0.1 * grid.h / abs(c), 1e-4))
    return StabilityReport(tau_g=tau_g, mu_fit=mu_fit, accepted=mu_fit > 0.0,
                           sup_errors=tuple(record), final_error=final_error,
                           diagnostics=diagnostics)


def initialv2_experiment(inst: ProblemInstance, front: FrontSolution,
                         states: Sequence, g, budget: Budget) -> StabilityReport:
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
    chunk = max(1, int(round(1.0 / win.stepper.dt)))
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


def linearized_period_map(factor, orbit_potentials: np.ndarray, grid: Grid1D,
                          dt: float, shift_periods: int) -> np.ndarray:
    """Matrix of one period of the linearized lab evolution composed with the
    exact grid shift by shift_periods * L (the frame period map).

    orbit_potentials[k] holds df_L(x, u_k) along the nonlinear orbit, one row
    per time step.  Each step is one backward Euler solve of all columns
    against factor, the interior factor of I - dt*D of the orbit's Stepper
    (Stepper.factor); the pinned boundary rows are 0.
    """
    n = grid.n
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

    The orbit is the production period map (solver.Window.period: lab-frame
    steps at solver.choose_dt, shortened to a whole number of steps per
    period T, and the exact one-period grid shift, with no transport-term
    discretization error), started on the profile; its Stepper's factor
    serves the linearization too.  Checks: an eigenvalue near 1 aligned with the
    profile's xi-derivative, everything else inside the unit disk, and all
    but finitely many modes below the essential radius e^{-gamma T/2} plus a
    margin.
    """
    if front.stationary:
        raise ValueError("spectrum needs a non-stationary front")
    if n_nodes > 400:
        raise ValueError("dense linearization capped at 400 nodes")
    c = front.speed
    L = inst.L
    # m periods each side of the cell (as build_grid counts them) cover the
    # front, a tenth inside the experiments' window (which holds data offset
    # from the front); the front's own resolution is coarsened to the node
    # budget, and only then is m trimmed (not below 2), so the front's tails
    # stay on the grid
    m = max(1, math.ceil(pinned_halfwidth(front) / (1.1 * L)))
    npp = max(4, min(round(L / float(front.xi[1] - front.xi[0])),
                     (n_nodes - 1) // (2 * m + 1)))
    m = min(m, max(2, ((n_nodes - 1) // npp - 1) // 2))
    grid = build_grid(inst, (m - 0.5) * L, npp)
    T, n_steps = period_steps(inst, grid, c)
    stepper = Stepper(inst, grid, T / n_steps)
    # start on the attractor: the profile itself at t = 0
    u0 = front.interp(grid.nodes, grid.nodes / L)
    u0[0], u0[-1] = 1.0, 0.0
    pots = np.empty((n_steps, grid.n))
    pots[0] = inst.df_L(grid.nodes, u0)

    def record(k, t, u):
        if k < n_steps:
            pots[k] = inst.df_L(grid.nodes, u)

    Window(stepper, u0).period(n_steps, 1 if c > 0 else -1, record)
    P = linearized_period_map(stepper.factor, pots, grid, stepper.dt, 1 if c > 0 else -1)
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
