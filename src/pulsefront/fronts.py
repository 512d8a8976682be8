"""Pulsating fronts by long-time evolution: speeds, profiles, classification.

The datum is the limit front of the averaged equation, the logistic
1/(1 + exp(kappa (x - x0))) with kappa from `limit_front_rate` (exact for the
cubic class).  A pulsating front at small L stays close to it, and a run
forgets its datum only at the exponential rate of the front's spectral gap,
so starting near the front leaves little to forget.  Once the half-level
record has advanced a whole period L, in a time T, it gives the speed
estimate c_hat = +-L/T, and the run iterates the period map
`solver.Window.period`: a whole period T = L/|c_hat| in a multiple of the
nodes per period of steps, storing the state every h/|c_hat|, then a slide
by one period.  The front, tails included, is an attracting fixed point of
that map, and u(t + L/c, x + L) = u(t, x) is an exact one-period difference
whose projection on u_t gives the period T* for the next c_hat (Tuckerman
and Barkley, "Bifurcation analysis for timesteppers", 2000).  The run stops
when two periods in a row meet TOL_PULS, when a Newton solve on the
window's own discrete steady problem certifies the front pinned (tried after
a chunk whose half-level moved less than one node; a slow propagating front
stalls far above its round-off floor), or when the budget runs out
(inconclusive, never silently a front).  Speeds are measured two ways: L/T
of the accepted period, and L over the time the half-level took to advance
its last whole period (measure_speed, the rule of the first c_hat).  The
profile phi(xi, y) is read from the stored period: node x shows
phi(xi, x/L) at t = (x - xi)/c, a stored row.
The window ends where the front's slower tail is tail_floor deep, and each
end obeys the front's linear tail there (window_tails: the decay pair of the
linearized tail operator on the window's own cells, solver.Tail), so no
Dirichlet boundary layer bends the tails and the lattice keeps only one
period and 4 nodes from each end; FrontSolution.interp continues the lattice
past its ends by the same tails.  fbar is the polynomial of the averaged
cubic, so a front run loads no scipy.interpolate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from .profiles import (HomogenizedData, ProblemInstance, characteristic_rates,
                       homogenized_data)
from .solver import (Grid1D, SolverError, Stepper, Tail, Window, build_grid, choose_dt,
                     excursion, flux_apply, front_initial_datum, residual_stationary,
                     steps_per_period)
from .spectral import (_principal_banded, damped_newton, decay_eigenvalue, decay_pair,
                       newton_floor)

SETTLE_TIME = 10.0          # evolution chunk between checks
MIN_LEVEL_SAMPLES = 20      # fewest level samples behind unc_level's line fit
MIN_TAIL_EFOLDS = 3.0       # depth a tail fit must span
TOL_PULS = 1e-5             # acceptance tolerance on the pulsating defect
MAX_HALFWIDTH = 150.0       # cap on default_halfwidth


# The closed set of failure reasons.  A FrontNotConverged or an Inconclusive
# record carries one under diagnostics["reason"] ("budget", "coverage",
# "solver"), as does a stability report that never became front-like
# ("not-front-like"); homogenize.NoConnection carries "no-connection".
REASONS = frozenset({"budget", "coverage", "solver", "no-connection", "not-front-like"})


class FrontNotConverged(RuntimeError):
    """Budget exhausted with neither the pulsating nor the stationary criterion
    met (reason "budget"), or the converged orbit's profile could not be
    extracted (reason "coverage")."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Budget:
    t_max: float = 600.0


@dataclass(frozen=True)
class FrontRunConfig:
    nodes_per_period: int = 64
    tail_floor: float = 1e-3


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def level_position(x: np.ndarray, u: np.ndarray):
    """Outermost crossing of the half-level (largest x with u >= 1/2), with
    sub-grid linear interpolation, or None when the level is not attained."""
    above = (u >= 0.5).nonzero()[0]
    if above.size == 0 or above.size == len(u):
        return None
    i = int(above[-1])
    if i == len(u) - 1:
        return float(x[-1])
    u0, u1 = u[i], u[i + 1]
    frac = (u0 - 0.5) / (u0 - u1) if u0 != u1 else 0.0
    return float(x[i] + frac * (x[i + 1] - x[i]))


@dataclass
class SnapshotSeries:
    """One period T of a run on a frozen grid with m0 nodes per period: the
    m0 + 1 states at t0 + k dt_snap, dt_snap = T/m0, rows U[0] to U[m0]."""

    t0: float
    dt_snap: float
    U: np.ndarray          # (m0 + 1, n)
    grid: Grid1D

    def defect_nodes(self, margin_nodes: int, shift: int):
        """The interior nodes x and the nodes x + shift*L, as two slices."""
        m0 = self.grid.nodes_per_period
        lo, hi = margin_nodes, self.grid.n - margin_nodes - m0
        if hi <= lo:
            raise ValueError("domain too small for the defect window")
        here, there = slice(lo, hi), slice(lo + m0, hi + m0)
        return (here, there) if shift >= 0 else (there, here)

    def shift_defect(self, margin_nodes: int, shift: int = 1) -> np.ndarray:
        """The one-period difference U[-1](x + shift*L) - U[0](x) at the
        interior nodes x."""
        here, there = self.defect_nodes(margin_nodes, shift)
        return self.U[-1, there] - self.U[0, here]

    def time_monotonicity_defect(self) -> float:
        """How far the period is from being nondecreasing in t (0 if monotone);
        row by row, without a copy of the period."""
        drop = min(float((b - a).min()) for a, b in zip(self.U[:-1], self.U[1:]))
        return max(0.0, -drop)


def _golden_min(f: Callable[[float], float], lo: float, hi: float, tol: float):
    """(x, f(x)) at the minimum of a unimodal f on [lo, hi] by bounded Brent
    (golden section with parabolic steps), x to within tol + 2 sqrt(eps) |x|."""
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": tol})
    return float(res.x), float(res.fun)


def min_shift_defect(snaps: SnapshotSeries, margin_nodes: int, shift: int = 1):
    """The period T* that the stored period T points to, by one projection.

    Near the orbit's period, d = U[-1](x + shift*L) - U[0](x) is u_t (T - T*)
    with u_t read at the shifted nodes at the end of the period, so
    T* = T - <d, u_t>/<u_t, u_t>, u_t = (U[-1] - U[-2])/dt_snap.  Returns
    (T*, max|d|, width), width = |T* - T| + max|d|/max|u_t| being the timing
    uncertainty that the remaining defect leaves.
    """
    T = (snaps.U.shape[0] - 1) * snaps.dt_snap
    d = snaps.shift_defect(margin_nodes, shift)
    there = snaps.defect_nodes(margin_nodes, shift)[1]
    u_t = (snaps.U[-1, there] - snaps.U[-2, there]) / snaps.dt_snap
    defect = float(np.max(np.abs(d)))
    if not (norm := float(np.dot(u_t, u_t))):
        return math.nan, defect, math.inf
    T_star = T - float(np.dot(d, u_t)) / norm
    return T_star, defect, abs(T_star - T) + defect / float(np.max(np.abs(u_t)))


@dataclass(frozen=True)
class SpeedEstimate:
    c_level: float
    c_period: float
    unc_level: float
    unc_period: float

    @property
    def uncertainty(self) -> float:
        return self.unc_level + self.unc_period


def fit_line(x: np.ndarray, y: np.ndarray):
    """Least-squares slope of y against x with its standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm = x - x.mean()
    denom = float(np.dot(xm, xm))
    if denom == 0.0:
        return 0.0, math.inf
    c = float(np.dot(xm, y - y.mean()) / denom)
    resid = y - (y.mean() + c * xm)
    dof = max(len(x) - 2, 1)
    stderr = math.sqrt(float(np.dot(resid, resid)) / dof / denom)
    return c, stderr


def measure_speed(times: Sequence[float], positions: Sequence[float], L: float):
    """+-L over the time the level record took to advance its last whole
    period L, the crossing of x_end -+ L interpolated linearly between the
    two samples around it, the sign the direction of advance; None until the
    record has advanced a whole period.  A pulsating position c t + p(t), p
    of period T = L/|c|, crosses x_end -+ L exactly T before the end, so
    this is c up to the interpolation over that one gap."""
    t, x = np.asarray(times, dtype=float), np.asarray(positions, dtype=float)
    behind = np.flatnonzero(np.abs(x - x[-1]) >= L) if x.size else ()
    if len(behind) == 0:
        return None
    i = int(behind[-1])
    sgn = 1.0 if x[-1] > x[i] else -1.0
    t_cross = t[i] + (t[i + 1] - t[i]) * (x[-1] - sgn * L - x[i]) / (x[i + 1] - x[i])
    return float(sgn * L / (t[-1] - t_cross))


# ---------------------------------------------------------------------------
# front solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrontSolution:
    speed: float
    xi: np.ndarray
    y: np.ndarray
    phi: np.ndarray               # shape (len(xi), len(y))
    pulsating_error: float
    mu1_fit: float | None
    mu2_fit: float | None
    speed_estimate: SpeedEstimate | None
    diagnostics: dict
    # (mu1, mu2): the rates of the linear tails toward 0 (right) and 1 (left)
    # that the run's window ends imposed
    tail_mu: tuple
    homog: HomogenizedData        # the averaged data the run was sized from

    @property
    def stationary(self) -> bool:
        return self.speed == 0.0

    def interp(self, xi, y):
        """Bilinear interpolation of the lattice, periodic in y; xi and y
        broadcast, and the four lattice values are gathered from the flattened
        lattice at i*m + j.  Past either end of the lattice the front
        continues by its tails, k whole periods at a time (the lattice's m
        points in xi): phi(xi + kL, y) = e^(-mu1 kL) phi(xi, y) on the right
        and 1 - phi(xi - kL, y) = e^(-mu2 kL) (1 - phi(xi, y)) on the left."""
        y = np.mod(np.asarray(y, dtype=float), 1.0)
        m = len(self.y)
        sy = y * m
        j = np.minimum(sy.astype(int), m - 1)
        wj = sy - j
        vj = 1 - wj
        dj = (j + 1) % m - j
        xi0 = self.xi[0]
        top = len(self.xi) - 1
        s = (np.asarray(xi, dtype=float) - xi0) / (self.xi[1] - xi0)
        k_right = np.ceil(np.maximum(s - top, 0.0) / m)
        k_left = np.ceil(np.maximum(-s, 0.0) / m)
        s = s - m * (k_right - k_left)
        s = np.clip(s, 0.0, top - 1e-12)
        i = s.astype(int)
        wi = s - i
        flat = self.phi.ravel()
        k = i * m + j
        k1 = k + m
        v = ((1 - wi) * (vj * flat.take(k) + wj * flat.take(k + dj))
             + wi * (vj * flat.take(k1) + wj * flat.take(k1 + dj)))
        L = m * float(self.xi[1] - xi0)
        mu1, mu2 = self.tail_mu
        v = np.where(k_right > 0, v * np.exp(-mu1 * L * k_right), v)
        return np.where(k_left > 0, 1.0 - np.exp(-mu2 * L * k_left) * (1.0 - v), v)


def extract_profile(snaps: SnapshotSeries, c: float, margin_nodes: int):
    """Rebuild phi(xi, y) from one stored period of a front of speed
    c = +-L/T.

    Returns (xi, y, phi).  Node q shows lattice point p at
    t = (q - p) h / c = |q - p| dt_snap, so offset d = q - p reads row |d|,
    d from 0 to m0 (c > 0) or from -m0 to 0 (c < 0); the replicas d = 0 and
    d = +-m0 of the same (xi, y) are averaged.  The lattice is every point
    that each offset sees through a node inside the margins.
    """
    grid = snaps.grid
    m0 = grid.nodes_per_period
    if c == 0.0:
        raise ValueError("profile extraction needs a nonzero speed")
    if snaps.U.shape[0] != m0 + 1:
        raise ValueError(f"need one period of {m0 + 1} rows, got {snaps.U.shape[0]}")
    ds = range(0, m0 + 1) if c > 0 else range(-m0, 1)
    p_lo = margin_nodes - ds[0]
    p_hi = grid.n - 1 - margin_nodes - ds[-1]
    if p_hi - p_lo < 8:
        raise ValueError("the stored period leaves no feasible profile range")
    n_p = p_hi - p_lo + 1
    xi = grid.x_min + grid.h * np.arange(p_lo, p_hi + 1)
    ys = np.arange(m0) / m0
    # skewed accumulator: column d % m0 of row r holds lattice point
    # (p_lo + r, column (p_lo + r + d) % m0), so each d is one slice add
    acc = np.zeros((n_p, m0))
    cnt = np.zeros(m0)
    # increasing d sums each (p, y) in the order of its nodes q
    for d in ds:
        acc[:, d % m0] += snaps.U[abs(d), p_lo + d:p_hi + d + 1]
        cnt[d % m0] += 1
    acc /= cnt
    # unskew in place: row r rolls by p_lo + r, the same for every r = k mod m0
    for k in range(min(m0, n_p)):
        acc[k::m0] = np.roll(acc[k::m0], p_lo + k, axis=1)
    return xi, ys, acc


def fit_tail_rates(xi: np.ndarray, prof: np.ndarray):
    """Log-linear decay rates of a front profile toward 0 (right) and 1 (left),
    fitted where the distance to the end state lies in (1e-10, 1e-2)."""
    out = []
    for vals, sign in ((prof, -1.0), (1.0 - prof, +1.0)):
        mask = (vals > 1e-10) & (vals < 1e-2)
        if np.count_nonzero(mask) < 5:
            raise ValueError("tail too short for a decay fit; enlarge the xi window")
        lv = np.log(vals[mask])
        if lv.max() - lv.min() < MIN_TAIL_EFOLDS:
            raise ValueError(
                f"tail spans only {lv.max() - lv.min():.2f} e-foldings (< {MIN_TAIL_EFOLDS}); "
                "enlarge the xi window")
        slope, _ = fit_line(xi[mask], lv)
        out.append(sign * slope)
    mu1, mu2 = out
    if mu1 <= 0 or mu2 <= 0:
        raise ValueError("non-positive fitted tail rate; profile not converged")
    return float(mu1), float(mu2)


# ---------------------------------------------------------------------------
# scale estimates used to size grids and steps
# ---------------------------------------------------------------------------

def speed_scale(homog: HomogenizedData) -> float:
    """Dimensional speed estimate sqrt(2 a_H S) * asymmetry, S = max |fbar|.

    The asymmetry ratio |int fbar| / int |fbar| is scale-free, so the estimate
    tracks reaction amplitude as sqrt(S) like the true speed does.
    """
    u = np.linspace(0.0, 1.0, 513)
    fv = np.abs(homog.fbar(u))
    s = float(np.max(fv))
    if s <= 0.0:
        return 0.0
    total = float(np.trapezoid(fv, u))
    asym = abs(homog.i_fbar) / max(total, 1e-30)
    return math.sqrt(2.0 * homog.a_h * s) * min(asym, 1.0)


def decay_scale(homog: HomogenizedData, c_est: float) -> float:
    """Smallest linear tail rate of the two fronts tails at the estimated speed.

    The speed carries the sign of the reaction integral; the tail toward 0
    decays at the +c characteristic root of the state 0, the tail toward 1 at
    the -c root of the state 1.
    """
    c = math.copysign(abs(c_est), homog.i_fbar) if homog.i_fbar != 0.0 else 0.0
    return 0.9 * min(characteristic_rates(homog.a_h, c, homog.slope0, homog.slope1))


def limit_front_rate(homog: HomogenizedData) -> float:
    """Steepness kappa of the limit front 1/(1 + exp(kappa xi)) of the averaged
    equation, kappa^2 = (|fbar'(0)| + |fbar'(1)|) / (2 a_H).

    Exact for the cubic fbar = s u (1-u) (u - theta_bar) of every reaction,
    where both tail rates of the limit front equal kappa.
    """
    return math.sqrt((abs(homog.slope0) + abs(homog.slope1)) / (2.0 * homog.a_h))


def default_halfwidth(homog: HomogenizedData, tail_floor: float) -> float:
    """Domain half-extent over which the slowest tail falls to tail_floor, the
    depth of the window's ends."""
    mu = max(decay_scale(homog, speed_scale(homog)), 1e-3)
    w = math.log(1.0 / tail_floor) / mu + 4.0
    return float(min(max(w, 8.0), MAX_HALFWIDTH))


def window_tails(inst: ProblemInstance, homog: HomogenizedData, c: float, m0: int,
                 solve: bool = True) -> tuple[Tail, Tail]:
    """The (left, right) window ends of a front of speed about c on m0 nodes
    per period: the homogenized characteristic rates at c with the decay
    eigenvectors there on the window's own cells, or, when solve, the rates
    that spectral.decay_pair finds from them.  A SolverError when the cells
    are too coarse for the tail operator (it loses its M-matrix sign pattern
    once about mu L/m0 > 1)."""
    l1, l2 = characteristic_rates(homog.a_h, c, homog.slope0, homog.slope1)
    ends = []
    for mu, slope, direction in ((l2, 2.0 * homog.a_h * l2 + c, "left"),
                                 (l1, 2.0 * homog.a_h * l1 - c, "right")):
        try:
            if solve:
                mu, psi = decay_pair(inst, c, direction, "linearized", m0, mu, slope)
            else:
                psi = decay_eigenvalue(inst, c, mu, direction, "linearized", m0).psi
        except ValueError as exc:
            raise SolverError(f"no {direction} window tail on {m0} nodes per period: "
                              f"{exc}") from exc
        ends.append(Tail(mu, psi))
    return ends[0], ends[1]


# ---------------------------------------------------------------------------
# the long-time evolution driver
# ---------------------------------------------------------------------------

class _RunState(Window):
    """A front run's window with its level record, stepped in chunks at dt or
    by the period map, whole periods at T/n <= dt."""

    def __init__(self, inst, grid, dt, rate, tails):
        super().__init__(Stepper(inst, grid, dt, tails), front_initial_datum(
            grid, interface=0.5 * (grid.x_min + grid.x_max), rate=rate))
        self.dt = dt
        self.level_t: list[float] = []
        self.level_x: list[float] = []
        # in chunks the level is recorded about every 0.05 time units
        self.level_every = max(1, int(round(0.05 / self.dt)))

    def record_level(self, t, u):
        pos = level_position(self.grid.nodes, u)
        if pos is not None:
            self.level_t.append(t)
            self.level_x.append(pos + self.x_offset)

    def advance(self, duration: float):
        self.stepper.retime(self.dt)
        n_steps = max(1, int(round(duration / self.dt)))
        self.run(n_steps, lambda k, t, u: self.record_level(t, u), self.level_every)

    def step_period(self, T: float, sgn: int) -> SnapshotSeries:
        """The period map: exactly one period T in n = m*m0 steps of T/n <= dt
        (m0 nodes per period), storing the state and recording the level every
        m steps, then a slide by sgn periods (the rows are from before it)."""
        m0 = self.grid.nodes_per_period
        n = steps_per_period(T, self.dt, m0)
        m = n // m0
        self.stepper.retime(T / n)
        U = np.empty((m0 + 1, self.grid.n))
        U[0] = self.u
        t0 = self.t

        def on_step(k, t, u):
            U[k // m] = u
            self.record_level(t, u)

        self.period(n, sgn, on_step, m)
        return SnapshotSeries(t0=t0, dt_snap=T / m0, U=U, grid=self.grid)

    def pinned_state(self):
        """Damped Newton from u on the window's own steady problem: the
        Stepper's interior operator (end rows eliminated by the tails) plus f.
        Returns (v, record), v the steady state on every node when its sup
        residual is below newton_floor, its half-level within one period of
        u's and lambda1, the Jacobian's principal eigenvalue at v, at most
        that floor (the translation mode of a pinned front is neutral to
        round-off, a few eps times the norm 4 max(a)/h^2), else None.  record
        holds newton_residual, newton_iterations and lambda1 (None unless the
        residual is below the floor)."""
        st, g = self.stepper, self.grid
        diag, off, _ = st.interior_operator()
        x = g.nodes[1:-1]
        full = self.u.copy()

        def residual(v):
            full[1:-1] = v
            st.impose_ends(full)
            return flux_apply(g.a_face, g.h, full) + st.reaction_at(full)[1:-1]

        def jacobian(v):
            return diag + np.asarray(st.inst.df_L(x, v), dtype=float)

        def step(v, F):
            *_, delta, info = dgtsv(off, jacobian(v), off, -F)
            if info != 0:
                raise SolverError(f"singular Newton matrix (info={info})")
            return delta

        tol = newton_floor(g.a_face, g.h)
        v, norm, its = damped_newton(residual, step, self.u[1:-1].copy(), tol)
        record = {"newton_residual": norm, "newton_iterations": its, "lambda1": None}
        if norm >= tol:
            return None, record
        residual(v)         # full now holds v with its end nodes
        record["lambda1"] = lam = _principal_banded(jacobian(v), off)[0]
        here, there = level_position(g.nodes, self.u), level_position(g.nodes, full)
        near = here is not None and there is not None and abs(there - here) <= g.L
        return (full if near and lam <= tol else None), record


def _front_from_lattice(speed, xi, ys, phi, defect, est, diagnostics, tails, homog):
    prof = phi.mean(axis=1)
    pos = level_position(xi, prof)
    xi = xi - (pos if pos is not None else 0.0)
    mu1 = mu2 = None
    try:
        mu1, mu2 = fit_tail_rates(xi, prof)
    except ValueError as exc:
        diagnostics["decay_fit"] = str(exc)
    left, right = tails
    return FrontSolution(speed=speed, xi=xi, y=ys, phi=phi, pulsating_error=defect,
                         mu1_fit=mu1, mu2_fit=mu2, speed_estimate=est,
                         diagnostics=diagnostics, tail_mu=(right.mu, left.mu),
                         homog=homog)


def compute_pulsating_front(inst: ProblemInstance, cfg: FrontRunConfig = FrontRunConfig(),
                            budget: Budget = Budget()) -> FrontSolution:
    """Evolve a front-like datum until it is a pulsating front, a pinned
    stationary front (speed 0), or the budget is spent (FrontNotConverged).

    The run alternates SETTLE_TIME chunks, each followed by a recenter and
    the speed c_hat = +-L/T of the half-level record's last whole period
    (measure_speed; None, and another chunk, until the record has advanced
    one), with period maps of T = L/|c_hat| back to back for as
    long as one fits the budget, each matched by one projection
    (min_shift_defect) whose T* sets c_hat = +-L/T* for the next; a
    projection that finds no period (T* <= 0, or nan where the front stopped)
    returns the run to chunks.  The maps start with the window's ends on the
    linear tails (window_tails) at their first c_hat, the chunks before them
    at the speed scale.  The run is accepted at the second period in a row
    whose one-period difference is below TOL_PULS, with c_period = +-L/T of
    that period and c_level the record's last whole-period speed, the c_hat
    rule; unc_level is the standard error of the level's line fit since the
    two periods began (at least MIN_LEVEL_SAMPLES samples).  After a chunk
    whose half-level moved less than one node h, the run tries to certify
    the front pinned (_RunState.pinned_state), and
    returns Newton's steady state as the stationary front, with no speed
    estimate; a refused attempt changes nothing, and the record keeps the
    last attempt's newton_residual, newton_iterations and lambda1.
    """
    homog = homogenized_data(inst.coeff, inst.reaction)
    # two periods or more on each side of the cell hold the defect window
    halfwidth = max(default_halfwidth(homog, cfg.tail_floor), 1.5 * inst.L)
    grid = build_grid(inst, halfwidth, cfg.nodes_per_period)
    h = grid.h
    m0 = grid.nodes_per_period
    c_scale = speed_scale(homog)
    dt = choose_dt(inst.reaction.lip_k, h, c_scale)
    rate = limit_front_rate(homog)
    # the defect window and the lattice keep one period and 4 nodes from each
    # end; with the tails imposed there is no boundary layer to keep clear of
    margin_nodes = m0 + 4
    diagnostics: dict = {"L": inst.L, "h": h, "dt": dt, "halfwidth": halfwidth,
                         "n_nodes": grid.n, "datum_rate": rate, "last_defect": None,
                         "period_defects": []}
    if grid.n - 2 * margin_nodes <= m0:
        diagnostics.update(t_final=0.0, reason="coverage", message="no defect window")
        raise FrontNotConverged("domain too small for the defect window", diagnostics)
    # the speed scale is a guess of c: its tails are not solved further
    state = _RunState(inst, grid, dt, rate, window_tails(
        inst, homog, math.copysign(c_scale, homog.i_fbar), m0, solve=False))

    def close():
        lo, hi = state.stepper.min_seen, state.stepper.max_seen
        diagnostics.update(t_final=state.t, excursion=excursion(lo, hi), range_seen=(lo, hi))

    def fits(c):            # a whole period L/|c| fits the remaining budget
        return c is not None and abs(c) * (budget.t_max - state.t) >= inst.L

    while state.t < budget.t_max:
        # the chunk's level record, from the last sample before it
        first = max(len(state.level_x) - 1, 0)
        state.advance(min(SETTLE_TIME, budget.t_max - state.t))
        state.recenter(level_position(grid.nodes, state.u))
        seen = state.level_x[first:]
        if seen and max(seen) - min(seen) < h:
            v, newton = state.pinned_state()
            diagnostics.update(newton)
            if v is not None:
                close()
                diagnostics["stationary_residual"] = resid = newton["newton_residual"]
                xi = grid.nodes[margin_nodes:-margin_nodes]
                phi = np.repeat(v[margin_nodes:-margin_nodes, None], m0, axis=1)
                return _front_from_lattice(0.0, xi, np.arange(m0) / m0, phi, resid,
                                           None, diagnostics, state.stepper.tails, homog)
        c_hat = measure_speed(state.level_t, state.level_x, inst.L)
        if fits(c_hat):
            state.stepper.set_tails(window_tails(inst, homog, c_hat, m0))
        settled = None      # start of the last period if its defect was under TOL_PULS
        while fits(c_hat):
            T = inst.L / abs(c_hat)
            sgn = 1 if c_hat > 0 else -1
            snaps = state.step_period(T, sgn)
            T_star, defect, width = min_shift_defect(snaps, margin_nodes, sgn)
            diagnostics["last_defect"] = defect
            diagnostics["period_defects"].append(defect)
            if defect < TOL_PULS and settled is not None:
                c_period = sgn * inst.L / T
                times, xs = np.asarray(state.level_t), np.asarray(state.level_x)
                keep = times >= min(settled, times[-MIN_LEVEL_SAMPLES])
                est = SpeedEstimate(c_level=measure_speed(times, xs, inst.L), c_period=c_period,
                                    unc_level=fit_line(times[keep], xs[keep])[1] + 1e-12,
                                    unc_period=abs(inst.L) * width / T**2)
                try:
                    xi, ys, phi = extract_profile(snaps, c_period, margin_nodes)
                except ValueError as exc:
                    diagnostics.update(t_final=state.t, reason="coverage", message=str(exc))
                    raise FrontNotConverged(f"profile extraction failed at t={state.t:.4g}: "
                                            f"{exc}", diagnostics) from exc
                close()
                diagnostics["time_monotonicity_defect"] = snaps.time_monotonicity_defect()
                return _front_from_lattice(c_period, xi, ys, phi, defect, est, diagnostics,
                                           state.stepper.tails, homog)
            settled = snaps.t0 if defect < TOL_PULS else None
            if not T_star > 0.0:
                break       # no period (T* <= 0, or nan where u_t vanished): chunks again
            c_hat = sgn * inst.L / T_star

    diagnostics["reason"] = "budget"
    diagnostics["t_final"] = state.t
    diagnostics["c_hat"] = measure_speed(state.level_t, state.level_x, inst.L)
    diagnostics["stationary_residual"] = residual_stationary(grid, state.u, inst)
    raise FrontNotConverged(
        f"budget t_max={budget.t_max} exhausted at t={state.t:.4g} without meeting "
        "the pulsating or stationary criterion", diagnostics)


# ---------------------------------------------------------------------------
# speed-sign integral identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    c_identity: float
    c_front: float
    mismatch: float
    gradient_integral: float
    reaction_integral: float


def verify_speed_identity(front: FrontSolution, homog: HomogenizedData) -> IdentityReport:
    """Check c * integral of (d_xi phi)^2 over xi and y = integral of fbar.

    Returns the speed implied by the identity and the relative mismatch.
    """
    if front.stationary:
        raise ValueError("the identity check needs a non-stationary front")
    h = float(front.xi[1] - front.xi[0])
    dphi = np.gradient(front.phi, h, axis=0)
    d = float(np.trapezoid(np.mean(dphi**2, axis=1), dx=h))
    if d < 1e-8:
        raise ValueError("gradient integral below floor; profile not converged")
    c_id = homog.i_fbar / d
    mismatch = abs(c_id - front.speed) / abs(front.speed)
    return IdentityReport(c_identity=c_id, c_front=front.speed, mismatch=mismatch,
                          gradient_integral=d, reaction_integral=homog.i_fbar)


# ---------------------------------------------------------------------------
# classification and scans
# ---------------------------------------------------------------------------

PROPAGATING = "Propagating"
STATIONARY = "Stationary"
INCONCLUSIVE = "Inconclusive"


@dataclass
class ClassificationRecord:
    kind: str
    c: float | None
    evidence: dict
    front: FrontSolution | None = None


def classify_quenching(inst: ProblemInstance, cfg: FrontRunConfig = FrontRunConfig(),
                       budget: Budget = Budget()) -> ClassificationRecord:
    """Three-way outcome of the front computation with the evidence attached.

    A solver failure becomes an Inconclusive record with reason "solver"."""
    try:
        front = compute_pulsating_front(inst, cfg, budget)
    except FrontNotConverged as exc:
        return ClassificationRecord(kind=INCONCLUSIVE, c=None,
                                    evidence=dict(exc.diagnostics), front=None)
    except SolverError as exc:
        return ClassificationRecord(kind=INCONCLUSIVE, c=None,
                                    evidence={"reason": "solver", "message": str(exc)},
                                    front=None)
    if front.stationary:
        return ClassificationRecord(kind=STATIONARY, c=0.0,
                                    evidence=dict(front.diagnostics), front=front)
    ev = dict(front.diagnostics)
    ev["pulsating_defect"] = front.pulsating_error
    return ClassificationRecord(kind=PROPAGATING, c=front.speed, evidence=ev,
                                front=front)


@dataclass(frozen=True)
class SweepPoint:
    L: float
    record: ClassificationRecord

    def csv_row(self) -> str:
        rec = self.record
        est = rec.front.speed_estimate if rec.front is not None else None
        c_level = est.c_level if est is not None else math.nan
        c_period = (est.c_period if est is not None
                    else (0.0 if rec.kind == STATIONARY else math.nan))
        unc = est.uncertainty if est is not None else math.nan
        defect = rec.front.pulsating_error if rec.front is not None else math.nan
        resid = rec.evidence.get("stationary_residual", math.nan)
        t_final = rec.evidence.get("t_final", math.nan)
        reason = rec.evidence["reason"] if rec.kind == INCONCLUSIVE else ""
        return (f"{self.L:.10g},{rec.kind},{c_level:.10g},{c_period:.10g},"
                f"{unc:.10g},{defect:.10g},{resid:.10g},{t_final:.10g},{reason}")


# reason is empty unless the row is Inconclusive, then one of REASONS
SWEEP_CSV_HEADER = ("L,classification,c_level,c_period,uncertainty,"
                    "pulsating_defect,stationary_residual,t_final,reason")


def _scan_one(args):
    coeff, reaction, L, cfg, budget = args
    inst = ProblemInstance(coeff=coeff, reaction=reaction, L=L)
    return SweepPoint(L=L, record=classify_quenching(inst, cfg, budget))


def scan_E(coeff, reaction, L_grid: Sequence[float],
           cfg: FrontRunConfig = FrontRunConfig(), budget: Budget = Budget(),
           workers: int = 1) -> list[SweepPoint]:
    """Classify each period in the increasing L grid; per-point failures become
    Inconclusive records and the scan continues."""
    Ls = list(L_grid)
    if any(l2 <= l1 for l1, l2 in zip(Ls, Ls[1:])):
        raise ValueError("L grid must be strictly increasing")
    jobs = [(coeff, reaction, L, cfg, budget) for L in Ls]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_scan_one, jobs))
    else:
        points = [_scan_one(j) for j in jobs]
    points.sort(key=lambda p: p.L)
    return points
