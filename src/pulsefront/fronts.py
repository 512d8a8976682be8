"""Pulsating fronts by long-time evolution: speeds, profiles, classification.

A front-like datum is evolved until the orbit satisfies, to tolerance, the
defining relation u(t + L/c, x + L) = u(t, x) of a pulsating front, or until
the interface demonstrably pins (stationary branch), or until the budget runs
out (inconclusive, never silently a front).  Speeds are measured two ways: a
least-squares fit of the half-level position, and L/T* with T* minimizing the
space-time shift defect.  The profile phi(xi, y) is rebuilt from one period of
snapshots by reading u at t = (x - xi)/c on nodes x whose cell coordinate is y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .profiles import (HomogenizedData, ProblemInstance, characteristic_rates,
                       homogenized_data)
from .solver import (Grid1D, SolverConfig, SolverError, Stepper, Window, build_grid,
                     choose_dt, excursion, front_initial_datum, residual_stationary)

SETTLE_TIME = 10.0          # evolution chunk between checks
TRANSIENT_PERIODS = 20.0    # no capture before 20 L/|c| ...
TRANSIENT_MIN = 50.0        # ... nor before t = 50
STAT_WINDOW = 100.0         # pinning detection window
STAT_DISP_FRAC = 0.1        # pinned: displacement below 0.1 h over STAT_WINDOW
MIN_LEVEL_SAMPLES = 20      # level samples behind a level-speed fit
MIN_TAIL_EFOLDS = 3.0       # depth a tail fit must span
CAPTURE_SNAPSHOTS = 192     # snapshots per capture window
RECENTER_FRAC = 0.15        # interface drift allowance, times the halfwidth
DEFECT_MARGIN_FRAC = 0.15   # per-side exclusion of the defect window


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
    tail_floor: float = 1e-8
    halfwidth: float | None = None       # override the decay-based domain size
    dt: float | None = None              # override solver.choose_dt
    tol_puls: float = 1e-3
    initial_style: str = "tanh"          # step | ramp | tanh


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def level_position(x: np.ndarray, u: np.ndarray):
    """Outermost crossing of the half-level (largest x with u >= 1/2), with
    sub-grid linear interpolation, or None when the level is not attained."""
    above = np.flatnonzero(u >= 0.5)
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
    """Uniformly spaced snapshots of one capture window on a frozen grid."""

    t0: float
    dt_snap: float
    U: np.ndarray          # (k, n)
    grid: Grid1D

    @property
    def t1(self) -> float:
        return self.t0 + (self.U.shape[0] - 1) * self.dt_snap

    def u_at(self, t: float) -> np.ndarray:
        s = (t - self.t0) / self.dt_snap
        k = self.U.shape[0]
        s = min(max(s, 0.0), k - 1 - 1e-12)
        i = int(s)
        w = s - i
        return (1.0 - w) * self.U[i] + w * self.U[i + 1]

    def shift_defect(self, t_ref: float, T: float, margin_nodes: int,
                     shift: int = 1) -> float:
        """sup over interior nodes of |u(t_ref + T, x + shift*L) - u(t_ref, x)|."""
        m0 = self.grid.nodes_per_period
        n = self.grid.n
        a = self.u_at(t_ref)
        b = self.u_at(t_ref + T)
        lo = margin_nodes
        hi = n - margin_nodes - m0
        if hi <= lo:
            raise ValueError("domain too small for the defect window")
        if shift >= 0:
            return float(np.max(np.abs(b[lo + m0:hi + m0] - a[lo:hi])))
        return float(np.max(np.abs(b[lo:hi] - a[lo + m0:hi + m0])))

    def time_monotonicity_defect(self) -> float:
        """How far the capture is from being nondecreasing in t (0 if monotone)."""
        d = np.diff(self.U, axis=0)
        return float(max(0.0, -float(d.min())))


def _golden_min(f: Callable[[float], float], lo: float, hi: float, tol: float):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def min_shift_defect(snaps: SnapshotSeries, t_ref: float, t_hat: float,
                     margin_nodes: int, shift: int = 1):
    """Minimize the pulsating defect over the time period T near t_hat > 0.

    Returns (T*, defect*, T-width over which the defect stays below twice the
    minimum), the last being a crude timing uncertainty.
    """
    t_lo = 0.75 * t_hat
    t_hi = min(1.25 * t_hat, snaps.t1 - t_ref)
    if t_hi <= t_lo:
        raise ValueError("capture window too short for period matching")
    ts = np.linspace(t_lo, t_hi, 61)
    ds = np.array([snaps.shift_defect(t_ref, T, margin_nodes, shift) for T in ts])
    j = int(np.argmin(ds))
    lo = ts[max(0, j - 1)]
    hi = ts[min(len(ts) - 1, j + 1)]
    T_star, d_star = _golden_min(
        lambda T: snaps.shift_defect(t_ref, T, margin_nodes, shift),
        lo, hi, tol=1e-7 * t_hat)
    below = ds <= 2.0 * max(d_star, 1e-15)
    width = (ts[1] - ts[0]) * max(1, int(np.count_nonzero(below)))
    return float(T_star), float(d_star), float(width)


@dataclass(frozen=True)
class SpeedEstimate:
    c_level: float
    c_period: float | None
    unc_level: float
    unc_period: float | None

    @property
    def uncertainty(self) -> float:
        u = self.unc_level
        if self.unc_period is not None:
            u += self.unc_period
        return u


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


def _period_uncertainty(L: float, T: float, width: float, dt_snap: float) -> float:
    """Speed uncertainty of L/T from the period-matching width and the
    snapshot spacing."""
    return abs(L) * (0.25 * width + 0.25 * dt_snap) / T**2


def measure_speed(times: Sequence[float], positions: Sequence[float]) -> SpeedEstimate:
    """Speed from the level trajectory; the period-matching estimate is added
    by the front run from its capture window."""
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if len(times) < MIN_LEVEL_SAMPLES:
        raise ValueError(f"need at least {MIN_LEVEL_SAMPLES} level samples, got {len(times)}")
    c_level, stderr = fit_line(times, positions)
    return SpeedEstimate(c_level=c_level, c_period=None,
                         unc_level=stderr + 1e-12, unc_period=None)


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
    stationary: bool
    speed_estimate: SpeedEstimate | None
    replica_spread: float
    diagnostics: dict

    def on_cells(self, M: int, n: int):
        """xi -> phi(xi, y_q) on the n nodes of a window grid with M nodes per
        period, node q at the exact cell coordinate y_q = (q mod M)/M.

        The lattice is resampled once at y = r/M, r = 0..M-1, with interp's
        y-half formula (it is phi itself when M equals the column count), so
        each call does only the xi half: two gathers, at row i and row i + 1
        of the resampled lattice, and one in-place blend.  Bitwise equal to
        interp(xi, (arange(n) % M)/M).  The result is a fresh array the caller
        may overwrite.
        """
        m = len(self.y)
        if M == m:
            cells = self.phi
        else:
            sy = np.arange(M) / M * m
            j = np.minimum(sy.astype(int), m - 1)
            wj = sy - j
            cells = (1 - wj) * self.phi[:, j] + wj * self.phi[:, (j + 1) % m]
        flat = np.ascontiguousarray(cells).ravel()
        below, above = flat, flat[M:]
        cols = np.arange(n) % M
        xi0 = self.xi[0]
        h = self.xi[1] - xi0
        top = len(self.xi) - 1 - 1e-12

        def phi_at(xi):
            s = np.subtract(xi, xi0)
            s /= h
            np.maximum(s, 0.0, out=s)
            np.minimum(s, top, out=s)
            k = s.astype(int)
            s -= k                       # s is now the xi weight wi
            k *= M
            k += cols
            out = below.take(k)
            out *= 1 - s
            s *= above.take(k)
            out += s
            return out
        return phi_at

    def interp(self, xi, y):
        """Bilinear interpolation of the lattice, periodic in y, clamped in xi;
        xi and y broadcast, and the four lattice values are gathered from the
        flattened lattice at i*m + j."""
        y = np.mod(np.asarray(y, dtype=float), 1.0)
        m = len(self.y)
        sy = y * m
        j = np.minimum(sy.astype(int), m - 1)
        wj = sy - j
        vj = 1 - wj
        dj = (j + 1) % m - j
        xi0 = self.xi[0]
        s = np.clip((np.asarray(xi, dtype=float) - xi0) / (self.xi[1] - xi0),
                    0.0, len(self.xi) - 1 - 1e-12)
        i = s.astype(int)
        wi = s - i
        flat = self.phi.ravel()
        k = i * m + j
        k1 = k + m
        return ((1 - wi) * (vj * flat.take(k) + wj * flat.take(k + dj))
                + wi * (vj * flat.take(k1) + wj * flat.take(k1 + dj)))


def extract_profile(snaps: SnapshotSeries, c: float, t_start: float, period: float,
                    margin_nodes: int = 8):
    """Rebuild phi(xi, y) from snapshots spanning at least one time period.

    Returns (xi, y, phi, replica_spread).  Replicas of the same (xi, y) seen
    through different nodes are averaged and their spread reported.
    """
    grid = snaps.grid
    m0 = grid.nodes_per_period
    n = grid.n
    h = grid.h
    if c == 0.0:
        raise ValueError("profile extraction needs a nonzero speed")
    if snaps.t1 - t_start < period:
        raise ValueError("snapshots must cover one full period past t_start; "
                         f"have {snaps.t1 - t_start:.3g}, need {period:.3g}")
    t_lo = t_start
    t_hi = snaps.t1
    lo_node = margin_nodes
    hi_node = n - 1 - margin_nodes
    xs = grid.nodes
    xi_lo = xs[lo_node] - c * (t_lo if c > 0 else t_hi)
    xi_hi = xs[hi_node] - c * (t_hi if c > 0 else t_lo)
    p_lo = int(math.ceil((xi_lo - grid.x_min) / h - 1e-9))
    p_hi = int(math.floor((xi_hi - grid.x_min) / h + 1e-9))
    if p_hi - p_lo < 8:
        raise ValueError("capture window leaves no feasible profile range")
    ps = np.arange(p_lo, p_hi + 1)
    xi = grid.x_min + h * ps
    ys = np.arange(m0) / m0
    phi = np.zeros((len(ps), m0))
    spread = 0.0
    k_snap = snaps.U.shape[0]
    cdt = c / h
    for j in range(m0):
        acc = np.zeros(len(ps))
        cnt = np.zeros(len(ps))
        mn = np.full(len(ps), np.inf)
        mx = np.full(len(ps), -np.inf)
        q_a = ps + cdt * t_lo
        q_b = ps + cdt * t_hi
        q_min = np.minimum(q_a, q_b)
        q_max = np.maximum(q_a, q_b)
        m_first = np.ceil((q_min - j) / m0 - 1e-9).astype(int)
        m_last = np.floor((q_max - j) / m0 + 1e-9).astype(int)
        max_reps = int(np.max(m_last - m_first)) + 1
        for r in range(max(max_reps, 0)):
            mm = m_first + r
            q = j + mm * m0
            t = (q - ps) * h / c
            ok = (mm <= m_last) & (q >= lo_node) & (q <= hi_node) \
                & (t >= t_lo - 1e-9) & (t <= t_hi + 1e-9)
            if not ok.any():
                continue
            s = (t - snaps.t0) / snaps.dt_snap
            s = np.clip(s, 0.0, k_snap - 1 - 1e-12)
            i0 = s.astype(int)
            w = s - i0
            qq = np.clip(q, 0, n - 1)
            vals = (1.0 - w) * snaps.U[i0, qq] + w * snaps.U[i0 + 1, qq]
            acc[ok] += vals[ok]
            cnt[ok] += 1
            mn[ok] = np.minimum(mn[ok], vals[ok])
            mx[ok] = np.maximum(mx[ok], vals[ok])
        if not (cnt > 0).all():
            raise ValueError("insufficient snapshot coverage for some lattice points; "
                             "increase the capture span or snapshot count")
        phi[:, j] = acc / cnt
        multi = cnt > 1
        if multi.any():
            spread = max(spread, float(np.max(mx[multi] - mn[multi])))
    return xi, ys, phi, spread


def fit_tail_rates(xi: np.ndarray, prof: np.ndarray, floor: float = 1e-10,
                   ceiling: float = 1e-2):
    """Log-linear decay rates of a front profile toward 0 (right) and 1 (left)."""
    out = []
    for vals, sign in ((prof, -1.0), (1.0 - prof, +1.0)):
        mask = (vals > floor) & (vals < ceiling)
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
    fv = np.abs(np.asarray(homog.fbar(u), dtype=float))
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


def default_halfwidth(homog: HomogenizedData, cfg: FrontRunConfig) -> float:
    if cfg.halfwidth is not None:
        return cfg.halfwidth
    mu = max(decay_scale(homog, speed_scale(homog)), 1e-3)
    w = math.log(1.0 / cfg.tail_floor) / mu + 4.0
    return float(min(max(w, 8.0), 150.0))


# ---------------------------------------------------------------------------
# the long-time evolution driver
# ---------------------------------------------------------------------------

class _RunState(Window):
    """A front run's window with its level record and capture windows."""

    def __init__(self, inst, grid, solver_cfg, initial_style):
        super().__init__(Stepper(inst, grid, solver_cfg), front_initial_datum(
            grid, initial_style, interface=0.5 * (grid.x_min + grid.x_max)))
        self.level_t: list[float] = []
        self.level_x: list[float] = []
        # the level is recorded about every 0.05 time units
        self.level_every = max(1, int(round(0.05 / solver_cfg.dt)))

    def record_level(self, t, u):
        pos = level_position(self.grid.nodes, u)
        if pos is not None:
            self.level_t.append(t)
            self.level_x.append(pos + self.x_offset)

    def advance(self, duration: float):
        n_steps = max(1, int(round(duration / self.stepper.cfg.dt)))
        self.run(n_steps, lambda k, t, u: self.record_level(t, u), self.level_every)

    def capture(self, span: float) -> SnapshotSeries:
        dt = self.stepper.cfg.dt
        r = max(1, int(round(span / (CAPTURE_SNAPSHOTS * dt))))
        k = int(math.ceil(span / (r * dt)))
        U = np.empty((k + 1, self.grid.n))
        U[0] = self.u
        t0 = self.t

        def on_step(step_k, t, u):
            if step_k % r == 0:
                U[step_k // r] = u
            self.record_level(t, u)

        self.run(r * k, on_step)
        return SnapshotSeries(t0=t0, dt_snap=r * dt, U=U, grid=self.grid)

    def recent_speed(self, window: float):
        t = np.asarray(self.level_t)
        x = np.asarray(self.level_x)
        if len(t) < 5:
            return None, None
        keep = t >= t[-1] - window
        if np.count_nonzero(keep) < 5:
            return None, None
        return fit_line(t[keep], x[keep])

    def displacement(self, window: float):
        t = np.asarray(self.level_t)
        x = np.asarray(self.level_x)
        if len(t) < 2:
            return None
        keep = t >= t[-1] - window
        if np.count_nonzero(keep) < 2 or (t[-1] - t[keep][0]) < 0.9 * window:
            return None
        xx = x[keep]
        return float(xx.max() - xx.min())


def _front_from_lattice(speed, xi, ys, phi, defect, stationary, est, spread,
                        diagnostics):
    prof = phi.mean(axis=1)
    pos = level_position(xi, prof)
    xi = xi - (pos if pos is not None else 0.0)
    mu1 = mu2 = None
    try:
        mu1, mu2 = fit_tail_rates(xi, prof)
    except ValueError as exc:
        diagnostics["decay_fit"] = str(exc)
    return FrontSolution(speed=speed, xi=xi, y=ys, phi=phi, pulsating_error=defect,
                         mu1_fit=mu1, mu2_fit=mu2, stationary=stationary,
                         speed_estimate=est, replica_spread=spread,
                         diagnostics=diagnostics)


def compute_pulsating_front(inst: ProblemInstance, cfg: FrontRunConfig = FrontRunConfig(),
                            budget: Budget = Budget(),
                            homog: HomogenizedData | None = None) -> FrontSolution:
    """Evolve a front-like datum until it is a pulsating front, a pinned
    stationary front (speed 0), or the budget is spent (FrontNotConverged)."""
    if homog is None:
        homog = homogenized_data(inst.coeff, inst.reaction)
    halfwidth = default_halfwidth(homog, cfg)
    grid = build_grid(inst, halfwidth, cfg.nodes_per_period)
    h = grid.h
    dt = cfg.dt
    if dt is None:
        dt = choose_dt(inst.reaction.lip_k, h, speed_scale(homog))
    solver_cfg = SolverConfig(dt=dt, u_left=1.0, u_right=0.0)
    state = _RunState(inst, grid, solver_cfg, cfg.initial_style)
    # the defect window stays clear of the Dirichlet boundary layers
    margin_nodes = max(grid.nodes_per_period + 4, int(DEFECT_MARGIN_FRAC * grid.n))
    c_floor = h / (10.0 * STAT_WINDOW)
    last_defect = None
    diagnostics: dict = {"L": inst.L, "h": h, "dt": dt, "halfwidth": halfwidth,
                         "n_nodes": grid.n}

    while state.t < budget.t_max:
        state.advance(min(SETTLE_TIME, budget.t_max - state.t))
        state.recenter(level_position(grid.nodes, state.u), RECENTER_FRAC)
        c_hat, _ = state.recent_speed(max(2.0 * SETTLE_TIME, 20.0))
        disp = state.displacement(STAT_WINDOW)
        if disp is not None and disp < STAT_DISP_FRAC * h and state.t >= TRANSIENT_MIN:
            resid = residual_stationary(grid, state.u, inst)
            diagnostics["stationary_residual"] = resid
            diagnostics["displacement"] = disp
            diagnostics["t_final"] = state.t
            if resid < 1e-6:        # stationary-branch residual tolerance
                est = None
                if len(state.level_t) >= MIN_LEVEL_SAMPLES:
                    est = measure_speed(state.level_t[-200:], state.level_x[-200:])
                m = grid.nodes_per_period
                margin = m + 4
                xi = grid.nodes[margin:-margin]
                prof = state.u[margin:-margin]
                phi = np.repeat(prof[:, None], m, axis=1)
                return _front_from_lattice(0.0, xi, np.arange(m) / m, phi, resid,
                                           True, est, 0.0, diagnostics)
        if c_hat is None or abs(c_hat) < c_floor:
            continue
        transient = max(TRANSIENT_PERIODS * inst.L / abs(c_hat), TRANSIENT_MIN)
        if state.t < transient:
            continue
        t_hat = inst.L / abs(c_hat)
        span = 1.45 * t_hat
        if state.t + span > budget.t_max:
            break
        sgn = 1 if c_hat > 0 else -1
        snaps = state.capture(span)
        t_ref1 = snaps.t0 + 0.02 * span
        t_ref2 = snaps.t0 + 0.12 * span
        try:
            T1, d1, width = min_shift_defect(snaps, t_ref1, t_hat, margin_nodes, sgn)
            d2 = snaps.shift_defect(t_ref2, T1, margin_nodes, sgn)
        except ValueError:
            continue
        defect = max(d1, d2)
        diagnostics["last_defect"] = defect
        if defect < cfg.tol_puls and last_defect is not None \
                and last_defect < cfg.tol_puls:
            c_period = sgn * inst.L / T1
            times = np.asarray(state.level_t)
            xs = np.asarray(state.level_x)
            keep = times >= min(transient, times[-1] - 1e-9)
            base = measure_speed(times[keep], xs[keep])
            est = replace(base, c_period=c_period,
                          unc_period=_period_uncertainty(inst.L, T1, width, snaps.dt_snap))
            try:
                xi, ys, phi, spread = extract_profile(snaps, c_period, t_ref1, T1,
                                                      margin_nodes)
            except ValueError as exc:
                diagnostics.update(t_final=state.t, reason="coverage", message=str(exc))
                raise FrontNotConverged(f"profile extraction failed at t={state.t:.4g}: "
                                        f"{exc}", diagnostics) from exc
            diagnostics["t_final"] = state.t
            diagnostics["excursion"] = excursion(state.stepper.min_seen,
                                                 state.stepper.max_seen)
            diagnostics["range_seen"] = (state.stepper.min_seen,
                                         state.stepper.max_seen)
            diagnostics["time_monotonicity_defect"] = snaps.time_monotonicity_defect()
            return _front_from_lattice(c_period, xi, ys, phi, defect, False, est,
                                       spread, diagnostics)
        last_defect = defect

    diagnostics["reason"] = "budget"
    diagnostics["t_final"] = state.t
    diagnostics["last_defect"] = last_defect
    c_hat, _ = state.recent_speed(max(2.0 * SETTLE_TIME, 20.0))
    diagnostics["c_hat"] = c_hat
    if "stationary_residual" not in diagnostics:
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
    if front.stationary or front.speed == 0.0:
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
                       budget: Budget = Budget(),
                       homog: HomogenizedData | None = None) -> ClassificationRecord:
    """Three-way outcome of the front computation with the evidence attached.

    A solver failure becomes an Inconclusive record with reason "solver"."""
    try:
        front = compute_pulsating_front(inst, cfg, budget, homog=homog)
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
    est = front.speed_estimate
    if est is not None:
        ev["c_level"] = est.c_level
        ev["uncertainty"] = est.uncertainty
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
        c_period = (est.c_period if est is not None and est.c_period is not None
                    else (0.0 if rec.kind == STATIONARY else math.nan))
        unc = est.uncertainty if est is not None else math.nan
        defect = rec.front.pulsating_error if rec.front is not None else math.nan
        resid = rec.evidence.get("stationary_residual", math.nan)
        return (f"{self.L:.10g},{rec.kind},{c_level:.10g},{c_period:.10g},"
                f"{unc:.10g},{defect:.10g},{resid:.10g}")


SWEEP_CSV_HEADER = ("L,classification,c_level,c_period,uncertainty,"
                    "pulsating_defect,stationary_residual")


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
