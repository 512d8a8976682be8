"""Conservative finite differences and IMEX time stepping on a truncated line.

The equation u_t = (a_L(x) u_x)_x + f_L(x, u) is discretized in flux form with
face diffusivities evaluated analytically at cell midpoints, backward Euler
diffusion and explicit reaction.  Each end of the window obeys a linear tail
toward its stable state, 1 at the left and 0 at the right (`Tail`): the end
node's distance to that state is r times its neighbour's, r = 0 pinning it,
so a window may end where the front is linear rather than where it is within
round-off of 1 and 0 (Beyn, IMA J. Numer. Anal. 10 (1990); Lentini and
Keller, SIAM J. Numer. Anal. 17 (1980)).  The flux-form operator (a u')' is
built in one place, `flux_stencil` (its three diagonals, Dirichlet or cyclic)
and `flux_apply` (its flux-difference action); the spectral and stability
modules use the same pair.  With the end nodes eliminated (r enters only the
first and last diagonal entries), the interior of I - dt*D is symmetric
positive definite and constant for one dt, so a Stepper factors it once per
dt (`factor_spd`, LAPACK dpttrf) and each step is one solve against that
factor (`solve_banded`, dpttrs), with the left end's coupling folded into the
right-hand side.  The reaction is bound once to the node positions.  The
implicit Euler/explicit reaction combination is order-preserving whenever
dt * lip_k <= 1, which the configuration enforces with margin.  `choose_dt`
is the one step rule, and `steps_per_period` the one period rule: a whole
period T in n steps of T/n.  A `Window` owns one lab-frame run (its Stepper,
state, time and x_offset) and is the one place the window slides: by whole
periods (`shift_window`), an exact translation of the L-periodic medium whose
vacated periods continue each end's tail.  `Window.period`, n steps then a
one-period slide, is the period map that the front runs and the spectrum
iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .profiles import ProblemInstance, bind_reaction


REACTION_BUDGET = 0.4     # dt <= 0.4 / K: explicit reaction budget, inside dt*K < 0.5
ACCURACY_CFL = 0.25       # |c| dt <= ACCURACY_CFL * h: a quarter node of front motion
DT_CAP = 0.05
RECENTER_FRAC = 0.15      # interface drift allowance of a Window, times its halfwidth


class SolverError(RuntimeError):
    pass


def choose_dt(lip_k: float, h: float, c: float) -> float:
    """Time step for a front of speed about c on spacing h: the reaction
    budget, the accuracy limit on front motion per step (c != 0) and the cap."""
    dt = REACTION_BUDGET / max(lip_k, 1e-12)
    if c != 0.0:
        dt = min(dt, ACCURACY_CFL * h / abs(c))
    return float(min(dt, DT_CAP))


def steps_per_period(T: float, dt_max: float, multiple: int = 1) -> int:
    """The one period rule: the fewest steps n, a multiple of `multiple`, whose
    dt = T/n is at most dt_max."""
    return multiple * max(1, math.ceil(T / (multiple * dt_max)))


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid whose extent is an integer number of periods L."""

    x_min: float
    x_max: float
    n: int
    h: float
    L: float
    a_face: np.ndarray  # diffusivity at the n-1 cell midpoints
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("grid needs at least 3 nodes")
        if abs(self.h * (self.n - 1) - (self.x_max - self.x_min)) > 1e-9 * self.h:
            raise ValueError("h inconsistent with extent and node count")
        periods = (self.x_max - self.x_min) / self.L
        if abs(periods - round(periods)) > 1e-9:
            raise ValueError("domain extent must be an integer multiple of L")
        self.a_face.flags.writeable = False
        nodes = self.x_min + self.h * np.arange(self.n)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def nodes_per_period(self) -> int:
        return int(round(self.L / self.h))


def flux_stencil(a_face: np.ndarray, h: float, periodic: bool = False):
    """Diagonals (lower, diag, upper) of the flux-form operator (a u')'.

    Row i is (a_{i-1/2} u_{i-1} - (a_{i-1/2} + a_{i+1/2}) u_i + a_{i+1/2} u_{i+1})
    / h^2.  Dirichlet: a_face holds the n-1 faces of n nodes and rows 0 and
    n-1 (the pinned values) are zero.  Periodic: a_face[i] is the face i+1/2
    of node i (n faces) and lower[i], upper[i] multiply u_{i-1}, u_{i+1}
    cyclically.
    """
    h2 = h**2
    if periodic:
        a_lo = np.roll(a_face, 1)
        return a_lo / h2, -(a_lo + a_face) / h2, a_face / h2
    n = len(a_face) + 1
    lower, diag, upper = np.zeros(n), np.zeros(n), np.zeros(n)
    lower[1:n-1] = a_face[0:n-2] / h2
    upper[1:n-1] = a_face[1:n-1] / h2
    diag[1:n-1] = -(a_face[0:n-2] + a_face[1:n-1]) / h2
    return lower, diag, upper


def flux_apply(a_face: np.ndarray, h: float, u: np.ndarray,
               periodic: bool = False) -> np.ndarray:
    """(a u')' in flux-difference form, at the interior nodes (Dirichlet) or at
    every node (periodic), with the face convention of flux_stencil."""
    if periodic:
        return (a_face * (np.roll(u, -1) - u)
                - np.roll(a_face, 1) * (u - np.roll(u, 1))) / h**2
    return (a_face[1:] * (u[2:] - u[1:-1]) - a_face[:-1] * (u[1:-1] - u[:-2])) / h**2


def shift_window(u: np.ndarray, p: int, m0: int, left: float, right: float,
                 q_left: float = 0.0, q_right: float = 0.0) -> np.ndarray:
    """The window moved p whole periods (m0 nodes each) to the right along the
    first axis: out[i] = u[i + p*m0].  Each vacated period continues the one
    beside it toward that end's state, left (p < 0) or right (p > 0): it is
    state + q * (its neighbour - state), with q = q_left or q_right, so q = 0
    fills the state itself."""
    s = p * m0
    n = len(u)
    if abs(s) > n - 1 - m0:
        raise ValueError("the slide must keep at least one period of the window")
    out = np.empty_like(u)
    if s >= 0:
        out[:n - s] = u[s:]
        for i in range(n - s, n, m0):
            out[i:i + m0] = right + q_right * (out[i - m0:i] - right)
    else:
        out[-s:] = u[:s]
        for i in range(-s, 0, -m0):
            out[i - m0:i] = left + q_left * (out[i:i + m0] - left)
    return out


def build_grid(inst: ProblemInstance, halfwidth: float,
               nodes_per_period: int = 64) -> Grid1D:
    """Grid of spacing L/nodes_per_period covering at least [-W, W].

    The extent is rounded up to whole periods and the left edge placed on an
    integer multiple of L so node index mod nodes_per_period fixes the cell
    coordinate y.
    """
    L = inst.L
    h = L / nodes_per_period
    m = max(1, int(math.ceil(halfwidth / L)))
    x_min = -m * L
    x_max = (1 + m) * L
    n = int(round((x_max - x_min) / h)) + 1
    mids = x_min + h * (np.arange(n - 1) + 0.5)
    a_face = np.asarray(inst.a_L(mids), dtype=float)
    return Grid1D(x_min=x_min, x_max=x_max, n=n, h=h, L=L, a_face=a_face)


def factor_spd(diag: np.ndarray, off: np.ndarray):
    """dpttrf factor (d, e) of the symmetric positive definite tridiagonal
    with main diagonal diag and off-diagonal off."""
    if off.size == 0:
        off = np.zeros(1)  # the f2py wrapper rejects a zero-length e
    d, e, info = dpttrf(diag, off)
    if info != 0:
        raise SolverError(f"tridiagonal matrix is not positive definite (info={info})")
    return d, e


def solve_banded(factor, rhs: np.ndarray) -> np.ndarray:
    """Solve against the stored tridiagonal factor (d, e) from factor_spd; rhs
    is one right-hand side or one per column.

    rhs may be overwritten; the solution is returned.
    """
    d, e = factor
    x, info = dpttrs(d, e, rhs, overwrite_b=True)
    if info != 0:
        raise SolverError(f"tridiagonal solve failed (info={info})")
    return x


@dataclass(frozen=True)
class Tail:
    """The linear tail at one end of a window: the distance to the end's
    stable state is e^(-mu d) psi(y) at depth d, psi positive and periodic,
    sampled at the cells j/len(psi) of one period (the window's nodes per
    period, or one value for a tail that does not vary in y)."""

    mu: float
    psi: np.ndarray

    def ratio(self, h: float, end: int, nxt: int) -> float:
        """r = e^(-mu h) psi(y_end)/psi(y_next) for the end node and its
        neighbour at grid indices end and nxt: distance(end) = r distance(nxt)."""
        m = len(self.psi)
        return math.exp(-self.mu * h) * float(self.psi[end % m] / self.psi[nxt % m])


PINNED = Tail(math.inf, np.ones(1))   # r = 0: the end holds its stable state


class Stepper:
    """Factored diffusion matrix and bound reaction for repeated steps of one
    instance on one grid at step dt.  tails = (left, right) are the end
    conditions toward the stable states, 1 at the left and 0 at the right;
    both are pinned unless given."""

    def __init__(self, inst: ProblemInstance, grid: Grid1D, dt: float,
                 tails: tuple[Tail, Tail] = (PINNED, PINNED)):
        self.inst = inst
        self.grid = grid
        self.tails = tails
        self.retime(dt)
        self._reaction = bind_reaction(inst.reaction.f, np.mod(grid.nodes / inst.L, 1.0))
        self.min_seen = math.inf
        self.max_seen = -math.inf

    def retime(self, dt: float):
        """Step at dt from now on: I - dt*D is factored again, the bound
        reaction and the range seen are kept."""
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        if dt * self.inst.reaction.lip_k >= 0.5:
            raise SolverError(
                f"dt*K = {dt * self.inst.reaction.lip_k:.3g} >= 0.5 breaks the "
                "explicit reaction stability budget")
        self.dt = dt
        g = self.grid
        n = g.n
        left, right = self.tails
        # 1 - u_0 = r_left (1 - u_1) and u_{n-1} = r_right u_{n-2}
        self.r_left = left.ratio(g.h, 0, 1)
        self.r_right = right.ratio(g.h, n - 1, n - 2)
        # I - dt*D on the interior: as r < 1 enters the diagonal only,
        # diagonally dominant, hence positive definite
        d, off, couple = self.interior_operator()
        self.factor = factor_spd(1.0 - dt * d, -dt * off)
        self._couple_left = dt * couple * (1.0 - self.r_left)

    def interior_operator(self):
        """The flux stencil D on the interior nodes with the end nodes
        eliminated by the tails: the symmetric (upper[i] == lower[i+1])
        tridiagonal (diag, off) and the left coupling lower[1], so that D u is
        (diag, off) times u[1:-1] plus lower[1] (1 - r_left) in its first row."""
        g = self.grid
        n = g.n
        lower, diag, upper = flux_stencil(g.a_face, g.h)
        d = diag[1:n-1].copy()
        d[0] += self.r_left * lower[1]
        d[-1] += self.r_right * upper[n-2]
        return d, upper[1:n-2], lower[1]

    def set_tails(self, tails: tuple[Tail, Tail]):
        """Impose other end conditions from the next step on; factors again."""
        self.tails = tails
        self.retime(self.dt)

    def impose_ends(self, u: np.ndarray):
        """Write the end nodes from their neighbours, in place (1 and 0 when
        pinned; the + 0.0 keeps a pinned right end at +0.0)."""
        u[0] = 1.0 - self.r_left * (1.0 - u.item(1))
        u[-1] = self.r_right * u.item(-2) + 0.0

    def reaction_at(self, u: np.ndarray, u_range=None) -> np.ndarray:
        return self._reaction(u, u_range)

    def step_values(self, u: np.ndarray, u_range=None) -> np.ndarray:
        """One step from u; u_range is (u.min(), u.max()) when known."""
        rhs = self.reaction_at(u, u_range)
        rhs *= self.dt
        rhs += u
        rhs[1] += self._couple_left
        rhs[1:-1] = solve_banded(self.factor, rhs[1:-1])
        self.impose_ends(rhs)
        return rhs

    def run(self, u: np.ndarray, t0: float, n_steps: int,
            on_step: Callable | None = None,
            callback_every: int = 1) -> tuple[np.ndarray, float]:
        """Advance n_steps; on_step(k, t, u) fires every callback_every steps
        and on the final step."""
        dt = self.dt
        # the range of each step's result is taken once and serves both the
        # checks below and the next step's reaction (ufunc reductions: no
        # method wrappers in the loop)
        lowest, highest = np.minimum.reduce, np.maximum.reduce
        lo, hi = float(lowest(u)), float(highest(u))
        for k in range(1, n_steps + 1):
            u = self.step_values(u, (lo, hi))
            # NaN and +-inf propagate through min and max
            lo = float(lowest(u))
            hi = float(highest(u))
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise SolverError(f"non-finite value at step {k} (t={t0 + k * dt:.6g})")
            if lo < self.min_seen:
                self.min_seen = lo
            if hi > self.max_seen:
                self.max_seen = hi
            if on_step is not None and (k % callback_every == 0 or k == n_steps):
                on_step(k, t0 + k * dt, u)
        return u, t0 + n_steps * dt


class Window:
    """One lab-frame run on a window of whole periods that slides with the
    front: the Stepper, the state u at time t, and x_offset, the lab distance
    the window has moved (lab position = grid.nodes + x_offset)."""

    def __init__(self, stepper: Stepper, u: np.ndarray):
        self.stepper = stepper
        self.grid = stepper.grid
        self.u = np.array(u, dtype=float)
        self.t = 0.0
        self.x_offset = 0.0

    def run(self, n_steps: int, on_step: Callable | None = None, every: int = 1):
        self.u, self.t = self.stepper.run(self.u, self.t, n_steps, on_step, every)

    def slide(self, p: int):
        """Move the window p whole periods to the right (the state p periods
        to the left), an exact translation of the L-periodic medium: each
        vacated period is the one before it times e^(-mu L) of that end's
        tail, in the distance to the end's state, and the ends obey their
        tails again."""
        g = self.grid
        left, right = self.stepper.tails
        u = shift_window(self.u, p, g.nodes_per_period, 1.0, 0.0,
                         math.exp(-left.mu * g.L), math.exp(-right.mu * g.L))
        self.stepper.impose_ends(u)
        self.u = u
        self.x_offset += p * g.L

    def period(self, n_steps: int, p: int, on_step: Callable | None = None, every: int = 1):
        """The period map: n_steps steps covering one period L/|c|, then a slide
        by p = sign(c) periods; on_step fires as in run, before the slide."""
        self.run(n_steps, on_step, every)
        self.slide(p)

    def recenter(self, pos: float | None) -> int:
        """Slide by the whole periods nearest the drift of the interface at pos
        (window coordinates) from the center, once the drift reaches
        max(L, RECENTER_FRAC * halfwidth); returns the periods slid (0 if none)."""
        g = self.grid
        center = 0.5 * (g.x_min + g.x_max)
        allowance = max(g.L, RECENTER_FRAC * 0.5 * (g.x_max - g.x_min))
        if pos is None or abs(pos - center) < allowance:
            return 0
        p = int(round((pos - center) / g.L))
        self.slide(p)
        return p


def residual_stationary(g: Grid1D, u: np.ndarray, inst: ProblemInstance) -> float:
    """Sup-norm of (a_L u')' + f_L at interior nodes, same stencil as the Stepper."""
    diff = flux_apply(g.a_face, g.h, u)
    y = np.mod(g.nodes[1:-1] / inst.L, 1.0)
    f = np.asarray(inst.reaction.f(y, u[1:-1]), dtype=float)
    return float(np.max(np.abs(diff + f)))


def excursion(v_min: float, v_max: float) -> float:
    """How far an observed value range [v_min, v_max] leaves [-0.1, 1.1]; 0.0
    when it stays inside."""
    return float(max(0.0, -0.1 - v_min, v_max - 1.1))


def front_initial_datum(grid: Grid1D, interface: float = 0.0, *,
                        rate: float) -> np.ndarray:
    """Monotone front-like datum: the logistic 1/(1 + exp(rate (x - interface)))
    from 1 left of the interface to 0 right of it."""
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"datum rate must be positive and finite, got {rate!r}")
    if not (grid.x_min < interface < grid.x_max):
        raise ValueError("interface must lie inside the grid")
    g = 0.5 * (1.0 - np.tanh(0.5 * rate * (grid.nodes - interface)))
    g = np.minimum.accumulate(g)  # enforce nonincreasing node-to-node
    g[0] = 1.0
    g[-1] = 0.0
    return g
