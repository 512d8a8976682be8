"""Conservative finite differences and IMEX time stepping on a truncated line.

The equation u_t = (a_L(x) u_x)_x + f_L(x, u) is discretized in flux form with
face diffusivities evaluated analytically at cell midpoints, Dirichlet values
pinned at both ends, backward Euler diffusion and explicit reaction.  The
flux-form operator (a u')' is built in one place, `flux_stencil` (its three
diagonals, Dirichlet or cyclic) and `flux_apply` (its flux-difference action);
the spectral and stability modules use the same pair.  The interior of
I - dt*D is symmetric positive definite and constant, so a Stepper factors it
once (`factor_spd`, LAPACK dpttrf) and each step is one solve against that
factor (`solve_banded`, dpttrs), with the two Dirichlet couplings folded into
the right-hand side.  The reaction is bound once to the node positions.  The
implicit Euler/explicit reaction combination is order-preserving whenever
dt * lip_k <= 1, which the configuration enforces with margin.  `choose_dt`
is the one step rule.  A `Window` owns one lab-frame run (its Stepper, state,
time and x_offset) and is the one place the window slides: by whole periods
(`shift_window`), an exact translation of the L-periodic medium.  The front
runs, the stability experiments and the period map all run on it.
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


class SolverError(RuntimeError):
    pass


def choose_dt(lip_k: float, h: float, c: float) -> float:
    """Time step for a front of speed about c on spacing h: the reaction
    budget, the accuracy limit on front motion per step (c != 0) and the cap."""
    dt = REACTION_BUDGET / max(lip_k, 1e-12)
    if c != 0.0:
        dt = min(dt, ACCURACY_CFL * h / abs(c))
    return float(min(dt, DT_CAP))


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


def shift_window(u: np.ndarray, p: int, m0: int, left: float, right: float) -> np.ndarray:
    """The window moved p whole periods (m0 nodes each) to the right along the
    first axis: out[i] = u[i + p*m0], the vacated end filled with left (p < 0)
    or right (p > 0)."""
    s = p * m0
    out = np.empty_like(u)
    if s >= 0:
        out[:len(u) - s] = u[s:]
        out[len(u) - s:] = right
    else:
        out[-s:] = u[:s]
        out[:-s] = left
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


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    u_left: float = 1.0
    u_right: float = 0.0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


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


class Stepper:
    """Factored diffusion matrix and bound reaction for repeated steps of one
    instance on one grid."""

    def __init__(self, inst: ProblemInstance, grid: Grid1D, cfg: SolverConfig):
        if cfg.dt * inst.reaction.lip_k >= 0.5:
            raise SolverError(
                f"dt*K = {cfg.dt * inst.reaction.lip_k:.3g} >= 0.5 breaks the "
                "explicit reaction stability budget")
        self.inst = inst
        self.grid = grid
        self.cfg = cfg
        n = grid.n
        lower, diag, upper = flux_stencil(grid.a_face, grid.h)
        # interior rows of I - dt*D: symmetric (upper[i] == lower[i+1]) and
        # diagonally dominant, hence positive definite
        self.factor = factor_spd(1.0 - cfg.dt * diag[1:n-1], -cfg.dt * upper[1:n-2])
        self._couple_left = cfg.dt * lower[1] * cfg.u_left
        self._couple_right = cfg.dt * upper[n-2] * cfg.u_right
        self._reaction = bind_reaction(inst.reaction.f, np.mod(grid.nodes / inst.L, 1.0))
        self.min_seen = math.inf
        self.max_seen = -math.inf

    def reaction_at(self, u: np.ndarray, u_range=None) -> np.ndarray:
        return self._reaction(u, u_range)

    def step_values(self, u: np.ndarray, u_range=None) -> np.ndarray:
        """One step from u; u_range is (u.min(), u.max()) when known."""
        cfg = self.cfg
        rhs = u + cfg.dt * self.reaction_at(u, u_range)
        rhs[0] = cfg.u_left
        rhs[-1] = cfg.u_right
        rhs[1] += self._couple_left
        rhs[-2] += self._couple_right
        rhs[1:-1] = solve_banded(self.factor, rhs[1:-1])
        return rhs

    def run(self, u: np.ndarray, t0: float, n_steps: int,
            on_step: Callable | None = None,
            callback_every: int = 1) -> tuple[np.ndarray, float]:
        """Advance n_steps; on_step(k, t, u) fires every callback_every steps
        and on the final step."""
        dt = self.cfg.dt
        # the range of each step's result is taken once and serves both the
        # checks below and the next step's reaction
        lo, hi = float(u.min()), float(u.max())
        for k in range(1, n_steps + 1):
            u = self.step_values(u, (lo, hi))
            # NaN and +-inf propagate through min and max
            lo = float(u.min())
            hi = float(u.max())
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise SolverError(f"non-finite value at step {k} (t={t0 + k * dt:.6g})")
            self.min_seen = min(self.min_seen, lo)
            self.max_seen = max(self.max_seen, hi)
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
        to the left), an exact translation of the L-periodic medium; both ends
        stay pinned."""
        cfg = self.stepper.cfg
        u = shift_window(self.u, p, self.grid.nodes_per_period, cfg.u_left, cfg.u_right)
        u[0], u[-1] = cfg.u_left, cfg.u_right
        self.u = u
        self.x_offset += p * self.grid.L

    def recenter(self, pos: float | None, frac: float) -> int:
        """Slide by the whole periods nearest the drift of the interface at pos
        (window coordinates) from the center, once the drift reaches
        max(L, frac * halfwidth); returns the periods slid (0 if none)."""
        g = self.grid
        center = 0.5 * (g.x_min + g.x_max)
        if pos is None or abs(pos - center) < max(g.L, frac * 0.5 * (g.x_max - g.x_min)):
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


def front_initial_datum(grid: Grid1D, style: str = "tanh",
                        interface: float = 0.0) -> np.ndarray:
    """Monotone front-like datum: 1 left of the interface, 0 right of it, over
    a transition width of 8h (ramp, tanh)."""
    if not (grid.x_min < interface < grid.x_max):
        raise ValueError("interface must lie inside the grid")
    x = grid.nodes
    width = 8.0 * grid.h
    if style == "step":
        g = np.where(x <= interface, 1.0, 0.0)
        # soften over 4h so the transition is resolved
        band = np.abs(x - interface) <= 2.0 * grid.h
        g = np.where(band, 0.5 - (x - interface) / (4.0 * grid.h), g)
    elif style == "ramp":
        g = np.clip(0.5 - (x - interface) / width, 0.0, 1.0)
    elif style == "tanh":
        g = 0.5 * (1.0 - np.tanh((x - interface) / (width / 2.0)))
    else:
        raise ValueError(f"unknown initial datum style {style!r}")
    g = np.minimum.accumulate(g)  # enforce nonincreasing node-to-node
    g[0] = 1.0
    g[-1] = 0.0
    return g

