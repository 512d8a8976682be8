"""Principal eigenvalues, periodic steady states, and exponential decay roots.

Every operator is the flux-form stencil of solver.flux_stencil plus a
potential.  Dirichlet problems are symmetric tridiagonal with positive
off-diagonals, so their largest eigenvalue is the principal one and its
eigenvector has one sign; LAPACK's tridiagonal eigensolver (bisection plus
inverse iteration, scipy.linalg.eigh_tridiagonal) computes that single pair
in O(n).  Periodic problems (cyclic and, for decay rates, nonsymmetric) use
shifted inverse power iteration on a sparse LU: with the shift above the
Gershgorin right edge, (shift*I - A) is an M-matrix, its inverse is positive,
and the iteration converges to the eigenvalue with the positive eigenfunction.
Every decay rate, the window ends' and decay_root_mu's, is the zero of that
eigenvalue in mu found by the one secant of decay_pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import splu

from .profiles import ProblemInstance, characteristic_rates, harmonic_mean
from .solver import flux_apply, flux_stencil

MAX_POWER_ITER = 10_000
RESID_TOL = 1e-10
# damped Newton for periodic steady states
NEWTON_NODES = 256
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 60
NEWTON_MAX_HALVINGS = 30
DEDUPE_FACTOR = 10.0        # roots closer than this many residuals are one state
TRIVIAL_TOL = 1e-4          # states within this of 0 or 1 are trivial
DECAY_MU_MAX = 50.0         # the largest rate decay_root_mu's grid resolves


class EigenIterationError(RuntimeError):
    pass


@dataclass(frozen=True)
class EigenPair:
    value: float
    x: np.ndarray
    psi: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class SteadyState:
    x: np.ndarray
    u: np.ndarray
    residual: float
    lambda1: float
    cls: str                   # "stable" | "unstable" | "semistable-boundary"


SEMISTABLE_BAND = 1e-6


def classify_lambda(lam: float) -> str:
    if lam > SEMISTABLE_BAND:
        return "unstable"
    if lam < -SEMISTABLE_BAND:
        return "stable"
    return "semistable-boundary"


# ---------------------------------------------------------------------------
# principal eigenpair cores
# ---------------------------------------------------------------------------

def _principal_banded(diag: np.ndarray, off: np.ndarray):
    """Largest eigenpair of the symmetric tridiagonal (diag, off): LAPACK
    bisection (dstebz) for the value, inverse iteration (dstein) for the
    vector.  Returns (value, |psi| with max 1, max|T psi - value psi|, 0)."""
    m = len(diag)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(m - 1, m - 1))
    lam = float(vals[0])
    psi = np.abs(vecs[:, 0])
    psi /= np.max(psi)
    tpsi = diag * psi
    tpsi[1:] += off * psi[:-1]
    tpsi[:-1] += off * psi[1:]
    return lam, psi, float(np.max(np.abs(tpsi - lam * psi))), 0


def _cyclic_matrix(main: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Sparse cyclic tridiagonal: lower[i] multiplies u_{i-1} (wrapping),
    upper[i] multiplies u_{i+1}."""
    n = len(main)
    i = np.arange(n)
    return sp.csc_matrix((np.concatenate([main, lower, upper]),
                          (np.concatenate([i, i, i]),
                           np.concatenate([i, (i - 1) % n, (i + 1) % n]))), shape=(n, n))


def _principal_cyclic(main: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Principal eigenpair of the cyclic tridiagonal with given diagonals.

    Off-diagonal entries must be nonnegative so the shifted matrix is an
    M-matrix and the Perron pair is reached.
    """
    n = len(main)
    if np.min(lower) < 0.0 or np.min(upper) < 0.0:
        raise ValueError("cyclic operator has negative off-diagonal entries; "
                         "refine the grid")
    A = _cyclic_matrix(main, lower, upper)
    gersh = main + lower + upper
    sigma = float(np.max(gersh)) + 1.0
    M = (sp.identity(n, format="csc") * sigma - A).tocsc()
    lu = splu(M)
    v = np.ones(n)
    opnorm = float(np.max(np.abs(main) + upper + lower))
    tol = max(RESID_TOL, 16.0 * np.finfo(float).eps * opnorm)
    for it in range(1, MAX_POWER_ITER + 1):
        w = lu.solve(v)
        w /= np.max(np.abs(w))
        av = A @ w
        lam = float(np.dot(w, av) / np.dot(w, w))
        resid = float(np.max(np.abs(av - lam * w)))
        v = w
        if resid <= tol:
            return lam, np.abs(v) / np.max(np.abs(v)), resid, it
    raise EigenIterationError(f"no convergence in {MAX_POWER_ITER} iterations "
                              f"(last residual {resid:.3g})")


def _as_values(ubar, x: np.ndarray) -> np.ndarray:
    if callable(ubar):
        return np.asarray(ubar(x), dtype=float)
    u = np.asarray(ubar, dtype=float)
    if u.shape != x.shape:
        raise ValueError(f"steady-state array shape {u.shape} does not match "
                         f"the grid ({x.shape})")
    return u


# ---------------------------------------------------------------------------
# eigenvalue problems around a steady state
# ---------------------------------------------------------------------------

def dirichlet_principal_eigen(inst: ProblemInstance, ubar, R: float,
                              n_nodes: int) -> EigenPair:
    """Principal pair of (a_L psi')' + df_L(x, ubar) psi on [-R, R], psi(+-R)=0."""
    if n_nodes < 64:
        raise ValueError("need n_nodes >= 64")
    x = np.linspace(-R, R, n_nodes)
    h = x[1] - x[0]
    u = _as_values(ubar, x)
    q = np.asarray(inst.df_L(x, u), dtype=float)
    af = np.asarray(inst.a_L(x[:-1] + 0.5 * h), dtype=float)
    _, diag, upper = flux_stencil(af, h)
    lam, psi_in, resid, it = _principal_banded(diag[1:-1] + q[1:-1], upper[1:-2])
    psi = np.zeros(n_nodes)
    psi[1:-1] = psi_in
    return EigenPair(value=lam, x=x, psi=psi, residual=resid, iterations=it)


def periodic_principal_eigen(inst: ProblemInstance, ubar,
                             n_nodes: int = 512) -> EigenPair:
    """Principal pair of the L-periodic problem on one period."""
    L = inst.L
    x = L * np.arange(n_nodes) / n_nodes
    h = L / n_nodes
    u = _as_values(ubar, x)
    q = np.asarray(inst.df_L(x, u), dtype=float)
    af = np.asarray(inst.a_L(x + 0.5 * h), dtype=float)   # face i+1/2
    lower, main, upper = flux_stencil(af, h, periodic=True)
    lam, psi, resid, it = _principal_cyclic(main + q, lower, upper)
    return EigenPair(value=lam, x=x, psi=psi, residual=resid, iterations=it)


@dataclass(frozen=True)
class StabilityLimit:
    R_list: tuple
    lambdas: tuple
    periodic_value: float | None
    terminal_gap: float | None
    cls: str


def stability_limit(inst: ProblemInstance, ubar, R_list: Sequence[float]) -> StabilityLimit:
    """Dirichlet principal eigenvalues on nested [-R, R], shared lattice of
    128 nodes per unit length.

    The trace must be increasing (within 1e-10); for an L-periodic state the
    terminal value is compared against the periodic eigenvalue, which is the
    R -> infinity limit.
    """
    Rs = sorted(float(R) for R in R_list)
    if len(Rs) < 2:
        raise ValueError("need at least two radii")
    h = 1.0 / 128
    lams = []
    for R in Rs:
        nn = 2 * int(round(R / h)) + 1
        lam = dirichlet_principal_eigen(inst, ubar, R=(nn - 1) * h / 2.0,
                                        n_nodes=nn).value
        lams.append(lam)
    diffs = np.diff(lams)
    if np.any(diffs < -1e-10):
        raise EigenIterationError(
            f"Dirichlet eigenvalue trace is not increasing in R: {lams}")
    per_val = None
    gap = None
    try:
        per_val = periodic_principal_eigen(inst, ubar).value
        gap = abs(lams[-1] - per_val)
    except (ValueError, TypeError):
        pass
    return StabilityLimit(R_list=tuple(Rs), lambdas=tuple(lams),
                          periodic_value=per_val, terminal_gap=gap,
                          cls=classify_lambda(per_val if per_val is not None else lams[-1]))


# ---------------------------------------------------------------------------
# periodic steady states by damped Newton
# ---------------------------------------------------------------------------

def _steady_residual(inst, x, af, h, u):
    return flux_apply(af, h, u, periodic=True) + np.asarray(inst.f_L(x, u), dtype=float)


def newton_floor(a_face: np.ndarray, h: float) -> float:
    """Residual tolerance of a Newton solve on the flux stencil: NEWTON_TOL,
    or the stencil's own rounding floor 8 eps max(a)/h^2 when that is larger
    (it cannot resolve residuals below it)."""
    return max(NEWTON_TOL, 8.0 * np.finfo(float).eps * float(np.max(a_face)) / h**2)


def damped_newton(residual, step, u: np.ndarray, tol: float):
    """Damped Newton from u: step(u, F) is the full step -J(u)^-1 F, halved
    until the sup residual falls, at most NEWTON_MAX_HALVINGS times.  Returns
    (u, sup residual, iterations) at the first iterate below tol, or at the
    last one when the iterations, the halvings or the linear solve (a
    RuntimeError) give out first."""
    F = residual(u)
    norm = float(np.max(np.abs(F)))
    for it in range(NEWTON_MAX_ITER):
        if norm < tol:
            return u, norm, it
        try:
            delta = step(u, F)
        except RuntimeError:
            return u, norm, it
        s = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            u_try = u + s * delta
            F_try = residual(u_try)
            norm_try = float(np.max(np.abs(F_try)))
            if norm_try < norm:
                u, F, norm = u_try, F_try, norm_try
                break
            s *= 0.5
        else:
            return u, norm, it
    return u, norm, NEWTON_MAX_ITER


def _newton_periodic(inst: ProblemInstance, u0: np.ndarray):
    L = inst.L
    n = NEWTON_NODES
    x = L * np.arange(n) / n
    h = L / n
    af = np.asarray(inst.a_L(x + 0.5 * h), dtype=float)
    lower, main, upper = flux_stencil(af, h, periodic=True)

    def step(u, F):
        dq = np.asarray(inst.df_L(x, u), dtype=float)
        return splu(_cyclic_matrix(main + dq, lower, upper)).solve(-F)

    tol = newton_floor(af, h)
    u, norm, _ = damped_newton(lambda u: _steady_residual(inst, x, af, h, u), step,
                               np.array(u0, dtype=float), tol)
    return (x, u, norm) if norm < tol else None


def _shift_distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """Sup distance minimized over integer grid shifts (period-shift aliases)."""
    best = math.inf
    for k in range(len(u1)):
        d = float(np.max(np.abs(np.roll(u1, k) - u2)))
        if d < best:
            best = d
    return best


def find_periodic_steady_states(inst: ProblemInstance,
                                seeds: Sequence | None = None) -> list[SteadyState]:
    """Damped Newton on the L-periodic steady problem from a fixed seed set.

    Seeds always include the interior zeros of the averaged reaction as
    constants and the map x -> theta(x/L); extra seeds may be constants in
    (0, 1) or arrays on the Newton grid.  Converged roots are deduplicated up
    to period shifts, states touching 0 or 1 are dropped as trivial, and each
    survivor is classified by its periodic principal eigenvalue.
    """
    n = NEWTON_NODES
    x = inst.L * np.arange(n) / n
    seed_vecs: list[np.ndarray] = []

    def add_seed(s):
        if np.isscalar(s):
            s = float(s)
            if not (0.0 < s < 1.0):
                return
            seed_vecs.append(np.full(n, s))
        else:
            arr = _as_values(s, x) if callable(s) else np.asarray(s, dtype=float)
            if arr.shape != (n,):
                raise ValueError("array seed must live on the Newton grid")
            if arr.min() <= 0.0 or arr.max() >= 1.0:
                return
            seed_vecs.append(arr)

    from .profiles import fbar_and_integral
    fbar, _ = fbar_and_integral(inst.reaction)
    for z in fbar.zeros_inside():
        add_seed(z)
    add_seed(np.asarray(inst.theta_L(x), dtype=float))
    for s in (seeds or ()):
        add_seed(s)

    found: list[tuple[np.ndarray, float]] = []
    for s in seed_vecs:
        res = _newton_periodic(inst, s)
        if res is None:
            continue
        xg, u, norm = res
        if u.min() < TRIVIAL_TOL or u.max() > 1.0 - TRIVIAL_TOL:
            continue
        if not (u.min() > 0.0 and u.max() < 1.0):
            continue
        if any(_shift_distance(u, v) <= DEDUPE_FACTOR * max(NEWTON_TOL, norm, vn)
               for v, vn in found):
            continue
        found.append((u, norm))

    states = []
    for u, norm in found:
        pair = periodic_principal_eigen(inst, u, n_nodes=n)
        states.append(SteadyState(x=x, u=u, residual=norm, lambda1=pair.value,
                                  cls=classify_lambda(pair.value)))
    states.sort(key=lambda s: float(np.mean(s.u)))
    return states


# ---------------------------------------------------------------------------
# exponential decay-rate roots
# ---------------------------------------------------------------------------

def decay_eigenvalue(inst: ProblemInstance, c: float, mu: float, direction: str,
                     potential: str, n_nodes: int) -> EigenPair:
    """Principal periodic pair of the tail operator at rate mu, on n_nodes
    nodes y = j/n_nodes of one period (EigenPair.x holds y, psi > 0 with max 1).

    direction "right" tests supersolutions e^{-mu xi} psi(y) for the tail at
    0; "left" tests e^{+mu xi} psi(y) for the tail at 1.  The zeroth-order
    term is -gamma (potential="margin", the certified bound) or the actual
    linearization slope at the corresponding equilibrium ("linearized").
    """
    L = inst.L
    coeff = inst.coeff
    reaction = inst.reaction
    y = np.arange(n_nodes) / n_nodes
    h = 1.0 / n_nodes
    a = np.asarray(coeff.a(y), dtype=float)
    da = np.asarray(coeff.da(y), dtype=float)
    af = np.asarray(coeff.a(y + 0.5 * h), dtype=float)
    if potential == "margin":
        p = np.full(n_nodes, -reaction.gamma)
    elif potential == "linearized":
        p = np.asarray(reaction.df(y, 0.0 if direction == "right" else 1.0), dtype=float)
    else:
        raise ValueError(f"unknown potential mode {potential!r}")
    if direction == "right":
        adv = -2.0 * mu * a / L
        zer = -mu * da / L - c * mu + a * mu**2 + p
    elif direction == "left":
        adv = 2.0 * mu * a / L
        zer = mu * da / L + c * mu + a * mu**2 + p
    else:
        raise ValueError(f"unknown direction {direction!r}")
    # centered first derivative keeps order 2; grid chosen so the matrix stays
    # an M-matrix
    lower, main, upper = flux_stencil(af, L * h, periodic=True)
    lam, psi, resid, it = _principal_cyclic(main + zer, lower - adv / (2.0 * h),
                                            upper + adv / (2.0 * h))
    return EigenPair(value=lam, x=y, psi=psi, residual=resid, iterations=it)


def decay_pair(inst: ProblemInstance, c: float, direction: str, potential: str,
               n_nodes: int, mu: float, slope: float) -> tuple[float, np.ndarray]:
    """The tail near rate mu: (mu, psi) where the principal eigenvalue of the
    tail operator (decay_eigenvalue's potential, n_nodes nodes per period)
    vanishes, with its eigenvector.

    Secant steps start from mu, the first along slope, an estimate of
    d lambda/d mu there, and stop at the first step below mu / n_nodes^2, the
    size of the operator's own second-order error in y; the pair returned is
    the last one evaluated, or EigenIterationError after NEWTON_MAX_ITER.
    """
    pair = decay_eigenvalue(inst, c, mu, direction, potential, n_nodes)
    for _ in range(NEWTON_MAX_ITER):
        step = pair.value / slope
        if abs(step) <= mu / n_nodes**2:
            return mu, pair.psi
        nxt = decay_eigenvalue(inst, c, mu - step, direction, potential, n_nodes)
        slope = (pair.value - nxt.value) / step
        mu, pair = mu - step, nxt
    raise EigenIterationError(f"no tail rate near mu = {mu:.6g} ({direction})")


def decay_nodes(L: float, a_max: float, a_min: float) -> int:
    """Nodes per period of decay_root_mu's grid, which resolves rates up to
    DECAY_MU_MAX."""
    return max(128, int(math.ceil(6.0 * L * DECAY_MU_MAX * a_max / a_min)))


def decay_root_mu(inst: ProblemInstance, c: float, direction: str = "right",
                  potential: str = "margin", refine: int = 1) -> float:
    """Rate mu1 > 0 where the tail operator's principal eigenvalue vanishes:
    decay_pair on refine times the grid resolving rates up to DECAY_MU_MAX,
    seeded at the root of a_H mu^2 -+ c mu + p, p the period mean of the
    potential (the root when a and p are constant)."""
    n_nodes = refine * decay_nodes(inst.L, inst.coeff.a_max, inst.coeff.a_min)
    p0 = p1 = -inst.reaction.gamma
    if potential == "linearized":
        y = np.arange(n_nodes) / n_nodes
        p0, p1 = (float(np.mean(inst.reaction.df(y, u))) for u in (0.0, 1.0))
    a_h = harmonic_mean(inst.coeff)
    l1, l2 = characteristic_rates(a_h, c, p0, p1)
    mu, slope = (l1, 2.0 * a_h * l1 - c) if direction == "right" else (l2, 2.0 * a_h * l2 + c)
    return decay_pair(inst, c, direction, potential, n_nodes, mu, slope)[0]
