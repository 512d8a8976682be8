"""Homogenized traveling-wave problem: shooting solve, decay exponents, and
the small-period convergence sweep.

The limit problem is a_H phi'' + c phi' + fbar(phi) = 0 with phi(-inf) = 1,
phi(+inf) = 0.  Brent's method finds c where the orbits leaving the saddles 1
and 0 meet the section phi = 1/2 with equal slopes (Beyn, IMA J. Numer. Anal.
10 (1990)); a zero integral of fbar is the standing front, c = 0.  If fbar
has several interior zeros the orbit from 1 can instead settle on one of them,
in which case there is no 0-1 connection and the solve reports it rather than
forcing an answer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .profiles import HomogenizedData, ProblemInstance, characteristic_rates
from .fronts import (Budget, FrontNotConverged, FrontRunConfig, FrontSolution,
                     _golden_min, compute_pulsating_front, level_position)
from .solver import SolverError

SADDLE_EPS = 1e-6       # shooting starts this far from the saddles 0 and 1
ALIGN_SEARCH = 6.0      # profile alignment searches the shift within this of its guess


class NoConnection(RuntimeError):
    """The trajectory settles on an interior zero: no 0-1 front exists."""

    reason = "no-connection"


class BracketError(RuntimeError):
    """No sign change of the shooting functional over the allowed c range."""


@dataclass(frozen=True)
class HomogenizedFront:
    c0: float
    xi: np.ndarray
    phi: np.ndarray
    lambda1: float
    lambda2: float
    A1: float
    A2: float
    _spline: Callable

    def __call__(self, xi):
        """Profile sampler with analytic exponential tails outside the core."""
        xi = np.asarray(xi, dtype=float)
        inner = self._spline(np.clip(xi, self.xi[0], self.xi[-1]))
        left = 1.0 - self.A2 * np.exp(self.lambda2 * xi)
        right = self.A1 * np.exp(-self.lambda1 * xi)
        return np.where(xi < self.xi[0], left,
                        np.where(xi > self.xi[-1], right, inner))


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the call, as every CLI run imports
    this module; the shooting calls this global, which the benchmark wraps."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def _saddle_orbit(homog: HomogenizedData, c: float, xi_max: float, level: float,
                  from_one: bool = True):
    """Orbit leaving 1 forward (or 0 backward) in xi along its unstable (stable)
    direction, stopped where phi crosses `level` or phi' vanishes (turnback)."""
    a = homog.a_h
    fbar = homog.fbar.scalar
    l1, l2 = characteristic_rates(a, c, homog.slope0, homog.slope1)
    eps = SADDLE_EPS
    start, end = ([1.0 - eps, -eps * l2], xi_max) if from_one else ([eps, -eps * l1], -xi_max)

    def rhs(xi, s):
        return [s[1], -(c * s[1] + fbar(s[0])) / a]

    def crossing(xi, s):
        return s[0] - level
    crossing.terminal = True

    def turnback(xi, s):
        return s[1]
    turnback.terminal = True

    return solve_ivp(rhs, (0.0, end), start, events=(crossing, turnback),
                     method="DOP853", rtol=1e-10, atol=1e-12, dense_output=True,
                     max_step=xi_max)


def solve_homogenized_front(homog: HomogenizedData) -> HomogenizedFront:
    """Front (phi0, c0) of the averaged equation by Brent's method on the
    section mismatch of the two saddle orbits, each integrated by DOP853, or
    c0 = 0 when the integral of fbar vanishes; the profile is the orbit
    leaving 1 at c0 either way.

    Preconditions: fbar'(0) < 0, fbar'(1) < 0 and at least one interior zero.
    The profile is normalized by phi0(0) = 1/2; repeated solves are bitwise
    identical.
    """
    from scipy.optimize import brentq
    if not (homog.slope0 < 0.0 and homog.slope1 < 0.0):
        raise ValueError("need fbar'(0) < 0 and fbar'(1) < 0")
    if len(homog.theta_bar) == 0:
        raise ValueError("averaged reaction has no interior zero")
    a = homog.a_h
    umax = float(np.max(np.abs(homog.fbar(np.linspace(0, 1, 513)))))
    c_max = 2.0 * math.sqrt(umax * a)
    xi_max = 400.0 / math.sqrt(min(-homog.slope0, -homog.slope1) / a)

    @functools.cache                  # brentq evaluates the bracket ends again
    def slopes(c):
        # slopes phi' (p1, p0) where the orbits from 1 and from 0 first meet
        # phi = 1/2; an orbit that turns back or settles before counts as 0
        sols = [_saddle_orbit(homog, c, xi_max, 0.5, one) for one in (True, False)]
        return tuple(float(s.y_events[0][0][1]) if len(s.t_events[0]) else 0.0
                     for s in sols)

    def mismatch(c):
        p1, p0 = slopes(c)
        return p1 - p0

    if abs(homog.i_fbar) < 1e-12:
        c0 = 0.0                      # the standing front: sign(c0) = sign(int fbar)
    else:
        lo, hi = -c_max, c_max
        for _ in range(4):
            if mismatch(lo) * mismatch(hi) < 0.0:
                break
            lo *= 2.0
            hi *= 2.0
        else:
            raise BracketError(
                f"no sign change of the section mismatch on [{lo/2:.3g}, {hi/2:.3g}]; "
                "a 0-1 connection may not exist for this averaged reaction")
        c0 = brentq(mismatch, lo, hi, xtol=1e-10)
    if slopes(c0) == (0.0, 0.0):
        raise NoConnection(
            f"neither saddle orbit reaches phi = 1/2 at c = {c0:.6g}: the zero "
            "mismatch there is no connection, the orbits settle on interior zeros "
            "of the averaged reaction")
    sol = _saddle_orbit(homog, c0, xi_max, -1e-6)
    return _assemble_front(homog, c0, sol)


def _assemble_front(homog: HomogenizedData, c0: float, sol) -> HomogenizedFront:
    from scipy.interpolate import CubicSpline
    from scipy.optimize import brentq
    l1, l2 = characteristic_rates(homog.a_h, c0, homog.slope0, homog.slope1)
    # keep the trajectory while it still heads monotonically from 1 to 0
    t_end = sol.t[-1]
    ts = np.linspace(0.0, t_end, 4001)
    phi, dphi = sol.sol(ts)
    # cut where the profile leaves (0, 1) or stops decreasing
    good = (phi > 0.0) & (phi < 1.0) & (dphi < 0.0)
    stop = np.argmin(good) if not good.all() else len(ts)
    if stop < 16:
        raise NoConnection("trajectory leaves the front corridor immediately")
    ts, phi = ts[:stop], phi[:stop]
    if phi[-1] > 0.45:
        raise NoConnection(
            f"trajectory turns back at phi = {phi[-1]:.3f}: the connection "
            "settles on an interior zero of the averaged reaction")
    # normalize phi(0) = 1/2
    i_half = int(np.argmin(np.abs(phi - 0.5)))
    spl = CubicSpline(ts, phi - 0.5)
    shift = brentq(spl, ts[max(0, i_half - 5)], ts[min(len(ts) - 1, i_half + 5)])
    xi = ts - shift
    A1 = float(phi[-1] * math.exp(l1 * xi[-1]))
    A2 = float((1.0 - phi[0]) * math.exp(-l2 * xi[0]))
    return HomogenizedFront(c0=c0, xi=xi, phi=phi, lambda1=l1, lambda2=l2,
                            A1=A1, A2=A2, _spline=CubicSpline(xi, phi))


# ---------------------------------------------------------------------------
# profile alignment and the L -> 0 sweep
# ---------------------------------------------------------------------------

def align_profiles(xi: np.ndarray, phi: np.ndarray, phi0):
    """Shift s* minimizing the column mean of the trapezoid integral over xi of
    (phi(xi, y) - phi0(xi - s))^2, and the square root of that mean at s*, by
    bounded Brent around a half-level first guess.  The mean splits into the
    columns' spread about their mean m(xi), which s leaves alone, plus the
    integral of (m - phi0(xi - s))^2, so each evaluation translates the
    callable phi0 once and reads no lattice."""
    xi = np.asarray(xi, dtype=float)
    mean = phi.mean(axis=1)
    dev = phi - mean[:, None]
    spread = np.trapezoid(np.mean(np.square(dev, out=dev), axis=1), x=xi)  # one temporary
    pos_l = level_position(xi, mean)
    pos_0 = level_position(xi, phi0(xi))
    guess = (pos_l - pos_0) if (pos_l is not None and pos_0 is not None) else 0.0

    def gap2(s):
        return float(spread + np.trapezoid((mean - phi0(xi - s)) ** 2, x=xi))

    s_star, g2 = _golden_min(gap2, guess - ALIGN_SEARCH, guess + ALIGN_SEARCH, tol=1e-8)
    return float(s_star), math.sqrt(g2)


@dataclass(frozen=True)
class SweepPointHomog:
    L: float
    c_L: float
    c0: float
    c_gap_rel: float
    profile_gap: float
    shift: float
    front: FrontSolution

    def csv_row(self) -> str:
        return (f"{self.L:.10g},{self.c_L:.10g},{self.c0:.10g},"
                f"{self.c_gap_rel:.10g},{self.profile_gap:.10g},{self.shift:.10g}")


HOMOG_CSV_HEADER = "L,c_L,c0,c_gap_rel,profile_gap_L2,shift"


def homogenization_sweep(coeff, reaction, L_list: Sequence[float],
                         cfg: FrontRunConfig = FrontRunConfig(),
                         budget: Budget = Budget()):
    """Fronts along a decreasing L list compared with the homogenized limit.

    Returns (records, front0).  Refuses a zero integral of fbar (c0 = 0); that
    regime is the stationary branch of the period scan.  Per-L numerical
    failures (FrontNotConverged, SolverError, ValueError) are recorded as
    (L, exc) entries; any other exception propagates.
    """
    from .profiles import homogenized_data as _hd
    homog = _hd(coeff, reaction)
    front0 = solve_homogenized_front(homog)
    if front0.c0 == 0.0:
        raise ValueError("homogenized speed is zero; use the period scan's "
                         "stationary branch instead of the sweep")
    if any(l2 >= l1 for l1, l2 in zip(L_list, L_list[1:])):
        raise ValueError("L list must be strictly decreasing")
    records = []
    for L in L_list:
        inst = ProblemInstance(coeff=coeff, reaction=reaction, L=L)
        try:
            front = compute_pulsating_front(inst, cfg, budget, homog=homog)
        except (FrontNotConverged, SolverError, ValueError) as exc:
            records.append((L, exc))
            continue
        shift, gap = align_profiles(front.xi, front.phi, front0)
        records.append(SweepPointHomog(
            L=L, c_L=front.speed, c0=front0.c0,
            c_gap_rel=abs(front.speed - front0.c0) / abs(front0.c0),
            profile_gap=gap, shift=shift, front=front))
    return records, front0
