"""Homogenized traveling-wave problem: the limit front, its decay exponents,
and the small-period convergence sweep.

The limit problem is a_H phi'' + c phi' + fbar(phi) = 0 with phi(-inf) = 1,
phi(+inf) = 0.  Every fbar is the cubic s u (1-u) (u - theta_bar), whose front
is the logistic phi0(xi) = 1/(1 + exp(kappa xi)), kappa = sqrt(s / (2 a_H)),
at the speed c0 = a_H kappa (1 - 2 theta_bar) (McKean, "Nagumo's equation",
Adv. Math. 4 (1970); Fife and McLeod, ARMA 65 (1977)); a zero integral of
fbar is the standing front, c0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .profiles import HomogenizedData, ProblemInstance, characteristic_rates
from .fronts import (Budget, FrontNotConverged, FrontRunConfig, FrontSolution,
                     _golden_min, compute_pulsating_front, level_position,
                     limit_front_rate)
from .solver import SolverError

PHI0_DEPTH = 1e-6       # the written phi0 grid spans phi0 = 1 - PHI0_DEPTH to PHI0_DEPTH
ALIGN_SEARCH = 6.0      # profile alignment searches the shift within this of its guess


@dataclass(frozen=True)
class HomogenizedFront:
    c0: float
    kappa: float
    xi: np.ndarray
    phi: np.ndarray
    lambda1: float
    lambda2: float

    def __call__(self, xi):
        return _logistic(self.kappa, xi)


def _logistic(kappa: float, xi):
    """1/(1 + exp(kappa xi)) in the form that cannot overflow, the one of
    solver.front_initial_datum."""
    return 0.5 * (1.0 - np.tanh(0.5 * kappa * np.asarray(xi, dtype=float)))


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the call.  No solve here calls
    it; it stays because perfbench/layers.py wraps this name."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def solve_homogenized_front(homog: HomogenizedData) -> HomogenizedFront:
    """The limit front (phi0, c0) in closed form, phi0(0) = 1/2, with c0 = 0
    exactly when |int fbar| < 1e-12, and phi0 sampled on 4,001 uniform points
    where it runs from 1 - PHI0_DEPTH to PHI0_DEPTH."""
    kappa = limit_front_rate(homog)
    if abs(homog.i_fbar) < 1e-12:
        c0 = 0.0                      # the standing front: sign(c0) = sign(int fbar)
    else:
        c0 = homog.a_h * kappa * (1.0 - 2.0 * homog.theta_bar)
    l1, l2 = characteristic_rates(homog.a_h, c0, homog.slope0, homog.slope1)
    end = math.log(1.0 / PHI0_DEPTH - 1.0) / kappa
    xi = np.linspace(-end, end, 4001)
    return HomogenizedFront(c0=c0, kappa=kappa, xi=xi, phi=_logistic(kappa, xi),
                            lambda1=l1, lambda2=l2)


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
            front = compute_pulsating_front(inst, cfg, budget)
        except (FrontNotConverged, SolverError, ValueError) as exc:
            records.append((L, exc))
            continue
        shift, gap = align_profiles(front.xi, front.phi, front0)
        records.append(SweepPointHomog(
            L=L, c_L=front.speed, c0=front0.c0,
            c_gap_rel=abs(front.speed - front0.c0) / abs(front0.c0),
            profile_gap=gap, shift=shift, front=front))
    return records, front0
