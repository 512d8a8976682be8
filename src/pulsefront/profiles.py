"""Periodic diffusion coefficients, bistable reaction profiles and their averages.

The medium is described by a 1-periodic diffusivity a(y) > 0 and a reaction
f(y, u) that is bistable in u on [0, 1] for every y: it vanishes at 0, at an
intermediate level theta(y) and at 1, is negative below theta(y), positive
above, and is uniformly stable at 0 and 1 with margins (gamma, delta):

    f(y, u) <= -gamma * u        on [0, delta],
    f(y, u) >= gamma * (1 - u)   on [1 - delta, 1].

A problem instance scales the cell profiles to period L via a_L(x) = a(x/L),
f_L(x, u) = f(x/L, u).  This module also computes the averaged quantities that
drive the small-period limit: harmonic mean diffusivity, the x-average fbar of
the reaction, the cubic scale * u (1-u) (u - theta_bar) with theta_bar the
Simpson mean of theta, and the periodic corrector chi solving
(a (chi' + 1))' = 0, equivalently a(y) (chi'(y) + 1) = a_H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ProfileError(ValueError):
    """Raised when a profile violates a structural requirement."""


# ---------------------------------------------------------------------------
# periodic curves (picklable callables used as samplers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicCurve:
    """mean + cos_amp * cos(2 pi y) + sin_amp * sin(2 pi y): the constant,
    the cosine modulation and the oscillating-diffusivity sine in one."""

    mean: float
    cos_amp: float = 0.0
    sin_amp: float = 0.0

    def __call__(self, y):
        wy = 2.0 * np.pi * np.asarray(y, dtype=float)
        return self.mean + self.cos_amp * np.cos(wy) + self.sin_amp * np.sin(wy)

    def deriv(self, y):
        w = 2.0 * np.pi
        wy = w * np.asarray(y, dtype=float)
        return -self.cos_amp * w * np.sin(wy) + self.sin_amp * w * np.cos(wy)


class TabulatedPeriodicCurve:
    """Periodic cubic interpolation of samples on a uniform grid of [0, 1)."""

    def __init__(self, y: np.ndarray, values: np.ndarray):
        y = np.asarray(y, dtype=float)
        values = np.asarray(values, dtype=float)
        if y.ndim != 1 or y.shape != values.shape or y.size < 4:
            raise ProfileError("tabulated curve needs >= 4 (y, value) samples")
        if not (np.all(np.diff(y) > 0) and y[0] >= 0.0 and y[-1] < 1.0):
            raise ProfileError("tabulated sample positions must increase inside [0, 1)")
        # close the period so the spline sees matching endpoint values
        yy = np.concatenate([y, [y[0] + 1.0]])
        vv = np.concatenate([values, [values[0]]])
        from scipy.interpolate import CubicSpline
        self._spline = CubicSpline(yy, vv, bc_type="periodic")
        self._dspline = self._spline.derivative()

    def __call__(self, y):
        return self._spline(np.mod(y, 1.0))

    def deriv(self, y):
        return self._dspline(np.mod(y, 1.0))

    @classmethod
    def from_file(cls, path) -> "TabulatedPeriodicCurve":
        """Read a two-column text file (y, value) with header ``# period=1``."""
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ProfileError(f"{path}: expected two columns (y, value)")
        with open(path) as fh:
            first = fh.readline().strip()
        if "period=1" not in first.replace(" ", ""):
            raise ProfileError(f"{path}: missing '# period=1' header")
        return cls(data[:, 0], data[:, 1])


# ---------------------------------------------------------------------------
# coefficient profile
# ---------------------------------------------------------------------------

_N_SCAN = 4096


@dataclass(frozen=True)
class CoefficientProfile:
    """1-periodic diffusivity with its derivative and cached bounds."""

    a: Callable
    da: Callable
    a_min: float
    a_max: float

    @classmethod
    def from_curve(cls, curve) -> "CoefficientProfile":
        y = np.linspace(0.0, 1.0, _N_SCAN, endpoint=False)
        vals = np.asarray(curve(y), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ProfileError("diffusivity sampler returned non-finite values")
        if np.min(vals) <= 0.0:
            raise ProfileError(f"diffusivity must be positive (min sampled {np.min(vals):.3g})")
        per = float(np.max(np.abs(np.asarray(curve(y + 1.0)) - vals)))
        if per > 1e-9 * max(1.0, float(np.max(np.abs(vals)))):
            raise ProfileError(f"diffusivity is not 1-periodic (defect {per:.3g})")
        return cls(a=curve, da=curve.deriv, a_min=float(np.min(vals)),
                   a_max=float(np.max(vals)))


# ---------------------------------------------------------------------------
# reaction profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReactionProfile:
    """Bistable reaction samplers plus user-supplied stability margins.

    ``f(y, u)`` and ``df(y, u)`` (the u-derivative) accept broadcastable
    arrays.  ``theta(y)`` maps position to the intermediate zero.  ``gamma``
    and ``delta`` are the stability margins, ``lip_k`` a Lipschitz constant
    for both f and df in u.
    """

    f: Callable
    df: Callable
    theta: Callable
    gamma: float
    delta: float
    lip_k: float


def bind_reaction(f: Callable, y) -> Callable:
    """u -> f(y, u) with the y-dependence evaluated once at the fixed nodes y.

    The cubic of make_cubic precomputes theta(y) and its end slopes and gives
    bitwise the values of f(y, u); any other callable is called as f(y, u).
    The bound callable also takes u_range = (u.min(), u.max()) from a caller
    that already has it, which spares the linear extension its own scan.
    The result is a fresh array the caller may overwrite.
    """
    bind = getattr(f, "bind", None)
    if bind is not None:
        return bind(np.asarray(y, dtype=float))
    return lambda u, u_range=None: np.array(f(y, u), dtype=float)


@dataclass(frozen=True)
class _Cubic:
    """scale * u (1-u) (u - theta(y)) on [0, 1], continued linearly outside:
    df(y, 0) * u below 0 and df(y, 1) * (u - 1) above 1, so excursions stay
    well posed and f is globally Lipschitz with the constant of [0, 1].
    f(y, u) is bind(y)(u), the one formula for node-bound and direct calls."""

    theta: Callable
    scale: float

    def __call__(self, y, u):
        return self.bind(np.asarray(y, dtype=float))(u)

    def _slope(self, th, u):
        return self.scale * (-3.0 * u * u + 2.0 * (1.0 + th) * u - th)

    def df(self, y, u):
        """u-derivative, held at its end values outside [0, 1]."""
        th = np.asarray(self.theta(y), dtype=float)
        return self._slope(th, np.clip(np.asarray(u, dtype=float), 0.0, 1.0))

    def bind(self, y):
        th = np.asarray(self.theta(y), dtype=float)
        scale = self.scale
        slope0 = self._slope(th, np.zeros_like(y))
        slope1 = self._slope(th, np.ones_like(y))

        def cubic(u):
            # the stepper's hot path, u (1-u) (u - th) in two temporaries;
            # w takes the broadcast shape of u and th, and an unscaled cubic
            # skips one array multiply
            v = 1.0 - u
            v *= u
            w = u - th
            w *= v
            if scale != 1.0:
                w *= scale
            return w

        def f(u, u_range=None):
            u = np.asarray(u, dtype=float)
            if u_range is None and u.size:
                u_range = (u.min(), u.max())
            # nearly every step of a front run stays in [0, 1], where the
            # clip and both selects are the identity
            if u_range is not None and 0.0 <= u_range[0] and u_range[1] <= 1.0:
                return cubic(u)
            return np.where(u < 0.0, slope0 * u,
                            np.where(u > 1.0, slope1 * (u - 1.0),
                                     cubic(np.clip(u, 0.0, 1.0))))
        return f


def _cubic_margins(theta: Callable, delta: float | None, gamma: float | None):
    y = np.linspace(0.0, 1.0, _N_SCAN, endpoint=False)
    th = np.asarray(theta(y), dtype=float)
    th_min, th_max = float(np.min(th)), float(np.max(th))
    if not (0.0 < th_min and th_max < 1.0):
        raise ProfileError(f"theta must range in (0,1); sampled [{th_min:.3g}, {th_max:.3g}]")
    if delta is None:
        delta = 0.5 * min(th_min, 1.0 - th_max)
    if not (0.0 < delta < 0.5):
        raise ProfileError(f"delta must lie in (0, 1/2); got {delta}")
    if not (delta < th_min and th_max < 1.0 - delta):
        raise ProfileError(
            f"need delta < theta(y) < 1-delta; delta={delta}, theta in [{th_min:.3g}, {th_max:.3g}]")
    # sharpest admissible margins of the two sign conditions, at u = delta and
    # u = 1 - delta where the ratios -f/u and f/(1-u) are smallest
    g_lo = (1.0 - delta) * (th - delta)
    g_hi = (1.0 - delta) * (1.0 - delta - th)
    g_adm = float(min(np.min(g_lo), np.min(g_hi)))
    if gamma is None:
        gamma = 0.9 * g_adm
    if not (0.0 < gamma <= g_adm + 1e-12):
        raise ProfileError(f"gamma={gamma} exceeds admissible margin {g_adm:.6g}")
    return float(delta), float(gamma), th


def make_cubic(theta, gamma: float | None = None, delta: float | None = None,
               scale: float = 1.0) -> ReactionProfile:
    """Cubic reaction scale * u (1-u) (u - theta(y)), continued linearly
    outside [0, 1], with analytic u-derivative.

    ``theta`` is a periodic curve (or a float for the x-independent case).
    Margins default to safe values derived from the sampled theta range.
    """
    if isinstance(theta, (int, float)):
        theta = HarmonicCurve(float(theta))
    delta, gamma, th = _cubic_margins(theta, delta, gamma)
    if scale <= 0.0:
        raise ProfileError("scale must be positive")
    cubic = _Cubic(theta, scale)
    # Lipschitz bound for f and df in u over the extension range: |d2f| =
    # |-6u + 2(1+theta)| peaks at an endpoint of [0,1], at least 3 * scale,
    # and so also bounds |df|, which stays below scale for theta in (0, 1)
    lip_k = scale * float(np.max(np.maximum(2.0 * (1.0 + th),
                                            np.abs(2.0 * (1.0 + th) - 6.0))))
    return ReactionProfile(f=cubic, df=cubic.df, theta=theta, gamma=gamma * scale,
                           delta=delta, lip_k=lip_k)


# ---------------------------------------------------------------------------
# problem instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemInstance:
    """Coefficients scaled to spatial period L: a_L(x) = a(x/L), f_L = f(x/L, u)."""

    coeff: CoefficientProfile
    reaction: ReactionProfile
    L: float

    def __post_init__(self):
        if self.L <= 0.0:
            raise ProfileError("period L must be positive")

    def a_L(self, x):
        return self.coeff.a(np.asarray(x, dtype=float) / self.L)

    def da_L(self, x):
        return self.coeff.da(np.asarray(x, dtype=float) / self.L) / self.L

    def f_L(self, x, u):
        return self.reaction.f(np.asarray(x, dtype=float) / self.L, u)

    def df_L(self, x, u):
        return self.reaction.df(np.asarray(x, dtype=float) / self.L, u)

    def theta_L(self, x):
        return self.reaction.theta(np.asarray(x, dtype=float) / self.L)


def make_xin_example(delta: float, lam: float, mu: float, L: float = 1.0) -> ProblemInstance:
    """Oscillating-diffusivity instance a(y) = 1 + delta*lam*sin(2 pi y) at period L.

    The reaction is mu^2 * u (1-u) (u - (1/2 - delta)); requires |delta*lam| < 1
    for positivity and delta in (0, 1/2).
    """
    if not (0.0 < delta < 0.5):
        raise ProfileError(f"delta must lie in (0, 1/2); got {delta}")
    if abs(delta * lam) >= 1.0:
        raise ProfileError(f"|delta*lam| = {abs(delta * lam):.3g} >= 1 breaks positivity")
    coeff = CoefficientProfile.from_curve(HarmonicCurve(1.0, sin_amp=delta * lam))
    reaction = make_cubic(HarmonicCurve(0.5 - delta), scale=mu * mu)
    return ProblemInstance(coeff=coeff, reaction=reaction, L=L)


# ---------------------------------------------------------------------------
# quadrature and averaged quantities
# ---------------------------------------------------------------------------

QUAD_N = 2048      # Simpson intervals per period for the averaged quantities


def _simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule on a uniform grid with an even interval count."""
    n = values.size - 1
    if n % 2 != 0:
        raise ValueError("Simpson rule needs an even number of intervals")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(values * w) * (h / 3.0))


def harmonic_mean(coeff: CoefficientProfile) -> float:
    """(integral of 1/a over one period)^-1 by Simpson quadrature."""
    y = np.linspace(0.0, 1.0, QUAD_N + 1)
    vals = np.asarray(coeff.a(y), dtype=float)
    if np.min(vals) <= 0.0:
        raise ProfileError("diffusivity sampled non-positive in harmonic_mean")
    return 1.0 / _simpson(1.0 / vals, 1.0 / QUAD_N)


class FbarCurve:
    """The averaged reaction scale * u (1-u) (u - theta_bar) on [0, 1] as its
    power-basis coefficients, continued linearly outside by its end slopes."""

    def __init__(self, scale: float, theta_bar: float):
        s, th = float(scale), float(theta_bar)
        self.theta_bar = th
        poly = np.polynomial.Polynomial((0.0, -s * th, s * (1.0 + th), -s))
        self.coefs = tuple(float(c) for c in poly.coef)
        slope, antideriv = poly.deriv(), poly.integ()
        self.slope0, self.slope1 = float(slope(0.0)), float(slope(1.0))
        self.integral = float(antideriv(1.0) - antideriv(0.0))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        v = self.coefs[-1]
        for c in self.coefs[-2::-1]:
            v = v * u + c
        return np.where(u < 0.0, self.slope0 * u,
                        np.where(u > 1.0, self.slope1 * (u - 1.0), v))


def fbar_and_integral(reaction: ReactionProfile):
    """Return (fbar curve, integral of fbar over [0, 1]) of the cubic of
    make_cubic: fbar = scale u (1-u) (u - theta_bar), with theta_bar the
    Simpson mean of theta.  Any other reaction raises ProfileError."""
    cubic = reaction.f
    if not isinstance(cubic, _Cubic):
        raise ProfileError("the averaged reaction needs the cubic of make_cubic")
    y = np.linspace(0.0, 1.0, QUAD_N + 1)
    th = _simpson(np.asarray(cubic.theta(y), dtype=float), 1.0 / QUAD_N)
    fbar = FbarCurve(cubic.scale, th)
    return fbar, fbar.integral


class CorrectorCurve(TabulatedPeriodicCurve):
    """Periodic corrector chi with chi(0) = 0 and chi'(y) = a_H / a(y) - 1."""

    def __init__(self, coeff: CoefficientProfile, a_h: float):
        self._coeff = coeff
        self._a_h = float(a_h)
        y = np.linspace(0.0, 1.0, QUAD_N + 1)
        dchi = self._a_h / np.asarray(coeff.a(y), dtype=float) - 1.0
        from scipy.integrate import cumulative_simpson
        chi = np.concatenate([[0.0], cumulative_simpson(dchi, x=y)])
        chi = chi - chi[-1] * y  # remove the tiny quadrature drift so chi is 1-periodic
        super().__init__(y[:-1], chi[:-1])   # the periodic spline through (y, chi)

    def deriv(self, y):
        return self._a_h / np.asarray(self._coeff.a(y), dtype=float) - 1.0


def corrector_chi(coeff: CoefficientProfile, a_h: float) -> CorrectorCurve:
    """Solve the cell problem (a (chi' + 1))' = 0: chi'(y) = a_H/a(y) - 1."""
    return CorrectorCurve(coeff, a_h)


@dataclass(frozen=True)
class HomogenizedData:
    """Averaged quantities of an instance: a_H and fbar, with fbar's integral,
    interior zero theta_bar and end slopes."""

    a_h: float
    fbar: FbarCurve
    i_fbar = property(lambda self: self.fbar.integral)
    theta_bar = property(lambda self: self.fbar.theta_bar)
    slope0 = property(lambda self: self.fbar.slope0)
    slope1 = property(lambda self: self.fbar.slope1)


def homogenized_data(coeff: CoefficientProfile, reaction: ReactionProfile) -> HomogenizedData:
    a_h = harmonic_mean(coeff)
    fbar, _ = fbar_and_integral(reaction)
    if not (fbar.slope0 < 0.0 and fbar.slope1 < 0.0):
        raise ProfileError("averaged reaction must have negative slopes at 0 and 1")
    return HomogenizedData(a_h=a_h, fbar=fbar)


def characteristic_rates(a_h: float, c: float, slope0: float, slope1: float):
    """Tail exponents of a front of speed c for a_H phi'' + c phi' + fbar(phi) = 0.

    lambda1 (decay toward 0, right tail) and lambda2 (toward 1, left tail) are
    the positive characteristic roots at the two stable states, whose fbar
    slopes slope0 and slope1 are negative.
    """
    if not (slope0 < 0.0 and slope1 < 0.0):
        raise ValueError("both end slopes must be negative")
    l1 = (c + math.sqrt(c * c - 4.0 * a_h * slope0)) / (2.0 * a_h)
    l2 = (-c + math.sqrt(c * c - 4.0 * a_h * slope1)) / (2.0 * a_h)
    return l1, l2
