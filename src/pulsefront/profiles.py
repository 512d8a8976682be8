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
the reaction, its integral over [0, 1], and the periodic corrector chi solving
(a (chi' + 1))' = 0, equivalently a(y) (chi'(y) + 1) = a_H.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline


class ProfileError(ValueError):
    """Raised when a profile violates a structural requirement."""


# ---------------------------------------------------------------------------
# periodic curves (picklable callables used as samplers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantCurve:
    value: float

    def __call__(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.value)

    def deriv(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))


@dataclass(frozen=True)
class CosineCurve:
    """mean + amp * cos(2*pi*y)."""

    mean: float
    amp: float

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return self.mean + self.amp * np.cos(2.0 * np.pi * y)

    def deriv(self, y):
        y = np.asarray(y, dtype=float)
        w = 2.0 * np.pi
        return -self.amp * w * np.sin(w * y)


@dataclass(frozen=True)
class SineCurve:
    """mean + amp * sin(2*pi*y); the oscillating-diffusivity family."""

    mean: float
    amp: float

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return self.mean + self.amp * np.sin(2.0 * np.pi * y)

    def deriv(self, y):
        y = np.asarray(y, dtype=float)
        return self.amp * 2.0 * np.pi * np.cos(2.0 * np.pi * y)


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
    for both f and df in u.  ``extended`` marks profiles whose f is linear
    outside [0, 1].
    """

    f: Callable
    df: Callable
    theta: Callable
    gamma: float
    delta: float
    lip_k: float
    extended: bool = False

    def d0(self, y):
        """Slope of f(y, .) at u = 0."""
        return self.df(y, np.zeros_like(np.asarray(y, dtype=float)))

    def d1(self, y):
        """Slope of f(y, .) at u = 1."""
        return self.df(y, np.ones_like(np.asarray(y, dtype=float)))


def bind_reaction(f: Callable, y) -> Callable:
    """u -> f(y, u) with the y-dependence evaluated once at the fixed nodes y.

    Reactions built here precompute theta(y) and the extension slopes and give
    bitwise the values of f(y, u); any other callable is called as f(y, u).
    The bound callable also takes u_range = (u.min(), u.max()) from a caller
    that already has it, which spares the linear extension its own scan.
    """
    bind = getattr(f, "bind", None)
    if bind is not None:
        return bind(np.asarray(y, dtype=float))
    return lambda u, u_range=None: np.asarray(f(y, u), dtype=float)


class _Bindable:
    """f(y, u) evaluated as bind(y)(u): one formula for node-bound and direct calls."""

    def __call__(self, y, u):
        return self.bind(np.asarray(y, dtype=float))(u)


@dataclass(frozen=True)
class _CubicF(_Bindable):
    theta: Callable

    def bind(self, y):
        th = np.asarray(self.theta(y), dtype=float)

        def f(u, u_range=None):
            u = np.asarray(u, dtype=float)
            return u * (1.0 - u) * (u - th)
        return f


@dataclass(frozen=True)
class _CubicDF:
    theta: Callable

    def __call__(self, y, u):
        u = np.asarray(u, dtype=float)
        th = np.asarray(self.theta(y), dtype=float)
        return -3.0 * u * u + 2.0 * (1.0 + th) * u - th


@dataclass(frozen=True)
class _ExtendedF(_Bindable):
    """Linear continuation of a [0,1]-reaction: slope-at-0 below, slope-at-1 above."""

    base_f: Callable
    base_df: Callable

    def bind(self, y):
        inner = bind_reaction(self.base_f, y)
        slope0 = self.base_df(y, np.zeros_like(y))
        slope1 = self.base_df(y, np.ones_like(y))

        def f(u, u_range=None):
            u = np.asarray(u, dtype=float)
            if u_range is None and u.size:
                u_range = (u.min(), u.max())
            # nearly every step of a front run stays in [0, 1], where the
            # clip and both selects are the identity
            if u_range is not None and 0.0 <= u_range[0] and u_range[1] <= 1.0:
                return inner(u)
            return np.where(u < 0.0, slope0 * u,
                            np.where(u > 1.0, slope1 * (u - 1.0),
                                     inner(np.clip(u, 0.0, 1.0))))
        return f


@dataclass(frozen=True)
class _ExtendedDF:
    base_df: Callable

    def __call__(self, y, u):
        u = np.asarray(u, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.base_df(y, np.clip(u, 0.0, 1.0))


def extend_reaction(reaction: ReactionProfile) -> ReactionProfile:
    """Continue f linearly outside [0, 1] so excursions stay well posed.

    The result agrees with the input on [0, 1], equals df(y,0)*u for u < 0 and
    df(y,1)*(u-1) for u > 1, and is globally Lipschitz with the same constant.
    """
    if reaction.extended:
        return reaction
    return ReactionProfile(
        f=_ExtendedF(reaction.f, reaction.df),
        df=_ExtendedDF(reaction.df),
        theta=reaction.theta,
        gamma=reaction.gamma,
        delta=reaction.delta,
        lip_k=reaction.lip_k,
        extended=True,
    )


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
    """Cubic reaction scale * u (1-u) (u - theta(y)) with analytic u-derivative.

    ``theta`` is a periodic curve (or a float for the x-independent case).
    Margins default to safe values derived from the sampled theta range.
    """
    if isinstance(theta, (int, float)):
        theta = ConstantCurve(float(theta))
    delta, gamma, th = _cubic_margins(theta, delta, gamma)
    if scale <= 0.0:
        raise ProfileError("scale must be positive")
    f = _CubicF(theta)
    dfu = _CubicDF(theta)
    if scale != 1.0:
        f = _ScaledF(f, scale)
        dfu = _ScaledF(dfu, scale)
        gamma = gamma * scale
    # Lipschitz bound for f and df in u over the extension range: |df| on [0,1]
    # and |d2f| = |-6u + 2(1+theta)|, which peaks at the endpoints of [0,1]
    u = np.linspace(0.0, 1.0, 257)
    k1 = scale * float(np.max(np.abs(
        _CubicDF(theta)(np.linspace(0.0, 1.0, 513)[:, None], u[None, :]))))
    k2 = scale * float(np.max(np.maximum(2.0 * (1.0 + th), np.abs(2.0 * (1.0 + th) - 6.0))))
    return ReactionProfile(f=f, df=dfu, theta=theta, gamma=gamma, delta=delta,
                           lip_k=max(k1, k2))


@dataclass(frozen=True)
class _ScaledF(_Bindable):
    base: Callable
    scale: float

    def bind(self, y):
        base = bind_reaction(self.base, y)
        return lambda u, u_range=None: self.scale * base(u, u_range)


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
        if not self.reaction.extended:
            object.__setattr__(self, "reaction", extend_reaction(self.reaction))

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
    coeff = CoefficientProfile.from_curve(SineCurve(1.0, delta * lam))
    reaction = make_cubic(ConstantCurve(0.5 - delta), scale=mu * mu)
    return ProblemInstance(coeff=coeff, reaction=reaction, L=L)


# ---------------------------------------------------------------------------
# hypothesis validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    y: float
    u: float
    value: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple
    n_y: int
    n_u: int

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def validate_hypotheses(reaction: ReactionProfile, n_samples: int = 128) -> ValidationReport:
    """Check the bistable sign pattern and the stability margins on a grid.

    ``n_samples`` is the resolution per unit in each of y and u (>= 16).  The
    report lists every violation found (capped at 64); an empty
    list means PASS.  Non-finite sampler output rejects the profile outright.
    """
    if n_samples < 16:
        raise ValueError("need n_samples >= 16 per unit")
    ys = np.linspace(0.0, 1.0, n_samples, endpoint=False)
    us = np.linspace(0.0, 1.0, n_samples + 1)
    YY, UU = np.meshgrid(ys, us, indexing="ij")
    F = np.asarray(reaction.f(YY, UU), dtype=float)
    TH = np.asarray(reaction.theta(ys), dtype=float)
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(TH))):
        raise ProfileError("reaction sampler returned non-finite values")
    gamma, delta = reaction.gamma, reaction.delta
    out: list[Violation] = []

    def add(kind, y, u, value, detail):
        if len(out) < 64:
            out.append(Violation(kind, float(y), float(u), float(value), detail))

    ztol = 1e-10 * max(1.0, float(np.max(np.abs(F))))
    for i, y in enumerate(ys):
        th = TH[i]
        if not (delta < th < 1.0 - delta):
            add("theta-range", y, th, th, f"need delta < theta < 1-delta with delta={delta}")
        for u0, name in ((0.0, "f(y,0)"), (1.0, "f(y,1)")):
            v = float(reaction.f(np.asarray(y), np.asarray(u0)))
            if abs(v) > ztol:
                add("zero", y, u0, v, f"{name} != 0")
        vth = float(reaction.f(np.asarray(y), np.asarray(th)))
        if abs(vth) > 1e-8 * max(1.0, float(np.max(np.abs(F)))):
            add("zero", y, th, vth, "f(y,theta(y)) != 0")
        for j, u in enumerate(us):
            v = F[i, j]
            if 0.0 < u < th and not v < 0.0:
                add("sign-low", y, u, v, "f must be < 0 on (0, theta)")
            elif th < u < 1.0 and not v > 0.0:
                add("sign-high", y, u, v, "f must be > 0 on (theta, 1)")
            if 0.0 < u <= delta and v > -gamma * u + ztol:
                add("margin-0", y, u, v, f"f(y,u) <= -gamma*u fails on [0,delta], gamma={gamma}")
            if 1.0 - delta <= u < 1.0 and v < gamma * (1.0 - u) - ztol:
                add("margin-1", y, u, v, f"f(y,u) >= gamma*(1-u) fails on [1-delta,1]")
    return ValidationReport(violations=tuple(out), n_y=len(ys), n_u=len(us))


# ---------------------------------------------------------------------------
# quadrature and averaged quantities
# ---------------------------------------------------------------------------

QUAD_N = 2048      # Simpson intervals per period for the averaged quantities


def _simpson(values: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Composite Simpson rule on a uniform grid with an even interval count."""
    n = values.shape[axis] - 1
    if n % 2 != 0:
        raise ValueError("Simpson rule needs an even number of intervals")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    shape = [1] * values.ndim
    shape[axis] = n + 1
    return np.sum(values * w.reshape(shape), axis=axis) * (h / 3.0)


def harmonic_mean(coeff: CoefficientProfile) -> tuple[float, float]:
    """(integral of 1/a over one period)^-1 and its relative Richardson error
    estimate."""
    y = np.linspace(0.0, 1.0, QUAD_N + 1)
    vals = np.asarray(coeff.a(y), dtype=float)
    if np.min(vals) <= 0.0:
        raise ProfileError("diffusivity sampled non-positive in harmonic_mean")
    inv_full = _simpson(1.0 / vals, 1.0 / QUAD_N)
    inv_half = _simpson(1.0 / vals[::2], 2.0 / QUAD_N)
    a_h = 1.0 / inv_full
    rel = abs(inv_full - inv_half) / (15.0 * abs(inv_full))
    return float(a_h), float(rel)


class FbarCurve:
    """x-average of the reaction as a function of u, linear outside [0, 1]."""

    def __init__(self, u_grid, values, slope0, slope1):
        self.u_grid = np.asarray(u_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.slope0 = float(slope0)
        self.slope1 = float(slope1)
        self._spline = CubicSpline(self.u_grid, self.values)
        self._knots = self.u_grid.tolist()
        self._coefs = self._spline.c.T.tolist()

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        inner = self._spline(np.clip(u, 0.0, 1.0))
        return np.where(u < 0.0, self.slope0 * u,
                        np.where(u > 1.0, self.slope1 * (u - 1.0), inner))

    def scalar(self, u: float) -> float:
        """fbar at one float, bitwise equal to float(self(u)): PPoly's interval
        rule and power sum in pure Python, for scalar callers like solve_ivp."""
        if u < 0.0:
            return self.slope0 * u
        if u > 1.0:
            return self.slope1 * (u - 1.0)
        i = min(bisect_right(self._knots, u), len(self._coefs)) - 1
        c3, c2, c1, c0 = self._coefs[i]
        s = u - self._knots[i]
        return 0.0 + c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

    def zeros_inside(self) -> tuple:
        """Simple zeros of fbar strictly inside (0, 1)."""
        u = self.u_grid
        v = self.values
        roots = []
        for i in range(1, len(u) - 2):
            if v[i] == 0.0 and u[i] > 0.0:
                roots.append(u[i])
            elif v[i] * v[i + 1] < 0.0:
                from scipy.optimize import brentq
                roots.append(brentq(self, u[i], u[i + 1]))
        return tuple(r for r in roots if 1e-12 < r < 1.0 - 1e-12)


def fbar_and_integral(reaction: ReactionProfile, quad_n: int = QUAD_N):
    """Return (fbar curve, integral of fbar over [0, 1]) by Simpson quadrature
    with an even number quad_n of intervals in y."""
    y = np.linspace(0.0, 1.0, quad_n + 1)
    nu = 512
    u = np.linspace(0.0, 1.0, nu + 1)
    F = np.asarray(reaction.f(y[:, None], u[None, :]), dtype=float)
    fbar_vals = _simpson(F, 1.0 / quad_n, axis=0)
    slope0 = float(_simpson(np.asarray(reaction.d0(y), dtype=float), 1.0 / quad_n))
    slope1 = float(_simpson(np.asarray(reaction.d1(y), dtype=float), 1.0 / quad_n))
    fbar = FbarCurve(u, fbar_vals, slope0, slope1)
    i_fbar = float(_simpson(fbar_vals, 1.0 / nu))
    return fbar, i_fbar


class CorrectorCurve:
    """Periodic corrector chi with chi(0) = 0 and chi'(y) = a_H / a(y) - 1."""

    def __init__(self, coeff: CoefficientProfile, a_h: float):
        self._coeff = coeff
        self._a_h = float(a_h)
        y = np.linspace(0.0, 1.0, QUAD_N + 1)
        dchi = self._a_h / np.asarray(coeff.a(y), dtype=float) - 1.0
        from scipy.integrate import cumulative_simpson
        chi = np.concatenate([[0.0], cumulative_simpson(dchi, x=y)])
        chi = chi - chi[-1] * y  # remove the tiny quadrature drift so chi is 1-periodic
        self._spline = CubicSpline(y, chi, bc_type="periodic")

    def __call__(self, y):
        return self._spline(np.mod(y, 1.0))

    def deriv(self, y):
        return self._a_h / np.asarray(self._coeff.a(y), dtype=float) - 1.0


def corrector_chi(coeff: CoefficientProfile, a_h: float) -> CorrectorCurve:
    """Solve the cell problem (a (chi' + 1))' = 0: chi'(y) = a_H/a(y) - 1."""
    return CorrectorCurve(coeff, a_h)


@dataclass(frozen=True)
class HomogenizedData:
    """Averaged quantities of an instance: a_H, fbar, its integral, corrector."""

    a_h: float
    a_h_rel_error: float
    fbar: FbarCurve
    i_fbar: float
    theta_bar: tuple
    chi: CorrectorCurve

    @property
    def slope0(self) -> float:
        return self.fbar.slope0

    @property
    def slope1(self) -> float:
        return self.fbar.slope1


def homogenized_data(coeff: CoefficientProfile, reaction: ReactionProfile) -> HomogenizedData:
    a_h, a_h_rel_error = harmonic_mean(coeff)
    fbar, i_fbar = fbar_and_integral(reaction)
    if not (fbar.slope0 < 0.0 and fbar.slope1 < 0.0):
        raise ProfileError("averaged reaction must have negative slopes at 0 and 1")
    chi = corrector_chi(coeff, a_h)
    return HomogenizedData(a_h=a_h, a_h_rel_error=a_h_rel_error, fbar=fbar,
                           i_fbar=i_fbar, theta_bar=fbar.zeros_inside(), chi=chi)


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
