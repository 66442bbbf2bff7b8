"""Recursive tuning engine.

Streaming closed-loop samples (y, u) are turned into regression pairs

    phi(k) = basis(z) * {1 - Gm(z)} y(k),      d(k) = Gm(z) u(k)

and the auxiliary error phi^T theta - d is driven to zero by recursive least
squares.  One class, `Estimator`, holds the gains theta, the information
matrix R and its inverse, the covariance P.  Its four modes are four update
rules for R:

* ``noforget``: R <- R + phi*phi^T (plain RLS, mu = 1);
* ``ef``: R <- mu*R + phi*phi^T, exponential forgetting, which discounts the
  whole of R;
* ``df``: directional forgetting (Kulhavy 1987), which discounts only the
  rank-one slice of R along the current regressor, so directions the data
  stops exciting are never forgotten (no estimator windup);
* ``er``: R <- mu*R + (1-mu)*R_inf + phi*phi^T, exponential resetting
  (Salgado, Goodwin & Middleton 1988), which pulls R toward the floor
  R_inf = r_inf*I.

Each rule is a branch of `Estimator.update` that only forms the new R:
``df`` has its own, the other three share the exponential one.  Every mode
then re-solves P = R^-1 with the one scale-safe inverse, which also tests
that R is positive definite, and takes the gain step k = P phi.

The per-step arithmetic is written out on Python floats: a symmetric 3x3
matrix is held as its six unique entries (a00, a01, a02, a11, a12, a22), so
every update is symmetric by construction, and numpy is used only for the
array snapshots the estimator hands out.
"""

from __future__ import annotations

from math import acos, cos, inf, isfinite, nan, pi, sqrt

import numpy as np

from .controller import PidBasis, as_gains
from .lti import RationalFilter, one_minus


class NumericalBreakdownError(RuntimeError):
    """An update produced a denominator or matrix no algorithm step can use."""


class DenominatorUnderflowError(NumericalBreakdownError):
    """phi^T R phi underflowed although the regressor passed the deadzone."""


class SingularInformationError(NumericalBreakdownError):
    """The information matrix lost positive definiteness."""


class RegressorGenerator:
    """Streaming construction of (phi, d) from one I/O sample per step."""

    def __init__(self, gm: RationalFilter, ts: float):
        self._gm_complement = one_minus(gm)
        self._gm_on_u = RationalFilter(gm.num, gm.den)
        self._basis = PidBasis(ts)

    def step(self, y: float, u: float) -> tuple[tuple[float, float, float], float]:
        """Advance all internal filters one sample; returns (phi, d)."""
        phi = self._basis.step(self._gm_complement.step(y))
        d = self._gm_on_u.step(u)
        return phi, d


def symmetric_eigen_bounds(P) -> tuple[float, float]:
    """Extreme eigenvalues of a symmetric 3x3 matrix, in closed form.

    Uses the trigonometric solution of the characteristic cubic on the upper
    triangle; any other shape is a ValueError.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {P.shape}")
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = P.tolist()
    return _eigen_bounds(a00, a01, a02, a11, a12, a22)


_TWO_PI_3 = 2.0 * pi / 3.0


def _eigen_bounds(a00, a01, a02, a11, a12, a22) -> tuple[float, float]:
    p1 = a01 * a01 + a02 * a02 + a12 * a12
    if p1 == 0.0:
        return min(a00, a11, a22), max(a00, a11, a22)
    q = (a00 + a11 + a22) / 3.0
    d0, d1, d2 = a00 - q, a11 - q, a22 - q
    p = sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * p1) / 6.0)
    # r = det(B) / 2 with B = (A - q I) / p, whose eigenvalues are 2 cos(.)
    b00, b11, b22, b01, b02, b12 = d0 / p, d1 / p, d2 / p, a01 / p, a02 / p, a12 / p
    r = (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
         + b02 * (b01 * b12 - b11 * b02)) / 2.0
    # min(1.0, max(-1.0, r)) to the bit, NaN to -1.0, with no call in the common case
    phi = acos(r if -1.0 < r < 1.0 else 1.0 if r >= 1.0 else -1.0) / 3.0
    p2 = 2.0 * p
    return q + p2 * cos(phi + _TWO_PI_3), q + p2 * cos(phi)


def _sym_matrix(m) -> np.ndarray:
    a00, a01, a02, a11, a12, a22 = m
    return np.array([[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]])


def _inverse(m) -> tuple[float, ...]:
    """Inverse of a symmetric 3x3 matrix by its adjugate; the one SPD test.

    The adjugate is taken of D M D with D = diag(M)^-1/2, which has a unit
    diagonal, so the determinant neither under- nor overflows at any scale
    or diagonal grading of an SPD input; then M^-1 = D (D M D)^-1 D.  D M D
    is congruent to M, so Sylvester's criterion on it (a positive diagonal,
    1 - s01^2 > 0 and det > 0) tests that M is positive definite; anything
    else is a SingularInformationError.
    """
    a00, a01, a02, a11, a12, a22 = m
    if not (0.0 < a00 < inf and 0.0 < a11 < inf and 0.0 < a22 < inf):
        raise SingularInformationError(f"information matrix has diagonal {[a00, a11, a22]}")
    d0, d1, d2 = 1.0 / sqrt(a00), 1.0 / sqrt(a11), 1.0 / sqrt(a22)
    s01, s02, s12 = a01 * d0 * d1, a02 * d0 * d2, a12 * d1 * d2
    c22 = 1.0 - s01 * s01
    c00, c01, c02 = 1.0 - s12 * s12, s02 * s12 - s01, s01 * s12 - s02
    det = c00 + s01 * c01 + s02 * c02
    if not (c22 > 0.0 and 0.0 < det < inf):
        raise SingularInformationError(
            f"information matrix is not positive definite (scaled minors {c22}, {det})")
    c11, c12 = 1.0 - s02 * s02, s01 * s02 - s12
    return (c00 / det * d0 * d0, c01 / det * d0 * d1, c02 / det * d0 * d2,
            c11 / det * d1 * d1, c12 / det * d1 * d2, c22 / det * d2 * d2)


class Estimator:
    """Recursive least squares over the information matrix R.

    ``mode`` picks the R-update rule (noforget | ef | df | er, see the module
    docstring); the sample check, the residual, the inverse P = R^-1, the gain
    step and the diagnostics are shared.  R(0) = r0*I for a positive scalar r0
    and P(0) = R(0)^-1 in every mode.  ``noforget`` forces mu = 1.  Only
    ``df`` applies the deadzone ``epsilon``: a sample with ||phi|| <= epsilon
    is skipped and theta, P and R are left bit-identical.  Only ``er`` uses
    the floor ``r_inf*I``, which needs r0 >= r_inf.  An update that raises
    leaves theta, P and R unchanged.

    ``gains`` is theta as the tuple of floats (kp, ki, kd) the last update
    wrote.  ``theta``, ``P`` and ``R`` are numpy snapshots: a fresh array on
    every read, so writing into one does not change the estimator.
    """

    MODES = ("noforget", "ef", "df", "er")  # the adaptive modes, in table order

    def __init__(self, mode: str, theta0, mu: float = 0.9, epsilon: float = 1e-3,
                 r0=0.01, r_inf=0.01):
        if mode not in self.MODES:
            raise ValueError(f"unknown estimator mode {mode!r}")
        mu, epsilon = float(mu), float(epsilon)
        if not 0.0 < mu <= 1.0:
            raise ValueError(f"forgetting factor mu must be in (0, 1], got {mu}")
        if not 0.0 <= epsilon < inf:
            raise ValueError(f"deadzone epsilon must be finite and >= 0, got {epsilon}")
        self.mode = mode
        self.mu = 1.0 if mode == "noforget" else mu
        self.epsilon = epsilon
        self.gains = as_gains(theta0)
        r0 = _positive_scalar(r0, "r0")
        r_inf = _positive_scalar(r_inf, "r_inf")
        if mode == "er" and r0 < r_inf:
            raise ValueError(f"r0 must dominate r_inf, got r0={r0} < r_inf={r_inf}")
        # R_inf is r_inf*I, so er's floor (1 - mu) R_inf adds to the diagonal only
        self._floor = (1.0 - self.mu) * r_inf if mode == "er" else 0.0
        self._R = (r0, 0.0, 0.0, r0, 0.0, r0)
        self._P = _inverse(self._R)
        self.deadzone_active = False

    @property
    def theta(self) -> np.ndarray:
        """The gains [kp, ki, kd]."""
        return np.array(self.gains)

    @property
    def P(self) -> np.ndarray:
        """The covariance, R^-1."""
        return _sym_matrix(self._P)

    @property
    def R(self) -> np.ndarray:
        """The information matrix."""
        return _sym_matrix(self._R)

    def update(self, phi, d) -> float:
        """Absorb one sample; returns the pre-update residual phi^T theta - d."""
        f0, f1, f2 = phi
        f0, f1, f2, d = float(f0), float(f1), float(f2), float(d)
        # a sum that overflows from finite terms passes the per-term test
        if not isfinite(f0 + f1 + f2 + d) and not (
            isfinite(f0) and isfinite(f1) and isfinite(f2) and isfinite(d)
        ):
            raise NumericalBreakdownError("regressor sample contains non-finite values")
        t0, t1, t2 = self.gains
        ehat = f0 * t0 + f1 * t1 + f2 * t2 - d
        r00, r01, r02, r11, r12, r22 = self._R
        if self.mode == "df":
            self.deadzone_active = sqrt(f0 * f0 + f1 * f1 + f2 * f2) <= self.epsilon
            if self.deadzone_active:
                return ehat
            h0 = r00 * f0 + r01 * f1 + r02 * f2
            h1 = r01 * f0 + r11 * f1 + r12 * f2
            h2 = r02 * f0 + r12 * f1 + r22 * f2
            a = f0 * h0 + f1 * h1 + f2 * h2
            if not a >= 1e-300:
                raise DenominatorUnderflowError(f"phi^T R phi = {a}")
            # forget the rank-one slice of R along phi, then add the new sample
            c = (1.0 - self.mu) / a
            R = (
                r00 - c * (h0 * h0) + f0 * f0, r01 - c * (h0 * h1) + f0 * f1,
                r02 - c * (h0 * h2) + f0 * f2, r11 - c * (h1 * h1) + f1 * f1,
                r12 - c * (h1 * h2) + f1 * f2, r22 - c * (h2 * h2) + f2 * f2,
            )
        else:
            # noforget (mu = 1), ef (floor 0) and er: R <- mu R + (1-mu) R_inf + phi phi^T
            mu, floor = self.mu, self._floor
            R = (
                mu * r00 + floor + f0 * f0, mu * r01 + f0 * f1, mu * r02 + f0 * f2,
                mu * r11 + floor + f1 * f1, mu * r12 + f1 * f2, mu * r22 + floor + f2 * f2,
            )
        P = p00, p01, p02, p11, p12, p22 = _inverse(R)
        # the gain step uses the P already updated for this sample: k = P phi
        t0 = t0 - ehat * (p00 * f0 + p01 * f1 + p02 * f2)
        t1 = t1 - ehat * (p01 * f0 + p11 * f1 + p12 * f2)
        t2 = t2 - ehat * (p02 * f0 + p12 * f1 + p22 * f2)
        if not (isfinite(t0) and isfinite(t1) and isfinite(t2)):
            raise NumericalBreakdownError(f"gain step gave non-finite theta {[t0, t1, t2]}")
        self.gains, self._P, self._R = (t0, t1, t2), P, R
        return ehat

    def eigenvalues(self) -> tuple[float, float]:
        """(min, max) eigenvalues of the covariance matrix."""
        return _eigen_bounds(*self._P)


def RlsEstimator(theta0, p0=1e4, mu: float = 1.0) -> Estimator:
    """Plain RLS (mu = 1) or exponential forgetting (mu < 1) from P(0) = p0."""
    r0 = 1.0 / _positive_scalar(p0, "p0")
    return Estimator("noforget" if mu == 1.0 else "ef", theta0, mu=mu, r0=r0)


def DirectionalForgettingRls(theta0, r0=0.01, mu: float = 0.9,
                             epsilon: float = 1e-3) -> Estimator:
    """`Estimator` in ``df`` mode."""
    return Estimator("df", theta0, mu=mu, epsilon=epsilon, r0=r0)


def ExponentialResettingRls(theta0, r0=0.01, r_inf=0.01, mu: float = 0.99) -> Estimator:
    """`Estimator` in ``er`` mode."""
    return Estimator("er", theta0, mu=mu, r0=r0, r_inf=r_inf)


def _positive_scalar(value, field: str) -> float:
    """value as a float, if it is a positive finite scalar."""
    v = float(value) if np.ndim(value) == 0 else nan
    if not 0.0 < v < inf:
        raise ValueError(f"{field} must be a positive finite scalar, got {value!r}")
    return v
