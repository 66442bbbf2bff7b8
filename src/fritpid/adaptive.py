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
  (Salgado, Goodwin & Middleton 1988), which pulls R toward an SPD floor.

Each rule keeps P and R an exact inverse pair: noforget/ef and df update P
by rank-one Sherman-Morrison steps, er re-solves P = R^-1 directly.
"""

from __future__ import annotations

import math

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
        self.ts = float(ts)
        self._gm_complement = one_minus(gm)
        self._gm_on_u = gm.copy()
        self._gm_on_u.reset()
        self._basis = PidBasis(ts)

    def reset(self) -> None:
        self._gm_complement.reset()
        self._gm_on_u.reset()
        self._basis.reset()

    def step(self, y: float, u: float) -> tuple[np.ndarray, float]:
        """Advance all internal filters one sample; returns (phi, d)."""
        phi = self._basis.step(self._gm_complement.step(y))
        d = self._gm_on_u.step(u)
        return phi, d


def symmetric_eigen_bounds(P: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of a symmetric 3x3 matrix, in closed form.

    Uses the trigonometric solution of the characteristic cubic; falls back
    to numpy for other sizes.
    """
    if P.shape != (3, 3):
        w = np.linalg.eigvalsh(P)
        return float(w[0]), float(w[-1])
    p1 = P[0, 1] ** 2 + P[0, 2] ** 2 + P[1, 2] ** 2
    q = (P[0, 0] + P[1, 1] + P[2, 2]) / 3.0
    if p1 == 0.0:
        d = (P[0, 0], P[1, 1], P[2, 2])
        return min(d), max(d)
    p2 = (P[0, 0] - q) ** 2 + (P[1, 1] - q) ** 2 + (P[2, 2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    B = (P - q * np.eye(3)) / p
    r = float(np.linalg.det(B)) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    lam_max = q + 2.0 * p * math.cos(phi)
    lam_min = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return float(lam_min), float(lam_max)


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def _check_spd(R: np.ndarray, what: str) -> None:
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        raise SingularInformationError(f"{what} is not positive definite") from None


def _as_sample(phi, d) -> tuple[np.ndarray, float]:
    phi = np.asarray(phi, dtype=float).reshape(-1)
    d = float(d)
    if not (np.all(np.isfinite(phi)) and math.isfinite(d)):
        raise NumericalBreakdownError("regressor sample contains non-finite values")
    return phi, d


class Estimator:
    """Recursive least squares over the information matrix R.

    ``mode`` picks the R-update rule (noforget | ef | df | er, see the module
    docstring); the sample check, the residual, the gain step and the
    diagnostics are shared.  R(0) = r0 (a positive scalar times I, or an SPD
    3x3 matrix) and P(0) = R(0)^-1 in every mode.  ``noforget`` forces
    mu = 1.  Only ``df`` applies the deadzone ``epsilon``: a sample with
    ||phi|| <= epsilon is skipped and theta, P and R are left bit-identical.
    Only ``er`` uses the floor ``r_inf``, which R(0) must dominate.
    """

    def __init__(self, mode: str, theta0, mu: float = 0.9, epsilon: float = 1e-3,
                 r0=0.01, r_inf=0.01):
        mode = mode.lower()
        if mode not in self._RULES:
            raise ValueError(f"unknown estimator mode {mode!r}")
        mu, epsilon = float(mu), float(epsilon)
        if not 0.0 < mu <= 1.0:
            raise ValueError(f"forgetting factor mu must be in (0, 1], got {mu}")
        if not 0.0 <= epsilon < math.inf:
            raise ValueError(f"deadzone epsilon must be finite and >= 0, got {epsilon}")
        self.mode = mode
        self.mu = 1.0 if mode == "noforget" else mu
        self.epsilon = epsilon
        self.theta = as_gains(theta0)
        self.R = _as_init_matrix(r0, "r0")
        self.R_inf = _as_init_matrix(r_inf, "r_inf")
        if mode == "er":
            gap_min, _ = symmetric_eigen_bounds(_symmetrize(self.R - self.R_inf))
            if gap_min < -1e-12:
                raise ValueError("r0 must dominate r_inf (r0 - r_inf is not PSD)")
        self.P = _symmetrize(np.linalg.inv(self.R))
        self.deadzone_active = False

    def update(self, phi, d) -> float:
        """Absorb one sample; returns the pre-update residual phi^T theta - d."""
        phi, d = _as_sample(phi, d)
        ehat = float(phi @ self.theta - d)
        if self.mode == "df":
            self.deadzone_active = float(np.linalg.norm(phi)) <= self.epsilon
            if self.deadzone_active:
                return ehat
        self._RULES[self.mode](self, phi)
        # the gain step uses the P already updated for this sample
        self.theta = self.theta + self.P @ phi * (-ehat)
        return ehat

    def eigenvalues(self) -> tuple[float, float]:
        """(min, max) eigenvalues of the covariance matrix."""
        return symmetric_eigen_bounds(self.P)

    def _rls(self, phi: np.ndarray) -> None:
        # noforget (mu = 1) and ef: R <- mu R + phi phi^T
        denom = self.mu + float(phi @ self.P @ phi)
        if denom <= 0.0:
            raise NumericalBreakdownError(f"gain denominator {denom} <= 0")
        Pphi = self.P @ phi
        self.P = _symmetrize((self.P - np.outer(Pphi, Pphi) / denom) / self.mu)
        self.R = _symmetrize(self.mu * self.R + np.outer(phi, phi))

    def _df(self, phi: np.ndarray) -> None:
        a = float(phi @ self.R @ phi)
        if a < 1e-300:
            raise DenominatorUnderflowError(f"phi^T R phi = {a}")
        # forget the rank-one slice of R along phi, then add the new sample
        Rphi = self.R @ phi
        Rbar = self.R - (1.0 - self.mu) / a * np.outer(Rphi, Rphi)
        self.R = _symmetrize(Rbar + np.outer(phi, phi))
        _check_spd(self.R, "information matrix")
        # P tracks R^-1 exactly: rank-one update for the forgotten slice,
        # then a Sherman-Morrison downdate for the added phi*phi^T
        Pbar = self.P + (1.0 - self.mu) / (self.mu * a) * np.outer(phi, phi)
        Pbar_phi = Pbar @ phi
        self.P = _symmetrize(
            Pbar - np.outer(Pbar_phi, Pbar_phi) / (1.0 + float(phi @ Pbar_phi))
        )

    def _er(self, phi: np.ndarray) -> None:
        self.R = _symmetrize(
            self.mu * self.R + (1.0 - self.mu) * self.R_inf + np.outer(phi, phi)
        )
        try:
            self.P = _symmetrize(np.linalg.inv(self.R))
        except np.linalg.LinAlgError:
            raise SingularInformationError("information matrix solve failed") from None

    _RULES = {"noforget": _rls, "ef": _rls, "df": _df, "er": _er}


def RlsEstimator(theta0, p0=1e4, mu: float = 1.0) -> Estimator:
    """Plain RLS (mu = 1) or exponential forgetting (mu < 1) from P(0) = p0."""
    r0 = np.linalg.inv(_as_init_matrix(p0, "p0"))
    return Estimator("noforget" if mu == 1.0 else "ef", theta0, mu=mu, r0=r0)


def DirectionalForgettingRls(theta0, r0=0.01, mu: float = 0.9,
                             epsilon: float = 1e-3) -> Estimator:
    """`Estimator` in ``df`` mode."""
    return Estimator("df", theta0, mu=mu, epsilon=epsilon, r0=r0)


def ExponentialResettingRls(theta0, r0=0.01, r_inf=0.01, mu: float = 0.99) -> Estimator:
    """`Estimator` in ``er`` mode."""
    return Estimator("er", theta0, mu=mu, r0=r0, r_inf=r_inf)


def _as_init_matrix(value, field: str) -> np.ndarray:
    """Scalar -> scaled identity; matrix -> validated SPD symmetric copy."""
    if np.ndim(value) == 0:
        v = float(value)
        if not 0.0 < v < math.inf:
            raise ValueError(f"{field} must be a positive finite scalar, got {v}")
        return v * np.eye(3)
    M = np.asarray(value, dtype=float)
    if M.shape != (3, 3) or not np.all(np.isfinite(M)):
        raise ValueError(f"{field} must be a finite 3x3 matrix or a positive scalar")
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{field} must be symmetric")
    M = _symmetrize(M)
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError(f"{field} must be positive definite") from None
    return M
