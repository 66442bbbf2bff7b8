"""Discrete-time rational filters in the shift operator.

Coefficient convention: ``num`` and ``den`` are polynomials in z^-1,

    H(z) = (num[0] + num[1] z^-1 + ...) / (den[0] + den[1] z^-1 + ...)

with den[0] != 0, realized as a causal difference equation (direct form II
transposed).  Output at step k depends only on inputs at steps <= k.
"""

from __future__ import annotations

import math

import numpy as np


def positive_scalar(value, name: str) -> float:
    """value as a float, if it is a positive finite scalar; else a ValueError naming it."""
    v = float(value) if np.ndim(value) == 0 else math.nan
    if not 0.0 < v < math.inf:  # written so that NaN fails too
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return v


def _trim(coeffs: list[float]) -> list[float]:
    """Drop exactly-zero trailing coefficients, keeping at least one."""
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return out


class RationalFilter:
    """Stateful SISO filter num(z^-1)/den(z^-1); num and den are sequences."""

    def __new__(cls, num, den):
        num = [float(c) for c in num]
        den = [float(c) for c in den]
        if not all(map(math.isfinite, num + den)):
            raise ValueError(f"filter coefficients must be finite, got num={num}, den={den}")
        if not den or den[0] == 0.0:
            raise ValueError("den[0] must be nonzero for a causal realization")
        num, den = _trim(num or [0.0]), _trim(den)
        n = max(len(num), len(den))
        # orders 0-2 (the PID basis, first-order reference models, pid_filter
        # with kd != 0 and its inverse) get subclasses that unroll the step:
        # the generic loop's operations in the same order, so the same bits
        self = super().__new__(_UNROLLED.get(n, cls) if cls is RationalFilter else cls)
        self.num, self.den = num, den
        # normalized copies used by the difference equation, padded to equal length
        a0 = den[0]
        self._b = [c / a0 for c in num] + [0.0] * (n - len(num))
        self._a = [c / a0 for c in den] + [0.0] * (n - len(den))
        self._w = [0.0] * (n - 1)
        if n <= 3:  # the coefficients the unrolled steps read, zero-padded
            self._b0, self._b1, self._b2 = self._b + [0.0] * (3 - n)
            _, self._a1, self._a2 = self._a + [0.0] * (3 - n)
        return self

    def __getnewargs__(self):  # copy and pickle rebuild through the checks, then restore _w
        return self.num, self.den

    @property
    def order(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    def reset(self) -> None:
        self._w = [0.0] * len(self._w)

    def step(self, u: float) -> float:
        """Advance the difference equation one sample and return the output.

        This is the loop for orders >= 3; orders 0 to 2 are unrolled in
        ``_Order0Filter`` to ``_Order2Filter`` (see ``__new__``).
        """
        b, a, w = self._b, self._a, self._w
        y = b[0] * u + w[0]
        for i in range(len(w) - 1):
            w[i] = b[i + 1] * u + w[i + 1] - a[i + 1] * y
        w[-1] = b[len(w)] * u - a[len(w)] * y
        return y

    def filter(self, u) -> list[float]:
        """Filter a whole sequence from zero initial state.

        Runs on a fresh filter, so the caller's filter state is untouched.
        """
        f = RationalFilter(self.num, self.den)
        return [f.step(x) for x in np.asarray(u, dtype=float).tolist()]

    def inverse(self) -> "RationalFilter":
        """Exact rational inverse den/num; requires num[0] != 0 (biproper)."""
        return RationalFilter(self.den, self.num)

    # [c0, c1, ..., cn] is c0 z^n + c1 z^(n-1) + ... + cn in the z plane; the lists
    # are trimmed, so a trailing zero is not mistaken for a root at 0
    def poles(self) -> list[complex]:
        return [complex(r) for r in np.roots(self.den)]

    def zeros(self) -> list[complex]:
        return [complex(r) for r in np.roots(self.num)]

    def __repr__(self):
        return f"RationalFilter(num={self.num}, den={self.den})"


class _Order0Filter(RationalFilter):
    """A RationalFilter of order 0: a pure gain."""

    def step(self, u: float) -> float:
        return self._b0 * u


class _Order1Filter(RationalFilter):
    """A RationalFilter of order 1, its difference equation unrolled."""

    def step(self, u: float) -> float:
        w = self._w
        y = self._b0 * u + w[0]
        w[0] = self._b1 * u - self._a1 * y
        return y


class _Order2Filter(RationalFilter):
    """A RationalFilter of order 2, its difference equation unrolled."""

    def step(self, u: float) -> float:
        w = self._w
        y = self._b0 * u + w[0]
        w[0] = self._b1 * u + w[1] - self._a1 * y
        w[1] = self._b2 * u - self._a2 * y
        return y


# filter classes by len(padded coefficients) = order + 1
_UNROLLED = {1: _Order0Filter, 2: _Order1Filter, 3: _Order2Filter}


def one_minus(f: RationalFilter) -> RationalFilter:
    """Return 1 - f over the common denominator."""
    n = max(len(f.num), len(f.den))
    num = [0.0] * n
    for i, c in enumerate(f.den):
        num[i] += c
    for i, c in enumerate(f.num):
        num[i] -= c
    return RationalFilter(num, f.den)


class ReferenceModel:
    """Target closed-loop transfer function; must be strictly stable."""

    def __init__(self, filt: RationalFilter):
        mags = [abs(p) for p in filt.poles()]
        if mags and max(mags) >= 1.0:
            raise ValueError(
                f"reference model has pole magnitude {max(mags):.6g} >= 1"
            )
        for what, f in (("Gm", filt), ("1 - Gm", one_minus(filt))):  # d or phi would be 0
            if f.num == [0.0]:
                raise ValueError(f"reference model {what} is 0 (num={filt.num}, den={filt.den})")
        self.filter = filt

    @classmethod
    def first_order(
        cls,
        ts: float,
        tau: float = 1.0,
        dc_gain: float = 1.0,
        discretization: str = "euler",
    ) -> "ReferenceModel":
        """First-order lag with a one-step input delay.

        ``euler`` places the pole at 1 - ts/tau, ``zoh`` at exp(-ts/tau).
        At ts=0.01 the defaults (tau=1, dc_gain=1.0, euler) give
        0.01 z^-1 / (1 - 0.99 z^-1); ``zoh`` is the exact unit-gain
        discretization.
        """
        ts = positive_scalar(ts, "reference model ts")
        tau = positive_scalar(tau, "reference model tau")
        if not (math.isfinite(dc_gain) and dc_gain != 0.0):  # 0: Gm is 0
            raise ValueError(f"reference model dc_gain must be finite and nonzero, got {dc_gain}")
        if discretization == "euler":
            pole = 1.0 - ts / tau
        elif discretization == "zoh":
            pole = math.exp(-ts / tau)
        else:
            raise ValueError(f"unknown discretization {discretization!r}")
        b = dc_gain * (1.0 - pole)
        return cls(RationalFilter([0.0, b], [1.0, -pole]))
