import math

import numpy as np
import pytest

from fritpid.adaptive import RegressorGenerator
from fritpid.controller import PidBasis, PidController, as_gains, pid_filter
from fritpid.lti import RationalFilter, ReferenceModel, one_minus

TS = 0.01


class TestGains:
    def test_as_gains_shape(self):
        with pytest.raises(ValueError):
            as_gains([1.0, 2.0])

    def test_as_gains_finite(self):
        with pytest.raises(ValueError):
            as_gains([1.0, np.nan, 0.0])

    def test_as_gains_copies(self):
        theta = np.array([1.0, 2.0, 3.0])
        out = as_gains(theta)
        assert type(out) is tuple and len(out) == 3
        assert all(type(g) is float for g in out)
        theta[0] = 9.0
        assert out == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("theta", [
        [1.0, 2.0], [1.0, np.nan, 0.0], 5.0,
        # tuples of three floats, as the estimator hands them over
        (1.0, np.nan, 0.0), (np.inf, -np.inf, 0.0), (0.0, 0.0, -np.inf), (1.0, 2.0),
    ])
    def test_as_gains_rejects(self, theta):
        with pytest.raises(ValueError):
            as_gains(theta)

    @pytest.mark.parametrize("theta", [(1e308, 1e308, 0.0), (1, 2, 3), np.array([1.0, 2.0, 3.0])])
    def test_as_gains_returns_finite_floats(self, theta):
        gains = as_gains(theta)
        assert gains == tuple(float(g) for g in theta)
        assert all(type(g) is float for g in gains)


class TestPidController:
    def test_pure_proportional(self):
        c = PidController([2.5, 0.0, 0.0], TS)
        for e in (1.0, -0.3, 7.0):
            assert c.step(e) == pytest.approx(2.5 * e)

    def test_pure_integral_accumulates(self):
        c = PidController([0.0, 1.0, 0.0], TS)
        for k in range(5):
            assert c.step(1.0) == pytest.approx(TS * (k + 1))

    def test_pure_derivative_first_difference(self):
        c = PidController([0.0, 0.0, 1.0], TS)
        assert c.step(1.0) == pytest.approx(100.0)
        assert c.step(1.0) == pytest.approx(0.0)

    def test_gain_swap_keeps_integrator_state(self):
        c = PidController([0.0, 1.0, 0.0], TS)
        c.step(1.0)
        c.step(1.0)
        c.gains = [0.0, 2.0, 0.0]
        # integral state survived the retune: 3*ts accumulated, doubled gain
        assert c.step(1.0) == pytest.approx(2.0 * 3 * TS)


class TestBasis:
    def test_zero_stream(self):
        b = PidBasis(TS)
        for _ in range(10):
            assert b.step(0.0) == pytest.approx([0.0, 0.0, 0.0])

    def test_impulse_first_vector(self):
        assert PidBasis(TS).step(1.0) == pytest.approx((1.0, TS, 1.0 / TS))
        assert all(type(v) is float for v in PidBasis(TS).step(1))

    def test_linearity_in_gains(self):
        rng = np.random.default_rng(22)
        e = rng.standard_normal(200)
        ta = np.array([0.3, 0.7, 0.01])
        tb = np.array([-0.1, 0.2, 0.03])
        ua = np.array([PidController(ta, TS).step(v) for v in e])
        ub = np.array([PidController(tb, TS).step(v) for v in e])
        uab = np.array([PidController(ta + tb, TS).step(v) for v in e])
        assert np.max(np.abs(uab - (ua + ub))) < 1e-12 * max(1.0, np.max(np.abs(uab)))

    def test_rejects_nonpositive_ts(self):
        for ts in (0.0, -TS, math.nan, math.inf):
            with pytest.raises(ValueError, match="sampling time"):
                PidBasis(ts)


class TestCombinedFilter:
    def test_pid_filter_equals_parallel_form(self):
        rng = np.random.default_rng(23)
        theta = [0.107, 0.1515, 0.0115]
        e = rng.standard_normal(300)
        c = PidController(theta, TS)
        parallel = np.array([c.step(v) for v in e])
        combined = np.asarray(pid_filter(theta, TS).filter(e))
        assert np.max(np.abs(parallel - combined)) < 1e-9

    def test_constant_coefficient(self):
        kp, ki, kd = 0.2, 0.5, 0.004
        f = pid_filter([kp, ki, kd], TS)
        assert f.num[0] == pytest.approx(kp + ki * TS + kd / TS)


def _reference_basis(ts):
    """beta(z) as the three `RationalFilter` objects PidBasis writes out."""
    return [
        RationalFilter([1.0], [1.0]),
        RationalFilter([ts], [1.0, -1.0]),
        RationalFilter([1.0 / ts, -1.0 / ts], [1.0]),
    ]


def _same_bits(a, b):
    """== that also tells -0.0 from 0.0 and lets NaN match NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# starts from zero state with signed zeros; then tiny, huge (overflowing the
# differencer) and ordinary samples; RESET_AT restarts mid-run, the last time
# before infinite samples turn the delay lines to NaN
EXTREME_INPUTS = [
    -0.0, 0.0, -0.0, -0.0, 1e-300, -1e-300, 0.0, 1e300, -1e300, -0.0, 2.5,
    1e308, -1e308, 0.0, -0.0, 1.0,
] + np.random.default_rng(31).standard_normal(40).tolist() + [
    -0.0, -0.0, 0.0, 1.0, 0.0, -0.0, math.inf, 1.0, -math.inf, 0.0,
]
RESET_AT = (16, 40, 62)


class TestFlattenedBasisBits:
    """PidBasis and its two callers reproduce the RationalFilter basis bit for bit."""

    @pytest.mark.parametrize("ts", [TS, 0.003, 1.0])
    def test_basis(self, ts):
        basis, ref = PidBasis(ts), _reference_basis(ts)
        for k, x in enumerate(EXTREME_INPUTS):
            if k in RESET_AT:
                basis = PidBasis(ts)
                for f in ref:
                    f.reset()
            got = basis.step(x)
            want = [f.step(x) for f in ref]
            assert all(_same_bits(g, w) for g, w in zip(got, want)), (k, x, got, want)

    @pytest.mark.parametrize("gains", [(0.4, 1.3, 0.02), (-0.0, 0.0, -0.0), (1e-300, -2.0, 1e300)])
    def test_controller(self, gains):
        c, ref = PidController(gains, TS), _reference_basis(TS)
        kp, ki, kd = gains
        for k, e in enumerate(EXTREME_INPUTS):
            if k in RESET_AT:
                c = PidController(gains, TS)
                for f in ref:
                    f.reset()
            x, integ, diff = (f.step(e) for f in ref)
            want = kp * x + ki * integ + kd * diff
            got = c.step(e)
            assert _same_bits(got, want), (k, e, got, want)

    @pytest.mark.parametrize("dc_gain", [1.0, 0.95])
    def test_regressor(self, dc_gain):
        gm = ReferenceModel.first_order(TS, dc_gain=dc_gain).filter
        gen = RegressorGenerator(gm, TS)
        complement, on_u, ref = one_minus(gm), RationalFilter(gm.num, gm.den), _reference_basis(TS)
        us = np.random.default_rng(32).standard_normal(len(EXTREME_INPUTS)).tolist()
        for k, (y, u) in enumerate(zip(EXTREME_INPUTS, us)):
            if k in RESET_AT:
                gen = RegressorGenerator(gm, TS)
                for f in (complement, on_u, *ref):
                    f.reset()
            c = complement.step(y)
            want_phi, want_d = [f.step(c) for f in ref], on_u.step(u)
            phi, d = gen.step(y, u)
            assert all(_same_bits(g, w) for g, w in zip(phi, want_phi)), (k, phi, want_phi)
            assert _same_bits(d, want_d), (k, d, want_d)
