import numpy as np
import pytest

from fritpid.controller import PidBasis, PidController, as_gains, pid_filter

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
        out[0] = 9.0
        assert theta[0] == 1.0


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

    @pytest.mark.parametrize("theta", [
        [1.0, 2.0], [1.0, np.nan, 0.0], 5.0,
        # tuples of three floats, as the estimator hands them over
        (1.0, np.nan, 0.0), (np.inf, -np.inf, 0.0), (0.0, 0.0, -np.inf), (1.0, 2.0),
    ])
    def test_gains_setter_validates(self, theta):
        c = PidController([1.0, 0.0, 0.0], TS)
        with pytest.raises(ValueError):
            c.gains = theta
        assert c.gains == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("theta", [(1e308, 1e308, 0.0), (1, 2, 3), np.array([1.0, 2.0, 3.0])])
    def test_gains_setter_stores_finite_floats(self, theta):
        c = PidController([1.0, 0.0, 0.0], TS)
        c.gains = theta
        assert c.gains == tuple(float(g) for g in theta)
        assert all(type(g) is float for g in c.gains)

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
        b = PidBasis(TS)
        assert b.regress([1.0, 0.0, 0.0])[0] == pytest.approx([1.0, TS, 1.0 / TS])

    def test_regress_matches_streamed_control(self):
        rng = np.random.default_rng(21)
        theta = np.array([0.4, 1.3, 0.02])
        x = rng.standard_normal(500)
        c = PidController(theta, TS)
        streamed = np.array([c.step(v) for v in x])
        batch = PidBasis(TS).regress(x) @ theta
        assert np.max(np.abs(streamed - batch)) < 1e-10

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
        with pytest.raises(ValueError):
            PidBasis(0.0)


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
