import math

import numpy as np
import pytest

from crackfuse import ssm
from crackfuse.gradcheck import grad_check


def make_params(channels, state_dim, seed=0):
    return ssm.init_ssm_params(channels, state_dim, np.random.default_rng(seed))


def test_param_invariants():
    p = make_params(5, 3)
    assert (p.channels, p.state_dim) == (5, 3)  # read from a_log's shape
    a = p.materialized_a()
    assert np.all(a < 0)
    # negated decay rates span [1, N] per channel at init
    np.testing.assert_allclose(-a, np.tile([1.0, 2.0, 3.0], (5, 1)))
    dt0 = np.logaddexp(0, p.dt_b)
    assert np.all(dt0 > 0.009) and np.all(dt0 < 0.11)


def test_project_constant_bias():
    p = make_params(4, 3)
    p.dt_w[:] = 0.0
    x = np.random.default_rng(1).standard_normal((7, 4))
    dt, b_t, c_t = ssm.s6_project(x, p)
    np.testing.assert_allclose(dt, np.tile(np.logaddexp(0, p.dt_b), (7, 1)))
    assert dt.shape == (7, 4) and b_t.shape == (7, 3) and c_t.shape == (7, 3)


def test_project_positive():
    p = make_params(4, 3, seed=2)
    x = 5.0 * np.random.default_rng(3).standard_normal((50, 4))
    dt, _, _ = ssm.s6_project(x, p)
    assert np.all(dt > 0)


def test_discretize_scalar_closed_form():
    a = np.array([[-1.0]])
    dt = np.array([[math.log(2.0)]])
    b_t = np.array([[1.0]])
    pair = ssm.discretize_zoh(a, b_t, dt)
    assert abs(pair.decay[0, 0, 0] - 0.5) < 1e-12
    assert abs(pair.gain[0, 0, 0] - 0.5) < 1e-12


def test_discretize_small_dt_limits():
    a = np.array([[-2.0]])
    dt = np.array([[1e-12]])
    pair = ssm.discretize_zoh(a, np.array([[1.0]]), dt)
    assert abs(pair.decay[0, 0, 0] - 1.0) < 1e-11
    assert abs(pair.gain[0, 0, 0]) < 1e-11


def test_discretize_series_matches_exact_at_threshold():
    # evaluate both branches at |dt*a| = 1e-4 and compare
    a = np.array([[-1.0]])
    dt = np.array([[1e-4]])
    z = dt[..., None] * a
    exact = np.expm1(z) / a
    series = dt[..., None] * (1.0 + z / 2.0 + z * z / 6.0)
    rel = abs(exact - series) / abs(exact)
    assert rel.max() < 1e-10


def test_discretize_rejects_nonpositive_dt():
    with pytest.raises(ValueError, match="positive"):
        ssm.discretize_zoh(np.array([[-1.0]]), np.array([[1.0]]), np.array([[0.0]]))


def test_decay_in_unit_interval():
    p = make_params(3, 4, seed=5)
    x = np.random.default_rng(6).standard_normal((64, 3))
    dt, b_t, _ = ssm.s6_project(x, p)
    pair = ssm.discretize_zoh(p.materialized_a(), b_t, dt)
    assert np.all(pair.decay > 0) and np.all(pair.decay < 1)


def test_recurrence_hand_example():
    # fixed decay 0.5, unit gains: impulse response halves each step
    a = np.full((4, 1, 1, 1), 0.5)
    u = np.zeros((4, 1, 1, 1))
    u[0] = 1.0
    h_seq = ssm.linear_recurrence_seq(a, u)
    np.testing.assert_allclose(h_seq.ravel(), [1.0, 0.5, 0.25, 0.125])
    h_par = ssm.linear_recurrence_par(a, u)
    np.testing.assert_allclose(h_par, h_seq)


def test_recurrence_seq_matches_step_loop():
    rng = np.random.default_rng(25)
    a = rng.uniform(0.0, 1.0, size=(50, 3, 2))
    u = rng.standard_normal((50, 3, 2))
    want = np.empty_like(u)
    h = np.zeros_like(u[0])
    for k in range(50):
        h = a[k] * h + u[k]
        want[k] = h
    np.testing.assert_array_equal(ssm.linear_recurrence_seq(a, u), want)


def test_scan_zero_input_zero_output():
    p = make_params(3, 2)
    y, _ = ssm.selective_scan_seq(np.zeros((1, 9, 3)), p)
    np.testing.assert_array_equal(y, np.zeros((1, 9, 3)))


def test_scan_pure_skip_path():
    p = make_params(3, 2, seed=8)
    p.b_w[:] = 0.0  # kills the state path
    p.skip[:] = 1.0
    x = np.random.default_rng(9).standard_normal((1, 11, 3))
    y, _ = ssm.selective_scan_seq(x, p)
    np.testing.assert_allclose(y, x, atol=1e-12)


def test_scan_empty_sequence():
    p = make_params(2, 2)
    y, vjp = ssm.selective_scan_seq(np.zeros((1, 0, 2)), p)
    assert y.shape == (1, 0, 2)
    dx, dp = vjp(np.zeros((1, 0, 2)))
    assert dx.shape == (1, 0, 2)
    assert np.all(dp.a_log == 0)


def test_par_matches_seq_many_lengths():
    rng = np.random.default_rng(10)
    for trial in range(30):
        L = int(rng.integers(1, 1026))
        c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        p = make_params(c, n, seed=trial)
        x = rng.standard_normal((1, L, c))
        ys, _ = ssm.selective_scan_seq(x, p)
        yp, _ = ssm.selective_scan_par(x, p)
        denom = np.maximum(np.abs(ys), 1e-300)
        assert np.max(np.abs(ys - yp) / np.maximum(denom, 1.0)) < 1e-10


def test_single_step_closed_form():
    p = make_params(2, 3, seed=11)
    x = np.random.default_rng(12).standard_normal((1, 1, 2))
    dt, b_t, c_t = ssm.s6_project(x, p)
    pair = ssm.discretize_zoh(p.materialized_a(), b_t, dt)
    h1 = pair.gain[0, 0] * x[0, 0][:, None]
    expect = h1 @ c_t[0, 0] + p.skip * x[0, 0]
    y, _ = ssm.selective_scan_par(x, p)
    np.testing.assert_allclose(y[0, 0], expect, rtol=1e-12)


def test_batched_matches_loop():
    p = make_params(3, 2, seed=13)
    rng = np.random.default_rng(14)
    xb = rng.standard_normal((4, 17, 3))
    yb, _ = ssm.selective_scan_par(xb, p)
    for b in range(4):
        y1, _ = ssm.selective_scan_par(xb[b:b + 1], p)
        np.testing.assert_allclose(yb[b:b + 1], y1, rtol=1e-12, atol=1e-14)


def test_bounded_state_property():
    p = make_params(2, 3, seed=15)
    rng = np.random.default_rng(16)
    x = rng.uniform(-1, 1, size=(256, 2))
    dt, b_t, _ = ssm.s6_project(x, p)
    pair = ssm.discretize_zoh(p.materialized_a(), b_t, dt)
    u = pair.gain * x[:, :, None]
    h = ssm.linear_recurrence_seq(pair.decay, u)
    bound = np.max(np.abs(u)) / (1.0 - pair.decay.max())
    assert np.max(np.abs(h)) <= bound + 1e-9


def test_channel_permutation_equivariance():
    c, n = 4, 3
    p = make_params(c, n, seed=17)
    rng = np.random.default_rng(18)
    x = rng.standard_normal((1, 20, c))
    perm = rng.permutation(c)
    pp = ssm.SsmParams(
        a_log=p.a_log[perm], skip=p.skip[perm],
        dt_w=p.dt_w[np.ix_(perm, perm)], dt_b=p.dt_b[perm],
        b_w=p.b_w[perm], c_w=p.c_w[perm],
    )
    y, _ = ssm.selective_scan_par(x, p)
    y2, _ = ssm.selective_scan_par(x[..., perm], pp)
    np.testing.assert_allclose(y2, y[..., perm], rtol=1e-12, atol=1e-14)


def test_vjp_zero_upstream():
    p = make_params(2, 2, seed=19)
    x = np.random.default_rng(20).standard_normal((1, 6, 2))
    dx, dp = ssm.selective_scan_par(x, p)[1](np.zeros((1, 6, 2)))
    assert np.all(dx == 0)
    for arr in (dp.a_log, dp.skip, dp.dt_w, dp.dt_b, dp.b_w, dp.c_w):
        assert np.all(arr == 0)


def test_vjp_skip_gradient_closed_form():
    p = make_params(3, 2, seed=21)
    rng = np.random.default_rng(22)
    x = rng.standard_normal((1, 10, 3))
    up = rng.standard_normal((1, 10, 3))
    _, dp = ssm.selective_scan_par(x, p)[1](up)
    np.testing.assert_allclose(dp.skip, (up * x).sum(axis=(0, 1)), rtol=1e-12)


def _scan_gradcheck(scan_fn, tol):
    rng = np.random.default_rng(23)
    L, c, n = 16, 3, 4
    x = rng.standard_normal((1, L, c)) * 0.5
    p = make_params(c, n, seed=24)
    return grad_check(scan_fn, [x, p], tol=tol, name=scan_fn.__name__)


def test_scan_gradcheck_seq():
    rep = _scan_gradcheck(ssm.selective_scan_seq, 1e-4)
    assert rep.passed, str(rep)


def test_scan_gradcheck_par():
    rep = _scan_gradcheck(ssm.selective_scan_par, 1e-4)
    assert rep.passed, str(rep)
