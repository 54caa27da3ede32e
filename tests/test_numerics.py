import numpy as np
import pytest

from manifold_ssl.numerics import finite_diff_grad, prng_new, rk4_trajectory


def test_same_seed_same_stream():
    a = prng_new(1, 0).standard_normal(1000)
    b = prng_new(1, 0).standard_normal(1000)
    np.testing.assert_array_equal(a, b)


def test_streams_differ():
    a = prng_new(1, 0).standard_normal(10)
    b = prng_new(1, 1).standard_normal(10)
    assert not np.array_equal(a, b)


def test_seeds_differ():
    a = prng_new(1, 0).standard_normal(10)
    b = prng_new(2, 0).standard_normal(10)
    assert not np.array_equal(a, b)


def test_finite_diff_quadratic_exact():
    grad = finite_diff_grad(lambda t: float(t @ t), np.array([3.0]), h=1e-4)
    assert abs(grad[0] - 6.0) < 1e-7


def test_finite_diff_constant_zero():
    grad = finite_diff_grad(lambda t: 5.0, np.array([1.0, -2.0, 0.5]), h=1e-4)
    np.testing.assert_array_equal(grad, np.zeros(3))


def test_finite_diff_sine():
    grad = finite_diff_grad(lambda t: float(np.sin(t[0])), np.array([0.0]), h=1e-5)
    assert abs(grad[0] - 1.0) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_finite_diff_random_quadratic(seed):
    rng = prng_new(seed, 0)
    n = 6
    A = rng.standard_normal((n, n))
    A = A + A.T
    b = rng.standard_normal(n)
    theta = rng.standard_normal(n)
    grad = finite_diff_grad(lambda t: float(0.5 * t @ A @ t + b @ t), theta, h=1e-4)
    exact = A @ theta + b
    assert np.linalg.norm(grad - exact) / np.linalg.norm(exact) < 1e-10


def test_finite_diff_rejects_non_finite():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: float("inf"), np.array([1.0]), h=1e-4)


def test_rk4_single_step_matches_exponential():
    states = rk4_trajectory(lambda x: -x, np.array([1.0]), dt=0.1, horizon=0.1)
    assert abs(states[-1, 0] - np.exp(-0.1)) < 2e-7


def test_rk4_zero_field_constant():
    theta0 = np.array([1.0, -2.0])
    states = rk4_trajectory(lambda x: np.zeros_like(x), theta0, 0.1, 1.0)
    assert states.shape == (11, 2)
    np.testing.assert_array_equal(states, np.tile(theta0, (11, 1)))


def test_rk4_fourth_order_convergence():
    errs = []
    for dt in (0.1, 0.05, 0.025):
        states = rk4_trajectory(lambda x: -x, np.array([1.0]), dt, 1.0)
        errs.append(abs(states[-1, 0] - np.exp(-1.0)))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 >= 3.8 and order2 >= 3.8
    assert errs[0] / errs[1] >= 14  # roughly 16x per halving


def test_rk4_reports_blow_up_time():
    with pytest.raises(ValueError, match="non-finite state at t="), \
            np.errstate(over="ignore"):  # the overflow is what is reported
        rk4_trajectory(lambda x: x ** 3, np.array([10.0]), 0.5, 10.0)


def test_rk4_rejects_bad_steps():
    with pytest.raises(ValueError):
        rk4_trajectory(lambda x: -x, np.array([1.0]), -0.1, 1.0)
    with pytest.raises(ValueError):
        rk4_trajectory(lambda x: -x, np.array([1.0]), 0.5, 0.1)
