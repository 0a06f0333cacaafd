"""The order-8 Runge-Kutta solver: its tableau, convergence, stop
condition, dense output and failure path."""

import numpy as np
import pytest

from holocurve import _dop853 as tab
from holocurve._ode import solve_ivp
from holocurve.errors import NumericalError


def test_tableau_order_conditions():
    b, c = tab.B, tab.C[:12]
    assert abs(b.sum() - 1.0) < 1e-15
    for k in range(1, 9):                   # quadrature order 8
        assert abs(np.sum(b * c ** (k - 1)) - 1.0 / k) < 1e-15, k
    assert np.max(np.abs(tab.A.sum(axis=1) - tab.C)) < 2e-15
    assert abs(tab.E5.sum()) < 1e-15 and abs(tab.E3.sum()) < 1e-15
    assert np.all(np.triu(tab.A) == 0.0)    # explicit


def _oscillator(t, y):
    return [y[1], -y[0]]


@pytest.mark.parametrize("fun,y0,t_end,exact", [
    (lambda t, y: -y, [1.0], 10.0, lambda t: [np.exp(-t)]),
    (_oscillator, [1.0, 0.0], 20.0, lambda t: [np.cos(t), -np.sin(t)]),
], ids=["decay", "oscillator"])
def test_convergence(fun, y0, t_end, exact):
    tols = 10.0 ** -np.arange(5, 14)
    errs, steps = [], []
    for tol in tols:
        sol = solve_ivp(fun, (0.0, t_end), y0, rtol=tol, atol=1e-3 * tol)
        assert not sol.stopped and sol.t[-1] == t_end
        errs.append(np.max(np.abs(sol.y[:, -1] - exact(t_end))))
        steps.append(len(sol.t) - 1)
    assert np.all(np.array(errs) < 20.0 * tols)
    assert np.all(np.diff(errs) < 0.0)
    # Over these 8 decades the step count of an order-8 pair grows like
    # tol^(-1/8), about 10 times; an order-5 pair's would grow about 40.
    assert steps[-1] < 10.0 * steps[0]


@pytest.mark.parametrize("stop,root", [
    (lambda t, y: np.cos(t), np.pi / 2),
    (lambda t, y: np.cos(t / 3), 3 * np.pi / 2),
], ids=["cos-t", "cos-t/3"])
def test_stop_ends_the_solve_at_the_first_step_past_the_root(stop, root):
    # The stop condition reads only t; the solve ends at the first step end
    # where it reads <= 0.
    sol = solve_ivp(lambda t, y: -y, (0.0, 10.0), [1.0], rtol=1e-12,
                    atol=1e-14, stop=stop)
    assert sol.stopped
    assert sol.t[-2] < root <= sol.t[-1] < 10.0
    assert abs(sol.y[0, -1] - np.exp(-sol.t[-1])) < 1e-12


def test_event_on_the_solution():
    # The oscillator's first component cos t: the stop condition reads the
    # solution, which falls through 0 at pi/2.
    sol = solve_ivp(_oscillator, (0.0, 10.0), [1.0, 0.0], rtol=1e-12,
                    atol=1e-14, stop=lambda t, y: y[0])
    assert sol.stopped
    assert sol.t[-2] < np.pi / 2 <= sol.t[-1]
    assert sol.y[0, -2] > 0.0 >= sol.y[0, -1]
    assert abs(sol.y[0, -1] - np.cos(sol.t[-1])) < 1e-12


def test_unmet_stop_runs_to_the_end():
    sol = solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], rtol=1e-10,
                    atol=1e-12, stop=lambda t, y: y[0])
    assert not sol.stopped and sol.t[-1] == 1.0 and sol.sol is None


def test_dense_output_is_continuous_and_vectorized():
    sol = solve_ivp(_oscillator, (0.0, 20.0), [1.0, 0.0], rtol=1e-12,
                    atol=1e-14, dense_output=True)
    nodes = sol.t[1:-1]
    left = sol.sol(nodes)                        # a node ends its step
    right = sol.sol(np.nextafter(nodes, np.inf))
    assert np.max(np.abs(left - right)) < 1e-14
    assert np.max(np.abs(left - sol.y[:, 1:-1])) < 1e-15
    ts = np.linspace(0.0, 20.0, 997)
    grid = sol.sol(ts)
    assert grid.shape == (2, ts.size)
    assert np.array_equal(grid, np.array([sol.sol(t) for t in ts]).T)
    assert np.max(np.abs(grid - [np.cos(ts), -np.sin(ts)])) < 1e-11


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fun", [
    lambda t, y: [np.nan],                      # NaN from the start
    lambda t, y: y if t < 0.5 else [np.inf],    # inf later on
    lambda t, y: y * y,                         # blow-up at t = 1
], ids=["nan", "inf", "blow-up"])
def test_failure_ends_the_solve(fun):
    with pytest.raises(NumericalError, match=r"step size below 10 ulp at "
                       r"t = \S+ on \[0\.0, 2\.0\]$"):
        solve_ivp(fun, (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-12)
