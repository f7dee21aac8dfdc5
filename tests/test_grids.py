import math
import re

import numpy as np
import pytest

from seeds_sde import DegenerateGridError, Edm, VpLinear, edm_grid, linear_lambda_grid
from seeds_sde.errors import ConfigError, GridError
from seeds_sde.grids import StepGrid


def test_edm_grid_endpoints_exact():
    sched = Edm(sigma_data=0.5)
    grid = edm_grid(18, 0.002, 80.0, 7.0, sched)
    assert grid.times[0] == 80.0
    assert grid.times[17] == 0.002
    assert grid.times[18] == 0.0


def test_edm_grid_m2():
    grid = edm_grid(2, 0.002, 80.0, 7.0, Edm())
    assert np.allclose(grid.times, [80.0, 0.002, 0.0])


def test_edm_grid_interior_matches_display_formula():
    m, smin, smax, rho = 4, 0.002, 80.0, 7.0
    grid = edm_grid(m, smin, smax, rho, Edm())
    for i in range(m):
        sig = (smax ** (1 / rho) + i / (m - 1) * (smin ** (1 / rho) - smax ** (1 / rho))) ** rho
        assert grid.times[i] == pytest.approx(sig, rel=1e-12)


def test_edm_grid_on_vp_inverts_through_schedule():
    sched = VpLinear()
    smax = sched.alpha_sigma(sched.t_max)[1]
    grid = edm_grid(6, 0.01, smax, 7.0, sched)
    for i in range(6):
        sig = sched.alpha_sigma(float(grid.times[i]))[1]
        want = (smax ** (1 / 7) + i / 5 * (0.01 ** (1 / 7) - smax ** (1 / 7))) ** 7
        assert sig == pytest.approx(want, rel=1e-9)


def test_degenerate_grid_names_indices():
    # a sigma range below float resolution collapses consecutive nodes
    sched = Edm()
    with pytest.raises(DegenerateGridError) as err:
        edm_grid(64, 1.0, 1.0 + 1e-14, 7.0, sched)
    assert "t_" in str(err.value)


def test_grid_validation_errors():
    with pytest.raises(ConfigError):
        edm_grid(1, 0.002, 80.0, 7.0, Edm())
    with pytest.raises(ConfigError):
        edm_grid(8, 80.0, 0.002, 7.0, Edm())
    with pytest.raises(ConfigError):
        edm_grid(8, 0.002, 80.0, -1.0, Edm())
    with pytest.raises(GridError):
        StepGrid(times=np.array([1.0, 2.0, 0.0]))
    with pytest.raises(GridError):
        StepGrid(times=np.array([1.0, 0.5]))
    with pytest.raises(GridError, match="grid times must be nonnegative"):
        StepGrid([1.0, 0.5, -0.1])
    for times in ([1.0, 0.5, math.nan], [1.0, math.nan, 0.5, 0.0], [math.inf, 0.5, 0.1, 0.0]):
        with pytest.raises(GridError, match="grid times must be finite"):
            StepGrid(times)
    for steps in (3.5, True, "8"):
        with pytest.raises(ConfigError, match=f"edm grid n_steps must be an integer, got "
                                              f"{re.escape(repr(steps))}"):
            edm_grid(steps, 0.002, 80.0, 7.0, Edm())
        with pytest.raises(ConfigError, match=f"linear-lambda grid n_steps must be an integer, "
                                              f"got {re.escape(repr(steps))}"):
            linear_lambda_grid(steps, 1e-4, 1.0, VpLinear())


def test_linear_lambda_uniform_spacing():
    sched = VpLinear()
    grid = linear_lambda_grid(10, 1e-4, 1.0, sched)
    widths = grid.step_widths(sched)
    lam_span = sched.lambda_of_t(1e-4) - sched.lambda_of_t(1.0)
    assert np.allclose(widths, lam_span / 10.0, rtol=1e-12)
    assert grid.times[0] == 1.0 and grid.times[-1] == 1e-4


def test_linear_lambda_midpoint_from_closed_form():
    sched = VpLinear(beta_d=19.9, beta_m=0.1)
    grid = linear_lambda_grid(10, 1e-4, 1.0, sched)
    lam0, lam1 = sched.lambda_of_t(1.0), sched.lambda_of_t(1e-4)
    lam_mid = lam0 + 0.5 * (lam1 - lam0)
    assert grid.times[5] == pytest.approx(sched.t_of_lambda(lam_mid), rel=1e-12)


def test_positive_step_widths_both_variants():
    sched = Edm(sigma_data=0.5)
    grid = edm_grid(20, 0.002, 80.0, 7.0, sched)
    for variant in ("sde", "ode"):
        assert np.all(grid.step_widths(sched, variant) > 0.0)
    vp = VpLinear()
    lgrid = linear_lambda_grid(20, vp.t_min, vp.t_max, vp)
    assert np.all(lgrid.step_widths(vp) > 0.0)


def test_monotone_sigma_along_grid():
    sched = Edm()
    grid = edm_grid(12, 0.002, 80.0, 7.0, sched)
    sigmas = [sched.alpha_sigma(float(t))[1] for t in grid.times[:-1]]
    assert np.all(np.diff(sigmas) < 0.0)
