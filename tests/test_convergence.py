"""The closed-form log-log fit against numpy's least squares, and its refusals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantaequiv.convergence import GridError, convergence_study, loglog_fit
from quantaequiv.harness import _parse_schedule, default_config

# the default schedules of weyl-sdq and rieffel-sdq, as floats
DEFAULT_SCHEDULES = {
    suite: [float(h) for h in _parse_schedule(default_config(suite)["schedule"])]
    for suite in ("weyl-sdq", "rieffel-sdq")
}


def lstsq_loglog_fit(hs, ds):
    """The reference: the same fit as one LAPACK least-squares solve."""
    logh = np.log(np.asarray(hs, dtype=float))
    logd = np.log(np.asarray(ds, dtype=float))
    design = np.stack([logh, np.ones_like(logh)], axis=1)
    coef, *_ = np.linalg.lstsq(design, logd, rcond=None)
    residual = float(np.sqrt(np.mean((logd - design @ coef) ** 2)))
    return float(coef[0]), residual


def exact_fit(hs, ds):
    """The fit of the same float logarithms in rational arithmetic, rounded once."""
    xs, ys = [Fraction(math.log(h)) for h in hs], [Fraction(math.log(d)) for d in ds]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    square = sum((y - mean_y - slope * (x - mean_x)) ** 2 for x, y in zip(xs, ys)) / len(xs)
    return float(slope), math.sqrt(square)


def assert_agrees(hs, ds):
    slope, residual = loglog_fit(hs, ds)
    ref_slope, ref_residual = lstsq_loglog_fit(hs, ds)
    assert math.isclose(slope, ref_slope, rel_tol=1e-13, abs_tol=0.0)
    assert math.isclose(residual, ref_residual, rel_tol=1e-13, abs_tol=0.0)


@settings(max_examples=300, deadline=None)
@given(
    count=st.integers(4, 16),
    start=st.floats(0.05, 1.0),
    ratios=st.lists(st.floats(0.4, 0.8), min_size=15, max_size=15),
    order=st.floats(0.5, 3.0),
    scale=st.floats(1e-3, 10.0),
    wobble=st.lists(st.floats(0.02, 0.3), min_size=16, max_size=16),
)
def test_noisy_power_laws_match_the_reference(count, start, ratios, order, scale, wobble):
    # log d wobbles by 0.02 to 0.3 with alternating signs, which neither the
    # slope nor the intercept absorbs: the residual sits far above round-off
    hs = [start]
    for ratio in ratios[: count - 1]:
        hs.append(hs[-1] * ratio)
    ds = [scale * h**order * math.exp((-1) ** k * e) for k, (h, e) in enumerate(zip(hs, wobble))]
    assert_agrees(hs, ds)


@pytest.mark.parametrize("suite", sorted(DEFAULT_SCHEDULES))
@pytest.mark.parametrize("wobble", [0.02, 0.1, 0.3])
def test_default_schedules_match_the_reference(suite, wobble):
    hs = DEFAULT_SCHEDULES[suite]
    for order in (1.0, 2.0):
        assert_agrees(hs, [h**order * math.exp((-1) ** k * wobble) for k, h in enumerate(hs)])


@pytest.mark.parametrize("suite", sorted(DEFAULT_SCHEDULES))
@pytest.mark.parametrize("sigma", [0.5, 1.3, 2.0])
def test_closed_form_defects_match_the_reference(suite, sigma):
    # weyl-sdq's closed-form defects, orders 1 and 2: their residuals, 8e-5
    # to 2e-3, are differences of logarithms near 1 to 10 and carry about
    # 1e-17 of round-off, so for them the rational fit is the reference (the
    # lstsq residual is up to 6e-12 away from it, the closed form 7e-13)
    hs = DEFAULT_SCHEDULES[suite]
    for defect in (
        lambda h: 2.0 * abs(math.sin(h * sigma / 4.0)),
        lambda h: abs((2.0 / h) * math.sin(h * sigma / 2.0) - sigma),
    ):
        ds = [defect(h) for h in hs]
        slope, residual = loglog_fit(hs, ds)
        assert math.isclose(slope, lstsq_loglog_fit(hs, ds)[0], rel_tol=1e-13, abs_tol=0.0)
        exact_slope, exact_residual = exact_fit(hs, ds)
        assert math.isclose(slope, exact_slope, rel_tol=1e-15, abs_tol=0.0)
        assert math.isclose(residual, exact_residual, rel_tol=2e-12, abs_tol=0.0)


def test_a_power_law_gives_its_order():
    hs = DEFAULT_SCHEDULES["rieffel-sdq"]
    slope, residual = loglog_fit(hs, [0.3 * h**1.7 for h in hs])
    assert slope == pytest.approx(1.7, rel=1e-13)
    assert residual <= 1e-14


def test_a_schedule_whose_logs_do_not_spread_is_refused():
    # four consecutive floats below 1e300 share one float logarithm
    hs = [1e300]
    for _ in range(3):
        hs.append(math.nextafter(hs[-1], 0.0))
    assert len({math.log(h) for h in hs}) == 1
    with pytest.raises(GridError, match="^log h takes one value at every schedule entry"):
        convergence_study(lambda f, g, schedule: [(1.0,) for _ in schedule], None, None, hs)
