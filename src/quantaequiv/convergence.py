"""Convergence tables shared by both halves, in plain floats: no numpy.

A convergence study runs a defect function along a decreasing schedule of
hbar values and fits the log-log slope of each defect, the order at which
it vanishes.  The exact half (weyl-sdq) and the grid half (rieffel-sdq)
both read their orders from it, so it lives apart from the grid kernels:
a process that runs only exact suites never loads numpy.  GridError, the
root of the grid guards, lives here too, since the study raises it.
"""

import math


class GridError(ValueError):
    """Bad grid parameters or incompatible operands."""


_SATURATION_FLOOR = 1e-12  # a defect below this leaves no slope to fit


def _centred_logs(hs):
    """(x, sum(x x)) with x = log h less its mean: the abscissae of the fit,
    or a GridError when log h takes one float value at every entry, as it
    does for consecutive floats near 1e300.  validate_config reads it too."""
    logh = [math.log(h) for h in hs]
    mean_h = sum(logh) / len(logh)
    xs = [x - mean_h for x in logh]
    spread = sum(x * x for x in xs)
    if spread == 0.0:
        raise GridError("log h takes one value at every schedule entry: no slope to fit")
    return xs, spread


def loglog_fit(hs, ds):
    """Least-squares line through (log h, log d): (slope, rms residual).

    The closed form of the two-parameter fit, over centred sums: slope
    sum(x y) / sum(x x) with x = log h and y = log d less their means.
    """
    xs, spread = _centred_logs(hs)
    logd = [math.log(d) for d in ds]
    count = len(logd)
    mean_d = sum(logd) / count
    ys = [y - mean_d for y in logd]
    slope = sum(x * y for x, y in zip(xs, ys)) / spread
    residual = math.sqrt(sum((y - slope * x) ** 2 for x, y in zip(xs, ys)) / count)
    return slope, residual


def convergence_study(defect_fn, f, g, schedule):
    """Defect tables along a decreasing schedule with log-log slope fits.

    The schedule is read once.  Once it is checked, defect_fn(f, g, schedule)
    gets its entries as they are (an exact Fraction stays a Fraction) and
    returns the defects per entry: one sequence each, all of one length.
    Each position of those sequences gives one table, in their order: rows
    of (float(h), defect), the slope and rms residual of the log-log fit,
    and `saturated`, set (with no fit) when a defect falls below the
    saturation floor.
    """
    schedule = tuple(schedule)
    hs = [float(h) for h in schedule]
    if len(hs) < 4:
        raise GridError("schedule needs at least 4 points")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise GridError("schedule must be strictly decreasing")
    defects = [[float(d) for d in row] for row in defect_fn(f, g, schedule)]
    return [_slope_table(list(zip(hs, column))) for column in zip(*defects)]


def _slope_table(rows):
    if any(d < _SATURATION_FLOOR for _, d in rows):
        return {"rows": rows, "slope": None, "residual": None, "saturated": True}
    slope, residual = loglog_fit(*zip(*rows))
    return {"rows": rows, "slope": slope, "residual": residual, "saturated": False}
