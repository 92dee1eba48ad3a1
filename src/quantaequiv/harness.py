"""Suite runner: seeded check batteries, JSON reports, numeric tables.

Six suites cover both sides of the build: exact algebra and functor laws on
the character side, numeric defect and morphism batteries on the grid side.
Every check is deterministic given the config seed; reports differ between
identical runs only in their timestamp field.
"""

import contextlib
import copy
import datetime
import json
import math
import os
import platform
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from .convergence import GridError, _centred_logs, convergence_study
from .weyl_algebra import (
    CoeffExpr,
    evaluate_at,
    involution,
    multiply,
    poisson_bracket,
    weyl_from_json,
    weyl_generator,
    weyl_to_json,
    weyl_unit,
)
from .symplectic import symplectic_form
from .weyl_functors import (
    classical_limit_morphism,
    dirac_defect,
    k0_membership,
    quantize_morphism,
    rieffel_condition_check,
    von_neumann_defect,
)
from .weyl_equivalence import (
    classical_category,
    limit_functor,
    quantization_functor,
    quantize_arrow_pool,
    quantum_category,
    sample_classical_arrows,
    unit_transformation,
    counit_transformation,
)
from .category import check_category_laws, check_functor_laws, check_equivalence
from .sampling import (
    make_rng,
    random_coeff,
    random_element,
    random_label,
    random_space_pool,
)

SCHEMA_VERSION = 2

# The grid builders import the grid half when they are called, so a process
# that runs only exact suites never loads numpy.  A grid name read from
# harness (harness.moyal_product) resolves as the package's grid names do,
# to rieffel's binding at that moment: a traced run's wrapper, for one.
def __getattr__(name):
    from . import _GRID_NAMES

    if name not in _GRID_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import rieffel

    return getattr(rieffel, name)


# --- check plumbing -----------------------------------------------------------


def _record(check_id, passed, value=None, tolerance=None, witness=None, saturated=False):
    status = "saturated" if saturated else ("pass" if passed else "fail")
    rec = {"id": check_id, "status": status}
    if value is not None:
        rec["value"] = value
    if tolerance is not None:
        rec["tolerance"] = tolerance
    if witness is not None:
        rec["witness"] = witness
    if status == "fail" and witness is None:
        rec["witness"] = {"detail": "no extra context"}
    return rec


def _tally(check_id, failures):
    """The tolerance-0 count record: one witness per failure, the first one kept."""
    witnesses = list(failures)
    return _record(check_id, not witnesses, value=len(witnesses), tolerance=0,
                   witness=witnesses[0] if witnesses else None)


def _worker_count():
    raw = os.environ.get("QUANTAEQUIV_THREADS", "")
    if not raw.strip():
        return min(4, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError("QUANTAEQUIV_THREADS must be a positive integer, got %r" % raw)
    return n


def _openblas_threads():
    """The (get, set) thread-count functions of the 64-bit-int scipy-openblas
    that numpy wheels bundle, or None when there is no such library or
    symbol.  Looked up per run, not at import: only a suite run needs them."""
    import ctypes
    import glob

    from .rieffel import np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(libs, "libscipy_openblas*.so"))
    if not paths:
        return None
    lib = ctypes.CDLL(paths[0])
    try:
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def _one_blas_thread():
    # the pool's workers own the CPUs: a second BLAS thread per call only
    # spins beside them, and a threaded zgemm or eigh can round differently
    # (n = 129, 513), so every run's reports are one-thread bits.
    # Process-global, so suite runs must not overlap.
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _run_checks(checks, workers, grid=True):
    # only the grid checks call BLAS: an exact run leaves numpy unloaded
    blas = _one_blas_thread() if grid else contextlib.nullcontext()
    with blas, ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda fn: fn(), checks))
    return sorted((rec for records in results for rec in records), key=lambda rec: rec["id"])


def _environment_stamp(grid):
    stamp = {
        "platform": sys.platform,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    if grid:  # the exact suites run no numpy code, so their stamp names none
        from .rieffel import np

        stamp["numpy"] = np.__version__
    return stamp


# --- weyl-laws ----------------------------------------------------------------


def _laws_tuples(seed, tag, count, width, max_terms=4):
    """Same-space element tuples: products need one shared space per tuple."""
    rng = make_rng(seed, "weyl-laws", tag)
    spaces = random_space_pool(rng, 4, dims=(2, 4))
    for i in range(count):
        space = spaces[i % len(spaces)]
        yield tuple(
            random_element(rng, space, max_terms=max_terms) for _ in range(width)
        )


def _suite_weyl_laws(config):
    seed = config["seed"]
    count = config["sample_count"]

    def tuples(tag, n, width):
        return enumerate(_laws_tuples(seed, tag, n, width))

    def poisson_axioms():
        anti = jacobi = leibniz = 0
        triple_count = max(500, count // 2)
        for raw in _laws_tuples(seed, "poisson", triple_count, 3, max_terms=2):
            a, b, c = (evaluate_at(el, 0) for el in raw)
            ab = poisson_bracket(a, b)
            if ab != poisson_bracket(b, a).scale_coeff(CoeffExpr.gaussian(-1)):
                anti += 1
            cyc = (
                poisson_bracket(a, poisson_bracket(b, c))
                + poisson_bracket(b, poisson_bracket(c, a))
                + poisson_bracket(c, ab)
            )
            if cyc != cyc - cyc:
                jacobi += 1
            if poisson_bracket(a, multiply(b, c)) != (
                multiply(ab, c) + multiply(b, poisson_bracket(a, c))
            ):
                leibniz += 1
        total_bad = anti + jacobi + leibniz
        return _record(
            "law-05-poisson-axioms",
            total_bad == 0,
            value=total_bad,
            tolerance=0,
            witness={"antisymmetry": anti, "jacobi": jacobi, "leibniz": leibniz},
        )

    def laws():
        units = ((i, a, weyl_unit(a.space, a.hbar)) for i, (a,) in tuples("unit", count, 1))
        fibers = (
            (i, evaluate_at(a, 0), evaluate_at(b, 0))
            for i, (a, b) in tuples("commute", count // 2 + 1, 2)
        )
        return [
            _tally("law-01-associativity", (
                {"index": i} for i, (a, b, c) in tuples("assoc", count // 3 + 1, 3)
                if multiply(multiply(a, b), c) != multiply(a, multiply(b, c))
            )),
            _tally("law-02-unit", (
                {"index": i} for i, a, one in units
                if multiply(one, a) != a or multiply(a, one) != a
            )),
            _tally("law-03-involution", (
                {"index": i, "law": law}
                for i, (a, b) in tuples("star", count // 2 + 1, 2)
                for law, holds in (
                    ("anti-multiplicative",
                     involution(multiply(a, b)) == multiply(involution(b), involution(a))),
                    ("involutive", involution(involution(a)) == a),
                )
                if not holds
            )),
            _tally("law-04-zero-fiber-commutative", (
                {"index": i} for i, a0, b0 in fibers if multiply(a0, b0) != multiply(b0, a0)
            )),
            poisson_axioms(),
            _tally("law-06-serialization", (
                {"index": i} for i, (a,) in tuples("json", 100, 1)
                if weyl_from_json(weyl_to_json(a)) != a
            )),
        ]

    # one task: the exact checks hold the GIL, and a thread pool ran them slower
    return [laws]


# --- weyl-sdq -----------------------------------------------------------------


def _normalized_generator_pairs(seed, count):
    """Generator pairs with |sigma| scaled into [1/2, 2]."""
    rng = make_rng(seed, "weyl-sdq", "pairs")
    spaces = random_space_pool(rng, 4, dims=(2, 4))
    pairs = []
    while len(pairs) < count:
        space = spaces[len(pairs) % len(spaces)]
        f = random_label(rng, space)
        g = random_label(rng, space)
        sigma = symplectic_form(space, f, g)
        if sigma == 0:
            continue
        while abs(sigma) > 2:
            f = tuple(x / 2 for x in f)
            sigma = sigma / 2
        while abs(sigma) < Fraction(1, 2):
            f = tuple(x * 2 for x in f)
            sigma = sigma * 2
        pairs.append((space, f, g, sigma))
    return pairs


def _suite_weyl_sdq(config):
    seed = config["seed"]
    count = config["sample_count"]
    schedule = _parse_schedule(config["schedule"])

    def closed_forms():
        studies = []
        for space, f, g, sigma in _normalized_generator_pairs(seed, count):
            # the entries reach the defects as they are: exact fibers stay Fractions
            tables = convergence_study(
                lambda a, b, hs: [
                    (von_neumann_defect(space, a, b, h), dirac_defect(space, a, b, h)) for h in hs
                ],
                f, g, schedule,
            )
            studies.append((float(sigma), tables))
        kinds = (
            ("sdq-01-von-neumann-closed-form", "sdq-03-von-neumann-order", 1.0,
             lambda h, s: 2.0 * abs(math.sin(h * s / 4.0))),
            ("sdq-02-dirac-closed-form", "sdq-04-dirac-order", 2.0,
             lambda h, s: abs((2.0 / h) * math.sin(h * s / 2.0) - s)),
        )
        records = []
        for k, (form_id, order_id, target, closed_form) in enumerate(kinds):
            per_pair = [(s, tables[k]) for s, tables in studies]
            error = max(abs(d - closed_form(h, s)) for s, t in per_pair for h, d in t["rows"])
            envelope = [[h, max(t["rows"][i][1] for _, t in per_pair)]
                        for i, (h, _) in enumerate(per_pair[0][1]["rows"])]
            records.append(_record(form_id, error <= 1e-12, value=error, tolerance=1e-12,
                                   witness={"rows": envelope}))
            saturated = any(t["saturated"] for _, t in per_pair)
            dev = None if saturated else max(abs(t["slope"] - target) for _, t in per_pair)
            records.append(_record(order_id, not saturated and dev <= 0.05, value=dev,
                                   tolerance=0.05, saturated=saturated))
        return records

    def k0_disagreements():
        rng = make_rng(seed, "weyl-sdq", "k0")
        spaces = random_space_pool(rng, 4, dims=(2, 4))
        vanishing_factor = CoeffExpr.phase(0, Fraction(1, 1)) - CoeffExpr.one()
        for i in range(count):
            space = spaces[i % len(spaces)]
            section = random_element(rng, space)
            if i % 2 == 0:
                section = section.scale_coeff(vanishing_factor)
            claimed = k0_membership(section)
            measured = all(
                _limit_magnitude(c) < 1e-9 for c in section.coeffs()
            )
            if claimed != measured:
                yield {"index": i, "claimed": claimed, "measured": measured}

    def rieffel_failures():
        rng = make_rng(seed, "weyl-sdq", "rieffel")
        spaces = random_space_pool(rng, 4, dims=(2, 4))
        for i in range(50):
            space = spaces[i % len(spaces)]
            base = evaluate_at(weyl_generator(space, random_label(rng, space)), 0)
            coeff = random_coeff(rng, with_parameter=False)
            if not rieffel_condition_check(base.scale_coeff(coeff), schedule):
                yield {"index": i}

    return [
        closed_forms,
        lambda: [_tally("sdq-05-k0-brute-force", k0_disagreements())],
        lambda: [_tally("sdq-06-rieffel-constancy", rieffel_failures())],
    ]


def _limit_magnitude(coeff):
    """|coeff(0)| by Richardson extrapolation down a dyadic schedule."""
    values = [coeff.value_at(2.0**-k) for k in range(21)]
    first = [2 * b - a for a, b in zip(values, values[1:])]
    second = [(4 * b - a) / 3 for a, b in zip(first, first[1:])]
    return abs(second[-1])


# --- equivalence-weyl ---------------------------------------------------------


def _suite_equivalence_weyl(config):
    seed = config["seed"]
    count = max(config["sample_count"], 100)
    max_pairs = config["max_pairs"]

    def run_battery():
        arrows = sample_classical_arrows(seed, count)
        quantized = quantize_arrow_pool(arrows)
        reports = (
            ("eq-01-classical-category",
             check_category_laws(classical_category(), arrows, max_pairs)),
            ("eq-02-quantum-category",
             check_category_laws(quantum_category(), quantized, max_pairs)),
            ("eq-03-quantization-functor",
             check_functor_laws(quantization_functor(), arrows, max_pairs)),
            ("eq-04-limit-functor",
             check_functor_laws(limit_functor(), quantized, max_pairs)),
            ("eq-05-naturality-invertibility",
             check_equivalence(quantization_functor(), limit_functor(), unit_transformation(),
                               counit_transformation(), arrows, quantized)),
        )
        checks = [
            _tally(check_id, ({"law": e["law"], "sample_id": str(e["sample_id"])}
                              for e in report))
            for check_id, report in reports
        ]
        round_trips = (
            (arrows, quantize_morphism, classical_limit_morphism),
            (quantized, classical_limit_morphism, quantize_morphism),
        )
        checks.append(_tally("eq-06-arrow-round-trips", (
            {"arrow": record.arrow_id}
            for pool, there, back in round_trips
            for record in pool
            if back(there(record.payload)) != record.payload
        )))
        return checks

    return [run_battery]


# --- rieffel-sdq ----------------------------------------------------------------


def _grid(config):
    from .rieffel import Grid2n

    return Grid2n(1, config["grid_points"], config["grid_extent"])


GAUSSIAN_PAIRS = (
    (((0.8, 0.0), 0.5), ((-0.5, 0.4), 1.0 / 3.0)),
    (((0.5, 0.0), 1.0), ((-0.4, 0.3), 1.0)),
    (((0.0, 0.7), 0.8), ((0.6, -0.2), 0.6)),
)


def _suite_rieffel_sdq(config):
    from .rieffel import (
        GridFunction,
        gaussian_star_closed_form,
        moyal_product,
        moyal_quadrature_oracle,
        np,
        star_defects,
    )

    grid = _grid(config)
    hbar = config["hbar"]
    schedule = tuple(float(v) for v in _parse_schedule(config["schedule"]))

    def closed_form_check():
        a, b = 0.5, 1.0 / 3.0
        f = GridFunction.gaussian(grid, (0.0, 0.0), a)
        g = GridFunction.gaussian(grid, (0.0, 0.0), b)
        got = moyal_product(f, g, hbar)
        amp, decay = gaussian_star_closed_form(a, b, hbar)
        ref = GridFunction.gaussian(grid, (0.0, 0.0), decay, amplitude=amp)
        value = float(np.abs(got.samples - ref.samples).max()) / ref.sup_norm()
        return [_record("rsdq-01-closed-form", value <= 1e-6, value=value, tolerance=1e-6)]

    def oracle_check():
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[0]
        f = GridFunction.gaussian(grid, c1, a)
        g = GridFunction.gaussian(grid, c2, b)
        product = moyal_product(f, g, hbar)
        ax = grid.axis_coordinates()
        mid = len(ax) // 2
        idx = [(mid + i, mid + j) for i, j in ((0, 0), (7, -5), (-13, 11), (17, 3), (-6, -16))]
        pts = [(float(ax[i]), float(ax[j])) for i, j in idx]
        oracle = moyal_quadrature_oracle(
            (lambda x: np.exp(-a * (x - c1[0]) ** 2), lambda p: np.exp(-a * (p - c1[1]) ** 2)),
            (lambda x: np.exp(-b * (x - c2[0]) ** 2), lambda p: np.exp(-b * (p - c2[1]) ** 2)),
            hbar, pts,
        )
        diffs = [abs(o - product.samples[i, j]) for o, (i, j) in zip(oracle, idx)]
        scale = max(abs(product.samples[i, j]) for i, j in idx)
        value = max(diffs) / scale
        return [_record("rsdq-02-quadrature-oracle", value <= 1e-6, value=value,
                        tolerance=1e-6)]

    def study_check(index):
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[index]
        f = GridFunction.gaussian(grid, c1, a)
        g = GridFunction.gaussian(grid, c2, b)
        studies = convergence_study(star_defects, f, g, schedule)
        kinds = (
            ("rsdq-03-von-neumann-slope-pair%d", 0.8, 1.2, 1.0),
            ("rsdq-04-dirac-slope-pair%d", 1.8, 2.2, 2.0),
        )
        records = []
        for study, (check_id, low, high, target) in zip(studies, kinds):
            slope = study["slope"]
            passed = not study["saturated"] and low <= slope <= high
            witness = {"rows": [[h, d] for h, d in study["rows"]], "target": target}
            records.append(_record(check_id % (index + 1), passed, value=slope,
                                   tolerance=[low, high], witness=witness,
                                   saturated=study["saturated"]))
        return records

    checks = [closed_form_check, oracle_check]
    for idx in range(3):
        checks.append(lambda i=idx: study_check(i))
    return checks


# --- rieffel-morphisms ----------------------------------------------------------


def _suite_rieffel_morphisms(config):
    from .rieffel import (
        AffineSymplecticMap,
        GridFunction,
        equivariance_defect,
        morphism_star_defect,
        moyal_product,
        np,
    )

    grid = _grid(config)
    hbar = config["hbar"]
    f = GridFunction.gaussian(grid, (0.5, 0.0), 1.0)
    g = GridFunction.gaussian(grid, (-0.4, 0.3), 1.0)
    # one f*g for all six maps; each map's pullbacks guard f and g at its threshold
    star = moyal_product(f, g, hbar, boundary_threshold=1e-9)

    symplectic_maps = (
        ("rot30", AffineSymplecticMap.rotation(math.pi / 6)),
        ("rot90", AffineSymplecticMap.rotation(math.pi / 2)),
        ("rot137", AffineSymplecticMap.rotation(2.4)),
        ("shear-upper", AffineSymplecticMap.shear(0.3)),
        ("shear-lower", AffineSymplecticMap.shear(-0.2, upper=False)),
    )

    def symplectic_check(name, phi):
        value = morphism_star_defect(phi, f, g, hbar, star, boundary_threshold=1e-9)
        return [_record("morph-01-star-%s" % name, value <= 1e-3, value=value,
                        tolerance=1e-3)]

    def control_check():
        phi = AffineSymplecticMap(np.diag([2.0, 2.0]))
        value = morphism_star_defect(phi, f, g, hbar, star, boundary_threshold=float("inf"))
        return [_record("morph-02-scaling-control", value >= 1e-1, value=value,
                        tolerance=1e-1,
                        witness={"expectation": "defect stays large"})]

    def equivariance_check():
        phi = AffineSymplecticMap.rotation(math.pi / 6)
        value = equivariance_defect(phi, f, (0.6, -0.4), boundary_threshold=1e-9)
        return [_record("morph-03-equivariance", value <= 1e-8, value=value,
                        tolerance=1e-8)]

    checks = [lambda n=name, p=phi: symplectic_check(n, p) for name, phi in symplectic_maps]
    return checks + [control_check, equivariance_check]


# --- weyl-transform -------------------------------------------------------------

# wt-01 and wt-02 read only this leading block, so only it is built
_WINDOW_CORNER = 10


def _suite_weyl_transform(config):
    from .rieffel import (
        GridFunction,
        moyal_product,
        np,
        oscillator_position,
        weyl_homomorphism_residual,
        weyl_transform,
        weyl_transforms,
    )

    grid = _grid(config)
    hbar = config["hbar"]
    truncations = config["truncations"]
    reference = truncations[min(1, len(truncations) - 1)]

    def window_fn(x, p):
        r2 = (x * x + p * p) / 2.8**2
        return np.exp(-(r2**12))

    def window_identity():
        w = GridFunction.from_callable(grid, window_fn)
        mat = weyl_transform(w, hbar, reference, corner=_WINDOW_CORNER)
        value = float(np.max(np.abs(mat - np.eye(_WINDOW_CORNER))))
        return [_record("wt-01-window-identity", value <= 1e-6, value=value,
                        tolerance=1e-6)]

    def windowed_position():
        xw = GridFunction.from_callable(grid, lambda x, p: x * window_fn(x, p))
        mat = weyl_transform(xw, hbar, reference, corner=_WINDOW_CORNER)
        ref = oscillator_position(reference, hbar)[:_WINDOW_CORNER, :_WINDOW_CORNER]
        value = float(np.max(np.abs(mat - ref)))
        return [_record("wt-02-windowed-position", value <= 1e-6, value=value,
                        tolerance=1e-6)]

    transform_pairs = (
        (((0.5, 0.0), 1.0), ((-0.4, 0.3), 2.0 / 3.0)),
        (((0.8, 0.0), 0.5), ((-0.5, 0.4), 1.0 / 3.0)),
    )

    def intertwining(index):
        (c1, a), (c2, b) = transform_pairs[index]
        f = GridFunction.gaussian(grid, c1, a)
        g = GridFunction.gaussian(grid, c2, b)
        star = moyal_product(f, g, hbar)
        # one class symbol per operand, one eigh per truncation, one truncation held at a time
        transforms = weyl_transforms([f, g, star], hbar, truncations, support_tail=1.0)
        residuals = {
            n: weyl_homomorphism_residual(s, a, b) for n, (a, b, s) in zip(truncations, transforms)
        }
        ordered = [residuals[n] for n in truncations]
        monotone = all(a > b for a, b in zip(ordered, ordered[1:]))
        small = residuals[reference] <= 1e-3
        witness = {"residuals": [[n, residuals[n]] for n in truncations]}
        return [_record("wt-03-intertwining-pair%d" % (index + 1), monotone and small,
                        value=residuals[reference], tolerance=1e-3, witness=witness)]

    checks = [window_identity, windowed_position]
    for idx in range(len(transform_pairs)):
        checks.append(lambda i=idx: intertwining(i))
    return checks


# --- suites and configs --------------------------------------------------------


_GRID_DEFAULTS = {"grid_points": 256, "grid_extent": 20.0, "hbar": 0.1}

# Each suite's check builder and the defaults of the config fields it reads.
# A config holds these fields, "schema_version", "suite" and "seed", and no
# other field.
_SUITES = {
    "weyl-laws": (_suite_weyl_laws, {"sample_count": 1002}),
    "weyl-sdq": (
        _suite_weyl_sdq, {"sample_count": 100, "schedule": ["1/2", "1/4", "1/8", "1/16"]}
    ),
    "equivalence-weyl": (_suite_equivalence_weyl, {"sample_count": 100, "max_pairs": 200}),
    "rieffel-sdq": (_suite_rieffel_sdq, dict(_GRID_DEFAULTS, schedule=[0.4, 0.2, 0.1, 0.05])),
    "rieffel-morphisms": (_suite_rieffel_morphisms, _GRID_DEFAULTS),
    "weyl-transform": (_suite_weyl_transform, dict(_GRID_DEFAULTS, truncations=[32, 64, 128])),
}

SUITE_NAMES = tuple(_SUITES)

# Each config field: the JSON type of its value, or of each entry for a list
# field; its least and greatest value (a "number" field's least value is
# excluded and it has no greatest); and, for a list field, its least and greatest length.
_FIELDS = {
    "schema_version": ("integer", SCHEMA_VERSION, SCHEMA_VERSION, None),
    "seed": ("integer", 0, 2**64 - 1, None),
    # at 10**4 each exact suite stays under 40 s and 80 MB on a 2-CPU box
    "sample_count": ("integer", 1, 10**4, None),
    "max_pairs": ("integer", 1, 10**4, None),
    "grid_points": ("integer", 32, 2048, None),
    "grid_extent": ("number", 0, None, None),
    "hbar": ("number", 0, None, None),
    "truncations": ("integer", 16, 1024, (2, 16)),  # each entry: transforms per wt-03 pair
    "schedule": ("number or string", None, None, (4, 64)),  # each entry: twist stages per pair
}

_KINDS = {"integer": int, "number": (int, float), "number or string": (int, float, str)}


class ConfigError(ValueError):
    pass


def default_config(suite):
    if suite not in _SUITES:
        raise ConfigError("unknown suite %r" % (suite,))
    config = {"schema_version": SCHEMA_VERSION, "suite": suite, "seed": 20260816}
    config.update(copy.deepcopy(_SUITES[suite][1]))
    return config


_EXPONENT = re.compile(r"e([-+]?)(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)  # as Fraction reads it


def _parse_schedule(raw):
    out = []
    for item in raw:
        if isinstance(item, str):
            # an exponent above the entry's length plus 400 takes any nonzero
            # mantissa out of float range (to overflow or to 0.0), as that bound
            # does: clamped to it, Fraction builds no power of ten that long
            found = _EXPONENT.search(item)
            if found and int(found[2]) > len(item) + 400:
                item = "%s%s%d" % (item[:found.start(1)], found[1], len(item) + 400)
            out.append(Fraction(item))
        else:
            out.append(item)
    return out


def _shown(value):
    """repr(value), or its type if it holds an int too long to print."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return "<%s too long to show>" % type(value).__name__


def _field_fault(field, value):
    """The first way `value` breaks the row of `field` in _FIELDS, or None.

    A boolean is no number, an integral float such as 64.0 is no integer, and
    NaN, infinity (which Python's json module reads) and a "number" int past
    the float range are no finite number.
    """
    kind, low, high, lengths = _FIELDS[field]
    items = [(field, value)]
    if lengths is not None:
        least, most = lengths
        if not isinstance(value, list):
            return "%s: %s is not of type array" % (field, _shown(value))
        if not least <= len(value) <= most:
            return "%s: %d items, not between %d and %d" % (field, len(value), least, most)
        items = [("%s[%d]" % (field, k), item) for k, item in enumerate(value)]
    for path, item in items:
        if isinstance(item, bool) or not isinstance(item, _KINDS[kind]):
            return "%s: %s is not of type %s" % (path, _shown(item), kind)
        if (kind == "number" or isinstance(item, float)) and not abs(item) <= sys.float_info.max:
            return "%s: %s is not a finite number" % (path, _shown(item))
        if kind == "number" and item <= low:
            return "%s: %s is not greater than %r" % (path, _shown(item), low)
        if kind == "integer" and item < low:
            return "%s: %s is less than %r" % (path, _shown(item), low)
        if kind == "integer" and item > high:
            return "%s: %s is greater than %r" % (path, _shown(item), high)
    return None


def _config_fault(config):
    """The first way `config` breaks _FIELDS or its suite's entry of _SUITES, or None."""
    if not isinstance(config, dict):
        return "config: %s is not of type object" % _shown(config)
    for field in ("suite", "seed"):
        if field not in config:
            return "config: missing required field %r" % field
    suite = config["suite"]
    if suite not in SUITE_NAMES:
        return "suite: %s is not one of %r" % (_shown(suite), list(SUITE_NAMES))
    for field, value in config.items():
        if field not in ("suite", "schema_version", "seed") and field not in _SUITES[suite][1]:
            return "%s: suite %r takes no such field" % (field, suite)
        found = field != "suite" and _field_fault(field, value)
        if found:
            return found
    return None


def validate_config(config):
    """`config` as given if its suite can run on it; a ConfigError otherwise."""
    found = _config_fault(config)
    if found:
        raise ConfigError("config schema violation: %s" % found)
    suite_fields = _SUITES[config["suite"]][1]
    if "schedule" in config:
        try:
            parsed = _parse_schedule(config["schedule"])
            values = [float(v) for v in parsed]
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError("unreadable schedule entry: %s" % exc) from exc
        if any(v <= 0 for v in parsed):
            raise ConfigError("schedule entries must be positive")
        for raw, v in zip(config["schedule"], values):
            if v == 0.0:
                raise ConfigError(
                    "schedule entry %r is too small for the float table rows" % (raw,)
                )
        if config["suite"] == "weyl-sdq":
            # the exact defects live on the fibers hbar in (0, 1]
            for raw, v in zip(config["schedule"], parsed):
                if v > 1:
                    raise ConfigError("weyl-sdq schedule entry %r is above 1" % (raw,))
        if any(b >= a for a, b in zip(values, values[1:])):
            raise ConfigError("schedule must be strictly decreasing")
        try:  # refused here, before any defect is made, not by the fit after them
            _centred_logs(values)
        except GridError as exc:
            raise ConfigError("schedule %s: %s" % (_shown(config["schedule"]), exc)) from exc
    if "truncations" in config:
        t = config["truncations"]
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ConfigError("truncations must be strictly increasing")
    if "grid_points" in suite_fields:
        try:
            _grid(dict(suite_fields, **config))
        except GridError as exc:
            raise ConfigError("%s: %s" % (type(exc).__name__, exc)) from exc
    return config


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON, non-UTF-8 bytes, an int past the digit limit
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    return validate_config(raw)


def resolve_config(config):
    """Fill defaults for the config's suite; explicit fields win."""
    validate_config(config)
    merged = default_config(config["suite"])
    merged.update(config)
    return merged


# --- runner and tables ----------------------------------------------------------


def run_suite(config):
    """Execute one suite and return its report dictionary."""
    config = resolve_config(config)
    build_checks, fields = _SUITES[config["suite"]]
    grid = "grid_points" in fields
    records = _run_checks(build_checks(config), _worker_count(), grid)
    summary = {
        "total": len(records),
        "passed": sum(1 for r in records if r["status"] == "pass"),
        "failed": sum(1 for r in records if r["status"] == "fail"),
        "saturated": sum(1 for r in records if r["status"] == "saturated"),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": config["suite"],
        "seed": config["seed"],
        "config": config,
        "environment": _environment_stamp(grid),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "checks": records,
        "summary": summary,
    }


def report_to_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _slope_windows(rows):
    cells = [""]
    for (h0, d0), (h1, d1) in zip(rows, rows[1:]):
        if d0 > 0 and d1 > 0:
            cells.append("%.12g" % (math.log(d1 / d0) / math.log(h1 / h0)))
        else:
            cells.append("")
    return cells

def emit_tables(report, out_dir, fmt="csv"):
    """Write the report's numeric tables; returns the created paths."""
    if fmt not in ("csv", "json"):
        raise ConfigError("unknown table format %r" % (fmt,))
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt == "json":
        path = os.path.join(out_dir, "%s.report.json" % report["suite"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
        written.append(path)
        return written

    any_rows = False
    for check in report["checks"]:
        witness = check.get("witness") or {}
        rows = witness.get("rows")
        if not rows:
            continue
        any_rows = True
        path = os.path.join(out_dir, "%s.%s.csv" % (report["suite"], check["id"]))
        windows = _slope_windows([(r[0], r[1]) for r in rows])
        lines = ["hbar,defect,slope_window"]
        for (h, d), win in zip(rows, windows):
            lines.append("%.12g,%.17g,%s" % (h, d, win))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(path)
    if not any_rows:
        path = os.path.join(out_dir, "%s.tables.csv" % report["suite"])
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("hbar,defect,slope_window\n")
        written.append(path)
    return written
