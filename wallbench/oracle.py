"""Independent output checks: the paper's equations, its numbers, and
properties of the method.

Nothing here imports the program.  The core is a bisection on the
paper's traffic balance for a die of ``N`` CEAs split into ``P`` cores
and ``N - a*P`` cache CEAs (Eqs. 5-12), relative to the 8-core,
8-cache-CEA baseline:

    (P/8) * (k * (N - a*P + L) / P) ** (-alpha) = B * d

``k`` multiplies effective cache capacity (compression, DRAM density,
filtered unused words), ``d`` divides off-chip traffic (link
compression, sectoring), ``a`` is the core area in CEAs (smaller
cores) and ``L`` the CEAs of a stacked cache layer.  Every check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Sequence, Tuple

BASE_CORES = 8.0

#: Stacks whose core count the bisection reproduces exactly: products of
#: cache compression, DRAM density, link compression and CC/LC.
EXACT_LABELS = frozenset(["CC", "DRAM", "LC", "CC/LC"])

#: Default parameter of each technique label, as the paper's realistic
#: assumption (Table 2).
DEFAULTS = {"CC": 2.0, "DRAM": 8.0, "3D": 1.0, "Fltr": 0.4, "SmCo": 40.0,
            "LC": 2.0, "Sect": 0.4, "SmCl": 0.4, "CC/LC": 2.0}

#: Fig. 1 power-law exponents the paper reports.
PAPER_ALPHAS = {"commercial_average_alpha": 0.48,
                "commercial_min_alpha": 0.36,
                "commercial_max_alpha": 0.62,
                "spec2006_alpha": 0.25}

#: The rows each simulated experiment is defined over; a result missing
#: one (or holding none) fails, whatever its other rows say.
FIG14_CORES = (4, 8, 16)
EXT_SHARING_CORES = (4, 8)
LINE_SIZES = (16, 32, 64, 128, 256)
TRACE_SHARING_CORES = (4, 8, 16)
#: ext-trace-lru generates one trace at each of the paper's commercial
#: alphas (Fig. 1: minimum, average, maximum).
TRACE_LRU_ALPHAS = (0.36, 0.48, 0.62)


class Stack:
    """A technique stack reduced to the balance's ``k, d, a, L``."""

    def __init__(self, specs: Sequence[str] = ()) -> None:
        self.k, self.d, self.a, self.layers = 1.0, 1.0, 1.0, 0.0
        self.labels = []
        for spec in specs:
            label, _, raw = spec.partition("=")
            value = float(raw) if raw else DEFAULTS[label]
            self.labels.append(label)
            if label in ("CC", "DRAM"):
                self.k *= value
            elif label == "LC":
                self.d *= value
            elif label == "CC/LC":
                self.k *= value
                self.d *= value
            elif label == "Fltr":
                self.k /= 1.0 - value
            elif label == "Sect":
                self.d /= 1.0 - value
            elif label == "SmCl":
                self.k /= 1.0 - value
                self.d /= 1.0 - value
            elif label == "SmCo":
                self.a /= value
            elif label == "3D":
                self.layers += value
            else:
                raise ValueError(f"unknown technique {label!r}")

    @property
    def exact(self) -> bool:
        return set(self.labels) <= EXACT_LABELS


def traffic(cores: float, ceas: float, alpha: float,
            stack: Stack = Stack()) -> float:
    """Off-chip traffic relative to the baseline chip (left side / d)."""
    cache = stack.k * (ceas - stack.a * cores + stack.layers * ceas)
    return (cores / BASE_CORES) * (cache / cores) ** (-alpha) / stack.d


def continuous_cores(ceas: float, alpha: float, budget: float,
                     stack: Stack = Stack()) -> Tuple[float, bool]:
    """``(P, area_limited)``: the balance's root by bisection.

    Traffic rises monotonically with ``P``; when even a die full of
    cores stays inside the budget the answer is area-limited.
    """
    hi = ceas / stack.a
    if stack.layers > 0 and traffic(hi, ceas, alpha, stack) <= budget:
        return hi, True
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if traffic(mid, ceas, alpha, stack) < budget:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), False


def integer_cores(ceas: float, alpha: float, budget: float,
                  stack: Stack = Stack()) -> int:
    return math.floor(continuous_cores(ceas, alpha, budget, stack)[0]
                      + 1e-9)


# ----------------------------------------------------------------------
# Solutions (solve responses, sweep points, job sweep rows)
# ----------------------------------------------------------------------


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_solution(ceas: float, alpha: float, budget: float,
                   specs: Sequence[str], point: Dict[str, Any]) -> List[str]:
    """One solved point against the bisection or, for stacks outside
    the exact set, against the technique-free answer it may not drop
    below."""
    where = f"ceas={ceas} alpha={alpha} budget={budget} stack={list(specs)}"
    cores, cont = point.get("cores"), point.get("continuous_cores")
    if not isinstance(cores, int) or not isinstance(cont, (int, float)):
        return [f"{where}: cores/continuous_cores missing"]
    if cores != math.floor(cont + 1e-9):
        return [f"{where}: cores {cores} != floor({cont})"]
    stack = Stack(specs)
    if stack.exact:
        expected, limited = continuous_cores(ceas, alpha, budget, stack)
        if not _close(cont, expected):
            return [f"{where}: continuous_cores {cont!r}, "
                    f"bisection gives {expected!r}"]
        if bool(point.get("area_limited")) != limited:
            return [f"{where}: area_limited {point.get('area_limited')}"]
        return []
    base_cores = integer_cores(ceas, alpha, budget)
    if cores < base_cores:
        return [f"{where}: {cores} cores, below the {base_cores} "
                f"the same request gets without techniques"]
    return []


def check_solve_payload(request: Dict[str, Any],
                        payload: Dict[str, Any]) -> List[str]:
    problems = check_solution(request["ceas"], request["alpha"],
                              request["budget"], request["techniques"],
                              payload.get("solution", {}))
    if not _close(payload.get("proportional_cores", -1.0),
                  request["ceas"] / 2.0):
        problems.append("proportional_cores is not ceas/2")
    return problems


def check_grid(request: Dict[str, Any],
               points: Sequence[Dict[str, Any]]) -> List[str]:
    """Rows of a sweep: grid order (ceas-major) and every point."""
    grid = [(c, b) for c in request["ceas"] for b in request["budgets"]]
    if len(points) != len(grid):
        return [f"{len(points)} points for a {len(grid)}-point grid"]
    for (ceas, budget), point in zip(grid, points):
        if point.get("ceas") != ceas or point.get("budget") != budget:
            return [f"point out of grid order at ({ceas}, {budget})"]
        problems = check_solution(ceas, request["alpha"], budget,
                                  request["techniques"], point)
        if problems:
            return problems
    return []


# ----------------------------------------------------------------------
# Job artifacts
# ----------------------------------------------------------------------


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Objective vectors as (cores max, cache fraction min, traffic
    min)."""
    better_or_equal = (a[0] >= b[0] and a[1] <= b[1] and a[2] <= b[2])
    return better_or_equal and tuple(a) != tuple(b)


def check_frontier(frontier: Sequence[Dict[str, Any]]) -> List[str]:
    if not frontier:
        return ["empty optimize frontier"]
    vectors = [(entry["cores"], entry["cache_fraction"], entry["traffic"])
               for entry in frontier]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j and dominates(a, b):
                return [f"frontier point {a} dominates {b}"]
    return []


def check_miss_curve(points: Sequence[Sequence[float]],
                     what: str) -> List[str]:
    """An LRU miss curve never rises as capacity grows (inclusion)."""
    ordered = sorted((float(c), float(m)) for c, m in points)
    for (c0, m0), (c1, m1) in zip(ordered, ordered[1:]):
        if m1 > m0 + 1e-12:
            return [f"{what}: miss rate rises from {m0} at {c0} "
                    f"to {m1} at {c1}"]
    return []


def check_rows(what: str, keys: Iterable[Any],
               want: Iterable[float]) -> List[str]:
    """Exactly the rows ``want``: none missing, none extra."""
    got = sorted(float(key) for key in keys)
    if got != sorted(float(key) for key in want):
        return [f"{what}: rows {got}, expected {sorted(want)}"]
    return []


def check_fitted_alpha(fitted: float, generating: float, what: str,
                       tolerance: float = 0.05) -> List[str]:
    if not abs(fitted - generating) <= tolerance:
        return [f"{what}: fitted alpha {fitted} is not within "
                f"{tolerance} of its generating {generating}"]
    return []


# ----------------------------------------------------------------------
# The experiment registry
# ----------------------------------------------------------------------


def mapping(value: Any) -> List[Tuple[Any, Any]]:
    """The golden encoding of a mapping: ``{"__mapping__": [[k, v]..]}``."""
    return [tuple(item) for item in value["__mapping__"]]


def _equal(what: str, got: Any, want: Any) -> List[str]:
    return [] if got == want else [f"{what}: {got!r}, paper {want!r}"]


def _near(what: str, got: float, want: float, tol: float) -> List[str]:
    return ([] if abs(got - want) <= tol
            else [f"{what}: {got!r}, expected {want!r} +- {tol}"])


def _non_decreasing(what: str, values: Iterable[float]) -> List[str]:
    values = list(values)
    if any(b < a for a, b in zip(values, values[1:])):
        return [f"{what} decreases: {values}"]
    return []


def _sweep_by_parameter(result: Dict[str, Any], label: str,
                        paper: Dict[float, int]) -> List[str]:
    """Figs. 4-12: cores on a 32-CEA die versus one technique knob,
    against the bisection and the paper's quoted points."""
    problems = _equal("baseline cores", result["baseline_cores"], 11)
    entries = mapping(result["cores_by_parameter"])
    problems += _non_decreasing(f"{label} cores", [c for _, c in entries])
    for parameter, cores in entries:
        if cores < 11:
            problems.append(f"{label}={parameter}: {cores} < 11")
        want = integer_cores(32, 0.5, 1.0, Stack([f"{label}={parameter}"]))
        problems += _equal(f"{label}={parameter}", cores, want)
    for parameter, want in paper.items():
        got = dict(entries).get(parameter)
        problems += _equal(f"{label}={parameter} (paper)", got, want)
    return problems


GENERATIONS = (32, 64, 128, 256)


def _check_generation_rows(result: Dict[str, Any]) -> List[str]:
    problems = _equal("ideal", result["ideal"], [16, 32, 64, 128])
    problems += _equal("base", result["base"],
                       [integer_cores(n, 0.5, 1.0) for n in GENERATIONS])
    return problems


def _fig1(result):
    problems = []
    for name, fit in mapping(result["fits"]):
        if not 0.1 <= fit["alpha"] <= 1.0:
            problems.append(f"{name}: alpha {fit['alpha']} outside 0.1-1")
    for series in result["figure"]["series"]:
        problems += check_miss_curve(series["points"], series["name"])
    problems += _near("fig1 alpha error", fig1_alpha_error(result), 0.0,
                      0.1)
    return problems


def fig1_alpha_error(result: Dict[str, Any]) -> float:
    """Largest gap between a fitted Fig-1 alpha and the paper's value."""
    return max(abs(result[key] - want) for key, want in PAPER_ALPHAS.items())


def _fig2(result):
    return (_equal("B=1 cores", result["supportable_cores_flat"], 11)
            + _equal("B=1.5 cores", result["supportable_cores_optimistic"],
                     integer_cores(32, 0.5, 1.5))
            + _near("traffic at 16 cores", result["traffic_at_16_cores"],
                    traffic(16, 32, 0.5), 1e-9))


def _fig3(result):
    return (_equal("cores at 16x", result["cores_at_16x"], 24)
            + _near("core area share at 16x",
                    result["core_area_share_at_16x"],
                    continuous_cores(256, 0.5, 1.0)[0] / 256, 1e-9))


def _fig13(result):
    paper = {16: 0.40, 32: 0.63, 64: 0.77, 128: 0.86}
    rows = dict(mapping(result["required_sharing"]))
    problems = check_rows("fig13 core counts", rows, paper)
    for cores, share in rows.items():
        problems += _near(f"sharing needed at {cores} cores", share,
                          paper.get(cores, share), 0.02)
    return problems


def _fig14(result):
    rows = sorted(result["measurements"])
    problems = check_rows("fig14 core counts", [c for c, _ in rows],
                          FIG14_CORES)
    fractions = [fraction for _, fraction in rows]
    if not all(0 < f < 1 for f in fractions):
        problems.append("shared-line fraction outside (0, 1)")
    if any(b >= a for a, b in zip(fractions, fractions[1:])):
        problems.append(f"shared fraction does not decline: {fractions}")
    return problems


def _fig15(result):
    problems = _check_generation_rows(result)
    paper = {("CC", "2x"): 13, ("CC", "16x"): 30, ("DRAM", "2x"): 18,
             ("DRAM", "16x"): 47, ("LC", "2x"): 16, ("LC", "16x"): 38,
             ("3D", "2x"): 14, ("Fltr", "2x"): 12, ("SmCl", "2x"): 16,
             ("CC/LC", "2x"): 18}
    seen = set()
    for candle in result["candles"]:
        key = (candle["label"], candle["generation"])
        seen.add(key)
        trio = (candle["pessimistic"], candle["realistic"],
                candle["optimistic"])
        if list(trio) != sorted(trio):
            problems.append(f"{key}: pessimistic/realistic/optimistic "
                            f"out of order {trio}")
        if key in paper:
            problems += _equal(f"{key} realistic", trio[1], paper[key])
    missing = sorted(set(paper) - seen)
    if missing:
        problems.append(f"fig15 candles missing: {missing}")
    return problems


def _fig16(result):
    problems = _check_generation_rows(result)
    combos = dict(mapping(result["combos"]))
    for name, cores in combos.items():
        problems += _non_decreasing(name, cores)
        if any(c < b for c, b in zip(cores, result["base"])):
            problems.append(f"{name} below base: {cores}")
    best = max(row[-1] for row in combos.values())
    problems += _equal("best combination at 16x", best, 183)
    return problems


def _fig17(result):
    rows = mapping(result["cores"])
    problems = []
    for label in ("IDEAL", "BASE", "DRAM"):
        alphas = [alpha for (name, alpha), _ in rows if name == label]
        # The paper's Fig. 17 alphas: SPEC2006's and the commercial top.
        problems += check_rows(f"fig17 {label} alphas", alphas, (0.25, 0.62))
    for (label, alpha), cores in rows:
        problems += _non_decreasing(f"{label} alpha={alpha}", cores)
        if label == "IDEAL":
            problems += _equal(f"ideal alpha={alpha}", cores,
                               [16, 32, 64, 128])
        elif label == "BASE":
            problems += _equal(f"base alpha={alpha}", cores,
                               [integer_cores(n, alpha, 1.0)
                                for n in GENERATIONS])
        elif label in ("DRAM",):
            problems += _equal(f"DRAM alpha={alpha}", cores,
                               [integer_cores(n, alpha, 1.0,
                                              Stack(["DRAM"]))
                                for n in GENERATIONS])
    return problems


def _table2(result):
    paper = {"CC": 13, "DRAM": 18, "3D": 14, "Fltr": 12, "LC": 16,
             "SmCl": 16, "CC/LC": 18}
    problems = _equal("rows", len(result), 9)
    for entry in result:
        label = entry["row"]["label"]
        trio = (entry["cores_pessimistic"], entry["cores_realistic"],
                entry["cores_optimistic"])
        if list(trio) != sorted(trio) or trio[0] < 11:
            problems.append(f"{label}: {trio} out of order or below base")
        if label in paper:
            problems += _equal(f"{label} realistic", trio[1], paper[label])
    return problems


def _series_finite(result):
    problems = []
    for series in result["figure"]["series"]:
        for point in series["points"]:
            if any(v is None or (isinstance(v, float) and math.isnan(v))
                   for v in point):
                problems.append(f"{series['name']}: undefined point")
                break
    if not result["figure"]["series"]:
        problems.append("no series")
    return problems


def plain(value: Any) -> Any:
    """Golden encoding -> plain data: mappings become dicts."""
    if isinstance(value, dict):
        if "__mapping__" in value:
            return {_key(k): plain(v) for k, v in value["__mapping__"]}
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [plain(v) for v in value]
    return value


def _key(key: Any) -> Any:
    return tuple(key) if isinstance(key, list) else key


def check_trace_unit(unit: Dict[str, Any], what: str) -> List[str]:
    """One simulated trace: its LRU curve and the fit's sanity."""
    curve = unit["curve"]
    problems = check_miss_curve(
        list(zip(curve["line_counts"], curve["miss_rates"])), what)
    fit = unit["yavits_fit"]
    if not 0.0 < fit["alpha"] < 2.0 or fit["compulsory"] < 0.0:
        problems.append(f"{what}: implausible fit {fit}")
    return problems


def check_trace_job(body: Dict[str, Any],
                    result: Dict[str, Any]) -> List[str]:
    """A trace job's artifact: one unit per requested alpha, in order,
    each a sane LRU curve whose fit lands near its generating alpha (a
    20k-access trace fits within 0.08)."""
    units = result["units"]
    values = [unit.get("unit_value") for unit in units]
    if values != list(body["units"]):
        return [f"trace job returned units {values} for {body['units']}"]
    problems = []
    for alpha, unit in zip(body["units"], units):
        what = f"trace alpha={alpha} seed={body['seed']}"
        problems += check_trace_unit(unit, what)
        problems += check_fitted_alpha(unit["yavits_fit"]["alpha"], alpha,
                                       what, 0.08)
    return problems


def _ext_trace_lru(result):
    units = plain(result["units"])
    problems = check_rows("ext-trace-lru alphas", units, TRACE_LRU_ALPHAS)
    for alpha, unit in units.items():
        problems += check_trace_unit(unit, f"trace alpha={alpha}")
        problems += check_fitted_alpha(unit["yavits_fit"]["alpha"],
                                       float(alpha), f"trace alpha={alpha}")
    return problems + _series_finite(result)


def _ext_trace_sharing(result):
    units = sorted(plain(result["units"]).items())
    problems = check_rows("ext-trace-sharing core counts",
                          [cores for cores, _ in units], TRACE_SHARING_CORES)
    for cores, unit in units:
        problems += check_trace_unit(unit, f"sharing cores={cores}")
    floors = [unit["yavits_fit"]["compulsory"] for _, unit in units]
    if any(b >= a for a, b in zip(floors, floors[1:])):
        problems.append(f"compulsory term does not decline: {floors}")
    return problems + _series_finite(result)


def _ext_overheads(result):
    curves = plain(result["curves"])
    names = list(curves)
    problems = []
    for name in names[1:]:
        for (_, free), (_, cores) in zip(curves[names[0]], curves[name]):
            if cores > free + 1e-9:
                problems.append(f"{name} exceeds the free interconnect")
                break
    return problems + _series_finite(result)


def _series(result) -> Dict[str, List[List[float]]]:
    return {s["name"]: s["points"] for s in result["figure"]["series"]}


def _ext_roadmap(result):
    series = _series(result)
    problems = []
    for name, specs in (("flat", []), ("flat + LC 2x", ["LC=2"])):
        got = [cores for _, cores in series[name]]
        want = [integer_cores(16 * 2 ** g, 0.5, 1.0, Stack(specs))
                for g, _ in series[name]]
        problems += _equal(name, got, want)
    return problems


def _ext_smt(result):
    rows = sorted(plain(result["by_width"]).items())
    cores = [row[0] for _, row in rows]
    problems = [] if cores == sorted(cores, reverse=True) else [
        f"cores rise with SMT width: {cores}"]
    return problems + _near("one thread per core", rows[0][1][2],
                            continuous_cores(64, 0.5, 1.0)[0], 1e-9)


def _ext_power(result):
    series = _series(result)
    problems = []
    for name, specs in (("bandwidth wall (base)", []),
                        ("bandwidth wall (LC 3.5x)", ["LC=3.5"])):
        for ceas, cores in series[name]:
            problems += _near(f"{name} at {ceas}", cores,
                              continuous_cores(ceas, 0.5, 1.0,
                                               Stack(specs))[0], 1e-9)
    return problems


def _ext_wall(result):
    curves = plain(result["curves"])
    problems = []
    for name, points in curves.items():
        problems += _non_decreasing(name, [ipc for _, ipc in points])
    base = curves["baseline"][-1][1]
    for name in ("2x link compression", "4x cache per core"):
        problems += _near(f"{name} saturated throughput / baseline",
                          curves[name][-1][1] / base, 2.0, 0.1)
    return problems


def _ext_linesize(result):
    rows = plain(result["by_line_size"])
    problems = check_rows("ext-linesize line sizes", rows, LINE_SIZES)
    for line, (miss, fetched) in rows.items():
        problems += _near(f"bytes per access at {line}B", fetched,
                          miss * line, 1e-9)
    return problems


def _ext_sharing(result):
    rows = plain(result["by_cores"])
    return (check_rows("ext-sharing core counts", rows, EXT_SHARING_CORES)
            + [f"private L2 fetches less than shared at {cores} cores"
               for cores, (shared, private, _) in rows.items()
               if private < shared])


def _ext_validation(result):
    """Section 4.1: the power law extrapolates commercial workloads;
    discrete working sets (the ``spec-`` apps) break it at their cliffs."""
    worst = {name: max(abs(r["predicted"] - r["measured"]) / r["measured"]
                       for r in reports)
             for name, reports in plain(result["reports"]).items()}
    problems = [f"{name}: power law off by {error:.0%}"
                for name, error in worst.items()
                if not name.startswith("spec-") and error > 0.1]
    if max(e for n, e in worst.items() if n.startswith("spec-")) <= 0.1:
        problems.append("no discrete working set breaks the power law")
    return problems


def _ext_het(result):
    problems = []
    for solution in result["solutions"]:
        parts = solution["mix"]["parts"]
        if solution["scale"] <= 0:
            problems.append("non-positive heterogeneous scale")
        if len(parts) == 1 and parts[0][0]["area"] == 1.0 \
                and parts[0][0]["traffic_rate"] == 1.0:
            problems += _near("all-base mix", solution["scale"],
                              continuous_cores(solution["total_ceas"], 0.5,
                                               1.0)[0], 1e-9)
    return problems + _series_finite(result)


def _ext_amdahl(result):
    problems = []
    for (fraction, _), (_, speedup) in plain(result["grid"]).items():
        if not 0 < speedup <= 1 / (1 - fraction) + 1e-9:
            problems.append(f"speedup {speedup} beyond Amdahl's bound "
                            f"for f={fraction}")
    for series in result["figure"]["series"]:
        problems += _non_decreasing(series["name"],
                                    [y for _, y in series["points"]])
    return problems


CHECKS = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": lambda r: _sweep_by_parameter(
        r, "CC", {1.25: 11, 2.0: 13, 2.5: 14, 3.0: 14}),
    "fig5": lambda r: _sweep_by_parameter(
        r, "DRAM", {4.0: 16, 8.0: 18, 16.0: 21}),
    "fig6": lambda r: _sweep_by_parameter(
        r, "3D", {1.0: 14, 8.0: 25, 16.0: 32}),
    "fig7": lambda r: _sweep_by_parameter(r, "Fltr", {0.4: 12, 0.8: 16}),
    "fig8": lambda r: _sweep_by_parameter(r, "SmCo", {80.0: 12}),
    "fig9": lambda r: _sweep_by_parameter(r, "LC", {2.0: 16}),
    "fig10": lambda r: _sweep_by_parameter(r, "Sect", {0.4: 14}),
    "fig11": lambda r: _sweep_by_parameter(r, "SmCl", {0.4: 16}),
    "fig12": lambda r: _sweep_by_parameter(r, "CC/LC", {2.0: 18}),
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": _fig16,
    "fig17": _fig17,
    "table2": _table2,
    "ext-het": _ext_het,
    "ext-roadmap": _ext_roadmap,
    "ext-smt": _ext_smt,
    "ext-amdahl": _ext_amdahl,
    "ext-linesize": _ext_linesize,
    "ext-sharing": _ext_sharing,
    "ext-validation": _ext_validation,
    "ext-trace-lru": _ext_trace_lru,
    "ext-trace-sharing": _ext_trace_sharing,
    "ext-overheads": _ext_overheads,
    "ext-wall": _ext_wall,
    "ext-power": _ext_power,
}


def check_experiment(experiment_id: str, result: Any) -> List[str]:
    """Problems with one experiment's golden-encoded result."""
    try:
        return CHECKS[experiment_id](result)
    except (KeyError, TypeError, ValueError, IndexError) as error:
        return [f"{experiment_id}: malformed result "
                f"({type(error).__name__}: {error})"]
