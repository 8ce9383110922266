"""Output checks: every op's report is checked against the instance it ran on.

A report with a solution is rebuilt into a `Solution` and must pass the
package's checker and the row-by-row evaluation of the M3 model, report a
value equal to its largest station load, and sit at or above the best
lower bound. On `exact` the status must be optimal and the value must equal
the independent MILP optimum stored with the corpus. A `bounds` report must
list every bound, obey the dominance between the bound families, and stay
at or below a known feasible cycle time.
"""

from __future__ import annotations

from alwabp import Solution, check_solution_against_model, validate_solution
from alwabp.bounds import ALL_BOUNDS
from alwabp.export import M3


def solution_from_report(report):
    block = report["solution"]
    order = [w - 1 for w in block["worker_order"]]
    assignment = [block["assignment"][str(t + 1)] - 1 for t in range(len(block["assignment"]))]
    return Solution(order, assignment, report["result"]["value"])


def check_solution(inst, report, best_bound, optimum=None):
    """Problems with a `solve` or `heur` report; `optimum` is given on `exact`."""
    if report.get("solution") is None:
        return [f"no solution (status {report['result']['status']})"]
    sol = solution_from_report(report)
    problems = list(validate_solution(inst, sol))
    problems += [f"M3 row violated: {v}" for v in check_solution_against_model(inst, M3, sol)]
    value = sol.cycle_time
    if value != max(sol.loads(inst)):
        problems.append(f"value {value} is not the largest station load {max(sol.loads(inst))}")
    if best_bound > value:
        problems.append(f"best bound {best_bound} exceeds the value {value}")
    if optimum is not None:
        if report["result"]["status"] != "optimal":
            problems.append(f"status {report['result']['status']}, expected optimal")
        if value != optimum:
            problems.append(f"value {value} differs from the reference optimum {optimum}")
    return problems


def check_bounds(report, upper):
    """Problems with a `bounds` report; `upper` is a feasible cycle time."""
    values = {e["name"]: e["value"] for e in report["bounds"]}
    if tuple(values) != ALL_BOUNDS:
        return [f"bounds reported {tuple(values)}, expected {ALL_BOUNDS}"]
    problems = []
    if report["best_bound"] != max(values.values()):
        problems.append(f"best_bound {report['best_bound']} is not the largest bound")
    for weaker, stronger in (("L1", "L1a"), ("L1a", "L1a_bar"), ("L2", "L2_bar")):
        if values[weaker] > values[stronger]:
            problems.append(f"{weaker} {values[weaker]} exceeds {stronger} {values[stronger]}")
    for name, value in values.items():
        if not 1 <= value <= upper:
            problems.append(f"{name} {value} outside [1, {upper}] (a feasible cycle time)")
    return problems
