"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The full suite takes
roughly fifteen minutes; most of it is the heuristic-quality criterion,
whose published default parameters enforce a six-second minimum search
time per instance whenever the lower bound leaves a gap, and the scale
smoke test with its two-plus-minute time budgets.
"""

import math
import statistics
import time

import pytest

from alwabp import (
    INFEASIBLE,
    BnbConfig,
    IpbsParams,
    all_bounds,
    branch_and_bound,
    brute_force_optimal,
    check_solution_against_model,
    emit_model,
    ipbs,
    validate_solution,
    write_instance,
)
from alwabp.bnb import FEASIBLE_TIME_LIMIT, OPTIMAL
from alwabp.bounds import ALL_BOUNDS
from alwabp.cli import run as cli_run
from alwabp import Solution
from conftest import FIG1_TEXT, rcmax_optimal, scale_instance
from lp_syntax import tokenize_lp


def _report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def suite_bnb(small_suite):
    t0 = time.perf_counter()
    results = []
    for params, inst, oracle in small_suite["items"]:
        results.append((params, inst, oracle, branch_and_bound(inst)))
    return {"results": results, "elapsed": time.perf_counter() - t0}


def test_criterion_1_fig1_fixture(fig1):
    assert brute_force_optimal(fig1) == 6

    result = branch_and_bound(fig1)
    assert result.status == OPTIMAL and result.value == 6
    assert result.elapsed_s < 1.0

    t0 = time.perf_counter()
    sol = ipbs(fig1, IpbsParams(seed=42))
    ipbs_elapsed = time.perf_counter() - t0
    assert sol.cycle_time == 6
    assert ipbs_elapsed < 10.0

    figure_assignment = Solution((2, 0, 1), (2, 0, 2, 0, 1, 1), 6)
    assert validate_solution(fig1, figure_assignment) == []
    assert figure_assignment.loads(fig1) == [5, 6, 5]

    _report(1, True, f"oracle=6, search=6 in {result.elapsed_s:.2f}s, "
                     f"interval search=6 in {ipbs_elapsed:.2f}s, loads (5, 6, 5)")


def test_criterion_2_fig1_bounds(fig1):
    report = all_bounds(fig1, ALL_BOUNDS)
    rcmax = rcmax_optimal(fig1)
    assert rcmax == 6
    problems = []
    for name, expected in (("LC1", 5), ("LC2", 5), ("LC3", 5)):
        if report.value(name) != expected:
            problems.append(f"{name}={report.value(name)} != {expected}")
    for name in ("L1", "L1a", "L1a_bar", "L2", "L2_bar"):
        if not 4 <= report.value(name) <= rcmax:
            problems.append(f"{name}={report.value(name)} outside [4, {rcmax}]")
    slow = [e.name for e in report.entries if e.elapsed_s >= 0.1]
    if slow:
        problems.append(f"bounds over 0.1s: {slow}")
    _report(2, not problems, problems or
            "LC1=LC2=LC3=5, machine-relaxation bounds in [4, 6], all under 0.1s")


def test_criterion_3_oracle_equivalence(small_suite, suite_bnb):
    mismatches = []
    feasible = 0
    for params, inst, oracle, result in suite_bnb["results"]:
        if oracle == INFEASIBLE:
            if result.status != "infeasible":
                mismatches.append((params, "expected infeasible", result.status))
            continue
        feasible += 1
        if result.status != OPTIMAL or result.value != oracle:
            mismatches.append((params, result.value, oracle))
    total_elapsed = small_suite["oracle_elapsed"] + suite_bnb["elapsed"]
    ok = not mismatches and total_elapsed < 300.0
    _report(3, ok, f"{feasible} feasible instances, {len(mismatches)} mismatches, "
                   f"suite runtime {total_elapsed:.1f}s (< 300s)")


def test_criterion_4_bound_soundness(small_suite):
    violations = []
    for params, inst, oracle in small_suite["items"]:
        if oracle == INFEASIBLE:
            continue
        report = all_bounds(inst, ALL_BOUNDS)
        for entry in report.entries:
            if entry.value > oracle:
                violations.append((params, entry.name, entry.value, oracle))
    _report(4, not violations,
            violations or f"all bounds sound on {len(small_suite['items'])} instances")


def test_criterion_5_reduction_rule_soundness(small_suite, suite_bnb):
    mismatches = []
    ratios = []
    for params, inst, oracle, on in suite_bnb["results"]:
        if oracle == INFEASIBLE:
            continue
        off = branch_and_bound(inst, BnbConfig(reduction_rules=False))
        if off.value != on.value:
            mismatches.append((params, on.value, off.value))
        if on.nodes > 0:
            ratios.append(off.nodes / on.nodes)
    median = statistics.median(ratios)
    print(f"  node-count ratio without/with rules: median {median:.2f}x "
          f"(soft target > 1x), mean {statistics.mean(ratios):.2f}x")
    _report(5, not mismatches, mismatches or
            f"values identical with rules on/off, median node ratio {median:.2f}x")


def test_criterion_6_heuristic_quality(small_suite):
    hits = 0
    feasible = 0
    failures = []
    for params, inst, oracle in small_suite["items"]:
        if oracle == INFEASIBLE:
            continue
        feasible += 1
        sol = ipbs(inst, IpbsParams(seed=42))
        problems = validate_solution(inst, sol)
        if problems:
            failures.append((params, problems))
            continue
        if sol.cycle_time < oracle:
            failures.append((params, f"below optimum: {sol.cycle_time} < {oracle}"))
        elif sol.cycle_time == oracle:
            hits += 1
    rate = hits / feasible
    ok = not failures and rate >= 0.95
    _report(6, ok, failures[:3] if failures else
            f"optimum attained on {hits}/{feasible} ({100 * rate:.1f}%, target >= 95%)")


def test_criterion_7_model_validity(suite_bnb):
    problems = []
    for params, inst, oracle, result in suite_bnb["results"]:
        if result.solution is None:
            continue
        for variant in ("m2", "m3"):
            violations = check_solution_against_model(inst, variant, result.solution)
            if violations:
                problems.append((params, variant, [str(v) for v in violations]))
        m2, m3 = emit_model(inst, "m2"), emit_model(inst, "m3")
        try:
            tokenize_lp(m2)
            tokenize_lp(m3)
        except Exception as exc:  # noqa: BLE001 - report as acceptance failure
            problems.append((params, "tokenizer", str(exc)))
        block2 = m2.split("Subject To\n", 1)[1].split("Binaries\n", 1)[0]
        block3 = m3.split("Subject To\n", 1)[1].split("Binaries\n", 1)[0]
        if not block3.startswith(block2):
            problems.append((params, "m2 block not embedded in m3", ""))
    _report(7, not problems, problems[:3] or
            "all suite optima satisfy both models; emissions tokenize; m2 block embedded")


def test_criterion_8_report_determinism(tmp_path, small_suite):
    paths = [tmp_path / "fig1.alwabp"]
    paths[0].write_text(FIG1_TEXT)
    for params, inst, oracle in small_suite["items"][:2]:
        path = tmp_path / f"suite_{params[1]}_{params[2]}.alwabp"
        path.write_text(write_instance(inst))
        paths.append(path)
    diffs = []
    for path in paths:
        argv = ["solve", str(path), "--seed", "42", "--no-timings"]
        if cli_run(list(argv)) != cli_run(list(argv)):
            diffs.append(path.name)
    _report(8, not diffs, diffs or f"byte-identical reports on {len(paths)} instances")


def test_criterion_9_scale_smoke_test():
    inst = scale_instance()
    order_strength = len(inst.closure) / (70 * 69 / 2)

    t0 = time.perf_counter()
    sol = ipbs(inst, IpbsParams(seed=42, t_max=120.0))
    heur_elapsed = time.perf_counter() - t0
    assert heur_elapsed < 125.0
    assert validate_solution(inst, sol) == []

    config = BnbConfig(time_limit=120.0, heuristic_on=False, incumbent=sol)
    result = branch_and_bound(inst, config)
    assert result.status in (OPTIMAL, FEASIBLE_TIME_LIMIT)
    assert result.value is not None and result.value <= sol.cycle_time
    assert validate_solution(inst, result.solution) == []
    assert result.elapsed_s < 300.0

    _report(9, True, f"70 tasks x 10 workers (OS {100 * order_strength:.0f}%): "
                     f"heuristic {sol.cycle_time} in {heur_elapsed:.0f}s, "
                     f"search {result.value} ({result.status}) in {result.elapsed_s:.0f}s, "
                     f"{result.nodes} nodes")
