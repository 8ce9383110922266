"""Optimality beyond the brute-force range, checked by an independent MILP.

The M3 model goes to HiGHS through scipy (the benchmark's reference oracle,
loaded from perfbench/oracle.py); none of the package's search or bound code
takes part in the reference value.
"""

import importlib.util
import os

import numpy as np
import pytest

from alwabp import all_bounds, branch_and_bound, generate_instance, validate_solution
from alwabp.bnb import OPTIMAL
from alwabp.bounds import ALL_BOUNDS

pytest.importorskip("scipy")

ORACLE_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "oracle.py")


def _load_milp_optimum():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.milp_optimum


def _instance(seed, n, m, var, inf):
    """Base times 1 to 10, arc density 0.2."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = [int(rng.integers(1, 11)) for _ in range(n)]
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2}
    return generate_instance(base, edges, m, var, inf, seed)


def _corpus():
    """20 instances of 12 to 16 tasks on 3 or 4 workers, both variabilities,
    0 to 20 % infeasible cells."""
    return [
        _instance(7100 + k, 12 + k % 5, 3 + k % 2, ("low", "high")[k % 2], (0.0, 0.1, 0.2)[k % 3]) for k in range(20)
    ]


def _larger_corpus():
    """4 instances of 17 to 20 tasks on 4 or 5 workers, where the L2
    knapsacks are capped well below each worker's total load."""
    return [
        _instance(7200 + k, 17 + k, 4 + k % 2, ("low", "high")[k % 2], (0.0, 0.1, 0.2)[k % 3]) for k in range(4)
    ]


def _check_against_milp(corpus):
    milp_optimum = _load_milp_optimum()
    for k, inst in enumerate(corpus):
        optimum = milp_optimum(inst)
        result = branch_and_bound(inst)
        if optimum is None:
            assert result.value is None, f"instance {k}"
            continue
        assert result.status == OPTIMAL, f"instance {k}"
        assert result.value == optimum, f"instance {k}"
        assert validate_solution(inst, result.solution) == [], f"instance {k}"
        for entry in all_bounds(inst, ALL_BOUNDS).entries:
            assert entry.value <= optimum, f"instance {k}: {entry.name}"


def test_branch_and_bound_and_bounds_agree_with_milp():
    _check_against_milp(_corpus())


def test_larger_instances_agree_with_milp():
    _check_against_milp(_larger_corpus())
