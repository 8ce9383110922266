"""Shared fixtures and independent oracles for the test suite."""

import itertools
import time

import numpy as np
import pytest

from alwabp import INFEASIBLE, Instance, brute_force_optimal, generate_instance, parse_instance, transitive_closure
from alwabp.instance import iter_bits

FIG1_TEXT = """\
alwabp 1
tasks 6
workers 3
times
4 inf 3
4 5 4
3 6 2
1 5 inf
1 2 3
6 4 inf
precedences
1 2
1 3
3 4
3 5
2 5
5 6
end
"""

SINGLE_TEXT = """\
alwabp 1
tasks 1
workers 1
times
7
precedences
end
"""

# feasible (optimum 19), but the first beam construction of `heur --gamma 5
# --seed 42` finds no line, at beam factor 5 and at 1
NARROW_BEAM_FAILS_TEXT = """\
alwabp 1
tasks 7
workers 5
times
inf inf 13 15 inf
7 inf inf inf inf
inf 9 7 10 inf
inf 10 12 inf inf
6 inf 10 inf inf
8 6 inf 5 15
inf 14 7 inf inf
precedences
1 2
1 3
2 4
3 4
4 5
4 6
end
"""

FIG1_EDGES = {(0, 1), (0, 2), (2, 3), (2, 4), (1, 4), (4, 5)}


@pytest.fixture
def fig1():
    return parse_instance(FIG1_TEXT)


@pytest.fixture
def single():
    return parse_instance(SINGLE_TEXT)


def closure_by_reachability(edges, n):
    """Brute-force reachability: repeatedly extend paths until stable."""
    reach = {(a, b) for a, b in edges}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(reach), repeat=2):
            if b == c and (a, d) not in reach:
                reach.add((a, d))
                changed = True
    return reach


def star_sums(inst, p):
    """(heads, tails) of the times p, as lists: per task t, p[t] plus the
    sum of p over the bits of pred_star[t] (heads) or succ_star[t] (tails)."""
    n = inst.n_tasks
    heads = [p[t] + sum(p[j] for j in iter_bits(inst.pred_star[t])) for t in range(n)]
    tails = [p[t] + sum(p[j] for j in iter_bits(inst.succ_star[t])) for t in range(n)]
    return heads, tails


def node_matrix(state):
    """A search node's reduced time matrix: the instance's times with every
    closed cell read as INFEASIBLE."""
    inst = state.inst
    return [
        [p if state.feasible[w] >> t & 1 else INFEASIBLE for w, p in enumerate(row)]
        for t, row in enumerate(inst.times)
    ]


def node_assignment(state):
    """A search node's assigned tasks, as a task -> worker dict."""
    return {t: w for w, tasks in enumerate(state.on_worker) for t in iter_bits(tasks)}


def rcmax_optimal(inst):
    """Exhaustive makespan optimum with precedence constraints dropped."""
    best = INFEASIBLE
    for combo in itertools.product(*inst.feasible_workers):
        loads = [0] * inst.n_workers
        for t, w in enumerate(combo):
            loads[w] += inst.times[t][w]
        best = min(best, max(loads))
    return best


def random_instance(seed, n_tasks=None, n_workers=None, variability=None, infeasibility=None):
    """Deterministic small random instance for property tests."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if n_tasks is None:
        n_tasks = int(rng.integers(3, 9))
    if n_workers is None:
        n_workers = int(rng.integers(2, 4))
    if variability is None:
        variability = "low" if rng.random() < 0.5 else "high"
    if infeasibility is None:
        infeasibility = float(rng.choice([0.0, 0.1, 0.2]))
    base = [int(rng.integers(1, 11)) for _ in range(n_tasks)]
    edges = {(i, j) for i in range(n_tasks) for j in range(i + 1, n_tasks) if rng.random() < 0.3}
    return generate_instance(base, edges, n_workers, variability, infeasibility, seed)


def scale_instance():
    """The 70-task, 10-worker instance of acceptance criterion 9."""
    rng = np.random.Generator(np.random.PCG64(2024))
    base = [int(rng.integers(1, 100)) for _ in range(70)]
    edges = {(i, j) for i in range(70) for j in range(i + 1, 70) if rng.random() < 0.04}
    return generate_instance(base, edges, 10, "low", 0.1, seed=2024)


def order_strength_instance(n_tasks, n_workers, strength, variability, infeasibility, seed):
    """A paper-shaped instance: base times 1-99 and a precedence graph whose
    order strength (the share of the n(n-1)/2 task pairs that its transitive
    closure orders) is within 0.01 of `strength`. Each pair (i, j), i < j,
    draws one number, and the arcs are the pairs whose number falls below
    an arc density; the graph only grows with the density, which is found
    by bisection."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = [int(rng.integers(1, 100)) for _ in range(n_tasks)]
    draws = {(i, j): rng.random() for i in range(n_tasks) for j in range(i + 1, n_tasks)}
    low, high = 0.0, 1.0
    for _ in range(50):
        density = (low + high) / 2
        edges = {pair for pair, u in draws.items() if u < density}
        reached = len(transitive_closure(edges, n_tasks)) / len(draws)
        if abs(reached - strength) <= 0.01:
            return generate_instance(base, edges, n_workers, variability, infeasibility, seed)
        low, high = (density, high) if reached < strength else (low, density)
    raise ValueError(f"no arc density gives order strength {strength} at seed {seed}")


def suite_params():
    """Factor grid of the 216-instance verification suite."""
    params = []
    for rep in range(3):
        for n_tasks in range(4, 10):
            for n_workers in (2, 3):
                for var in ("low", "high"):
                    for inf_frac in (0.0, 0.1, 0.2):
                        params.append((rep, n_tasks, n_workers, var, inf_frac))
    return params


def build_suite_instance(rep, n_tasks, n_workers, var, inf_frac):
    seed = (
        rep * 1_000_000
        + n_tasks * 10_000
        + n_workers * 1_000
        + (0 if var == "low" else 500)
        + round(inf_frac * 10)
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    base = [int(rng.integers(1, 11)) for _ in range(n_tasks)]
    edges = {(i, j) for i in range(n_tasks) for j in range(i + 1, n_tasks) if rng.random() < 0.3}
    return generate_instance(base, edges, n_workers, var, inf_frac, seed)


@pytest.fixture(scope="session")
def small_suite():
    """The seeded verification suite with exhaustive optima (INFEASIBLE for
    instances without a valid assignment)."""
    t0 = time.perf_counter()
    items = []
    for params in suite_params():
        inst = build_suite_instance(*params)
        items.append((params, inst, brute_force_optimal(inst)))
    return {"items": items, "oracle_elapsed": time.perf_counter() - t0}


def count_calls(monkeypatch, module, name):
    """Replace module.name with a pass-through wrapper; returns the list the
    wrapper appends one entry to per call."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
