"""Lower bounds on the optimal cycle time.

Two relaxation families are implemented. Relaxing every task time to its
per-task minimum gives a homogeneous-line problem, bounded by LC1, LC2 and
LC3 (station windows). Dropping the precedence constraints gives makespan
minimization on unrelated parallel machines, bounded by a Lagrangian dual
of the cycle constraints (L1), its knapsack-based additive improvement
(L1a), a Lagrangian dual of the assignment constraints (L2), and a
disjunctive strengthening of either (L1a_bar, L2_bar).

None of the second family can exceed the makespan U of any schedule that
ignores precedence. _relaxation_bounds computes all five in one pass and
hands U from step to step: the descent schedule S to start with, lowered
by the schedules the bounds build anyway (L2's knapsack packings,
repaired, and each ascent iteration's cheapest-machine assignment). A
bound that reaches U has its final value, so L2's iterations and the
ascent stop there, and L1a needs no knapsack once L1 has reached it. The
knapsacks of L2 and L1a stop at capacity U.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

DEFAULT_L1_ITERS = 50
DEFAULT_L2_ITERS = 20

NATIVE_BOUNDS = ("LC1", "LC2", "LC3", "L1a_bar", "L2_bar")
ALL_BOUNDS = ("LC1", "LC2", "LC3", "L1", "L1a", "L1a_bar", "L2", "L2_bar")


@dataclass
class BoundEntry:
    name: str
    value: int
    elapsed_s: float


@dataclass
class BoundReport:
    entries: list[BoundEntry] = field(default_factory=list)

    @property
    def best(self):
        return max(e.value for e in self.entries)

    def value(self, name):
        for e in self.entries:
            if e.name == name:
                return e.value
        raise KeyError(name)


def _ceil_div(a, b):
    return -(-a // b)


# ---------------------------------------------------------------------------
# Homogeneous-line relaxation (task times replaced by their minima)


def lc1(inst):
    """max of the largest minimum task time and the average-load bound."""
    p = inst.min_times
    return max(max(p), _ceil_div(sum(p), inst.n_workers))


def lc2(inst):
    """Pigeonhole bound on descending-sorted minimum times."""
    return _lc2(sorted(inst.min_times, reverse=True), inst.n_workers)


def _lc2(p_desc, m):
    n = len(p_desc)
    best = 0
    for k in range(1, (n - 1) // m + 1):
        # sum of p_desc at 1-based positions k*m+1, k*m, ..., k*m+1-k
        top = k * m  # 0-based index of position k*m+1
        best = max(best, sum(p_desc[top - k : top + 1]))
    return best


def lc3(inst):
    """Smallest cycle time for which every task has a non-empty station window."""
    p = inst.min_times
    lo = max(1, max(p))
    heads, tails = inst.heads_tails
    return _lc3_search(heads, tails, inst.n_workers, lo, max(lo, sum(p)))


def _lc3_search(heads, tails, m, lo, hi):
    """LC3 searched on the window [lo, hi] only: the smallest c in it at
    which ceil(heads[t] / c) + ceil(tails[t] / c) <= m + 1 for every task t
    (a non-empty station window, which only gets easier as c grows), or hi
    if there is none. That is min(max(LC3, lo), hi) for lo >= max(1, max of
    the times). The root lc3 passes the full range; a node bound, which only
    asks whether LC3 reaches the incumbent, passes the value it already has
    and the incumbent, with the heads and tails it keeps current.

    Only tasks with h + t > m * lo are tested: ceil(h / c) + ceil(t / c) is
    below (h + t) / c + 2, so it is at most m + 1 once h + t <= m * c, and
    every c tested is at least lo."""
    limit = m + 1
    floor = m * lo
    pairs = [(h, t) for h, t in zip(heads, tails) if h + t > floor]
    while lo < hi:
        mid = (lo + hi) // 2
        if all(-(-h // mid) - (-t // mid) <= limit for h, t in pairs):
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# Unrelated-parallel-machines relaxation


def _l1_ascent(times, max_iters, upper):
    """Maximize the dual value sum_t min_w (lam_w * p_tw) over the simplex.

    Projected-subgradient ascent: the gradient component of machine w is the
    total (actual) time of the tasks currently cheapest on w; the direction is
    recentered so multipliers stay on the simplex, clipped at zero and
    renormalized. Any multiplier vector on the simplex yields a valid bound,
    so the running best is kept.

    L1 is the best dual value rounded up, and at least the largest task's
    smallest time. The tasks' cheapest machines of each iteration form a
    schedule whose largest load may lower U (`upper`), and the ascent stops
    once L1 reaches U. L1 <= the relaxation's optimum <= U, so L1 is final
    then, and so is L1a, which lies between the two: the multipliers it
    would read are not needed. Returns L1, the multipliers of the best dual
    value and U.
    """
    n_tasks, m = times.shape
    finite = np.isfinite(times)
    filled = np.where(finite, times, 0.0)
    p_min_max = int(times.min(axis=1).max())
    lam = np.full(m, 1.0 / m)
    best_val = -math.inf
    best_lam = lam.copy()
    rows = np.arange(n_tasks)
    weighted = np.full(times.shape, np.inf)  # infeasible cells stay inf
    for k in range(1, max_iters + 1):
        np.multiply(filled, lam, out=weighted, where=finite)
        choice = weighted.argmin(axis=1)
        value = np.add.reduce(weighted[rows, choice])
        if value > best_val:
            best_val = value
            best_lam = lam.copy()
            l1 = max(math.ceil(value - 1e-9), p_min_max)
        loads = np.bincount(choice, weights=filled[rows, choice], minlength=m)
        upper = min(upper, int(loads.max()))
        if l1 >= upper:
            break
        direction = loads - np.add.reduce(loads) / m
        norm = np.abs(direction).max()
        if norm < 1e-12:
            break
        lam = lam + (0.5 / (m * k)) * direction / norm
        np.maximum(lam, 0.0, out=lam)
        lam /= np.add.reduce(lam)
    return l1, best_lam, upper


@dataclass(frozen=True)
class _KnapsackPlan:
    """Gather plan and layers of `_knapsack`, built once per weight matrix.

    Step k offers, on every row r whose weight weights[k, r] is at most the
    capacity, one item of that weight; other cells are absent. A layer has
    shape (rows, width + 1): column 0 holds -inf and column j capacity
    j - 1. Step k reads layer k and writes layer k + 1, and its index holds
    the flat position in layer k that each cell (r, j) reads: capacity
    j - 1 - weights[k, r] on row r, or column 0 for an absent cell, for a
    capacity below the weight and for column 0 itself.

    Memory is 16 bytes per DP cell (step, row, capacity): 8 for the intp
    index and 8 for the float layer the step writes, so
    16 * steps * rows * (width + 1) bytes in all. L2's capped tables are
    only U + 1 wide; its full-width fallback (see _l2_value) makes them as
    wide as the largest machine load, and L1a's (see _l1_additive) as wide
    as the load of every task on its cheapest machine.
    """

    width: int  # capacities 0..width-1
    present: np.ndarray  # (steps, rows) bool
    layers: np.ndarray  # (steps + 1, rows, width + 1) float
    steps: list  # per step: (layer k flat, index, layer k, layer k + 1)


def _knapsack_plan(weights, capacity):
    present = weights <= capacity
    n_steps, rows = weights.shape
    width = capacity + 1
    w = np.where(present, weights, width + 1).astype(np.intp)
    index = np.arange(width + 1) - w[:, :, None]
    np.maximum(index, 0, out=index)
    index += (np.arange(rows) * (width + 1))[:, None]
    layers = np.empty((n_steps + 1, rows, width + 1))
    layers[0] = 0.0
    layers[:, :, 0] = -np.inf
    steps = list(zip(layers.reshape(n_steps + 1, -1), index, layers, layers[1:]))
    return _KnapsackPlan(width, present, layers, steps)


def _knapsack(plan, profits):
    """0/1 knapsack for every capacity 0..width-1 on all rows at once.

    Rows are independent knapsacks; each row takes its items in step order.
    One step is three calls over an array of shape (rows, width + 1): a
    gather of layer k through the step's index into layer k + 1, an add of
    the step's profits and a max with layer k. An absent cell, and a present
    one at capacities below its weight, reads the -inf of column 0, so
    neither changes the row there, and every other cell is computed by the
    same float operations as a 1-D DP over that row's items alone. The cost
    is O(steps * rows * width) cell updates.

    `profits` broadcasts to (steps, rows). Returns the plan's layers, filled
    (the next call on the same plan overwrites them): layer 0 is 0, and the
    last holds the best profits, capacity c in column c + 1. An item is
    taken only if it strictly improves the value, so
    layers[k + 1, r, c + 1] > layers[k, r, c + 1] says whether row r's best
    subset at capacity c after step k takes the item of step k, and tracing
    back from the last step yields, among the best subsets of a row, the one
    that prefers items of lower steps.
    """
    gains = np.broadcast_to(profits, plan.present.shape)[:, :, None]
    for (source, index, prev, layer), gain in zip(plan.steps, gains):
        source.take(index, out=layer, mode="clip")
        layer += gain
        np.maximum(prev, layer, out=layer)
    return plan.layers


def _l1_additive(times, l1, lam, upper):
    """Additive improvement of the cycle-constraint dual.

    With multipliers lam, any schedule of makespan c satisfies
    c >= phi(lam) + (total reassignment cost it pays), where a task moved off
    its cheapest machine pays at least the gap to its second-cheapest one.
    Tasks cheapest on machine w that stay on w must fit into capacity c, so
    the minimum cost is bounded through an all-capacities knapsack per
    machine (one `_knapsack` call over all machines, each movable task an
    item on its cheapest machine only). L1a is the smallest c from
    max(L1, 1) on that this test does not prove impossible, read by one
    scan that evaluates the test at every capacity of the tables at once.

    The knapsacks and the scan stop at `upper`, U: L1a <= the relaxation's
    optimum <= U, and capacity c of a knapsack depends only on capacities
    up to c, so the scan below U reads the same table cells as one over the
    full range. Should no capacity up to U pass, as rounding could make it,
    the knapsacks are rebuilt and scanned over the full range.
    """
    n_tasks, m = times.shape
    finite = np.isfinite(times)
    filled = np.where(finite, times, 0.0)
    weighted = np.where(finite, filled * lam, np.inf)
    choice = weighted.argmin(axis=1)
    phi = weighted.min(axis=1).sum()
    if m == 1:
        gaps = np.full(n_tasks, np.inf)
    else:
        two = np.partition(weighted, 1, axis=1)
        gaps = two[:, 1] - two[:, 0]

    forced_sum = [0] * m
    movable = [[] for _ in range(m)]  # (weight, gap) of non-forced tasks
    for t in range(n_tasks):
        w = int(choice[t])
        p = int(times[t, w])
        if math.isinf(gaps[t]):
            forced_sum[w] += p
        else:
            movable[w].append((p, float(gaps[t])))

    hi = max(1, sum(forced_sum) + sum(p for items in movable for p, _ in items))
    if l1 > hi:
        return l1

    # step k offers each machine its k-th movable task, so every row takes
    # its own tasks in task order
    weights = np.full((max(map(len, movable)), m), np.inf)
    gains = np.zeros(weights.shape)
    for w, items in enumerate(movable):
        for k, (p, g) in enumerate(items):
            weights[k, w], gains[k, w] = p, g
    totals = [float(np.array([g for _, g in items]).sum()) for items in movable]
    start = max(l1, 1, *forced_sum)  # below a machine's forced load, c fails

    def first_passing(width):
        # the test at each c in [start, width]; the penalty adds up machine
        # by machine, so each c sees the rounding of a sum taken for it alone
        tables = _knapsack(_knapsack_plan(weights, width), gains)[-1, :, 1:]
        cs = np.arange(start, width + 1)
        penalty = np.zeros(cs.size)
        for w, table in enumerate(tables):
            penalty += totals[w] - table[cs - forced_sum[w]]
        passed = np.flatnonzero(phi + penalty <= cs + 1e-9)
        return int(cs[passed[0]]) if passed.size else None

    c = first_passing(min(upper, hi))
    if c is None and upper < hi:
        c = first_passing(hi)
    # None: every c <= hi is proven impossible
    return max(l1, hi + 1) if c is None else c


def _disjunction_value(times):
    """Strengthening by a disjunction on the machine of a single task.

    For each task, the bound conditional on placing it on machine w is the
    max of its own time there, the largest other minimum time, and the
    average-load bound with its time replaced; the minimum over feasible
    machines is valid, and so is the maximum over tasks.
    """
    n_tasks, m = times.shape
    p_min = times.min(axis=1)
    total = p_min.sum()
    if n_tasks == 1:
        others_max = np.zeros(1)
    else:
        order = np.argsort(p_min)
        top, second = order[-1], order[-2]
        others_max = np.full(n_tasks, p_min[top])
        others_max[top] = p_min[second]
    rest = total - p_min
    conditional = np.maximum(times, others_max[:, None])
    conditional = np.maximum(conditional, np.ceil((rest[:, None] + times) / m - 1e-9))
    per_task = np.min(conditional, axis=1)  # inf cells dominate and drop out
    return int(per_task.max())


def _precedence_free_makespan(times):
    """Makespan S of a schedule that ignores precedence: _repair of the
    packing that puts every task on its cheapest machine alone."""
    rows = times.tolist()
    return _repair(rows, [[row.index(min(row))] for row in rows])


def _descend(rows, where, loads):
    """Improve the schedule that puts task t on machine where[t], with the
    given machine loads, in place, and return its makespan. While a task on
    a most-loaded machine can move to another machine and end that
    machine's load below the makespan, the move with the smallest larger of
    the two new loads is made. Each move lowers the makespan or the number
    of machines at it, so the loop ends. The tasks of each machine are kept
    in ascending lists, so a move scans only the most-loaded machine's."""
    on = [[] for _ in loads]
    for t, w in enumerate(where):
        on[w].append(t)
    while True:
        peak = max(loads)
        top = loads.index(peak)
        move = None
        for t in on[top]:
            row = rows[t]
            for w, p in enumerate(row):
                if w != top and loads[w] + p < peak:
                    key = max(loads[w] + p, peak - row[top])
                    if move is None or key < move[0]:
                        move = (key, t, w)
        if move is None:
            return int(peak)
        _, t, w = move
        loads[top] -= rows[t][top]
        loads[w] += rows[t][w]
        where[t] = w
        on[top].remove(t)
        insort(on[w], t)


def _repair(rows, packs):
    """Makespan of a schedule made from L2's knapsack packings, where
    packs[t] lists the machines that pack task t. A packed task goes to the
    cheapest machine that packs it; then each unpacked task, in task order,
    to the machine where its load ends lowest; then _descend."""
    where = [min(machines, key=row.__getitem__) if machines else None for row, machines in zip(rows, packs)]
    loads = [0.0] * len(rows[0])
    for row, w in zip(rows, where):
        if w is not None:
            loads[w] += row[w]
    for t, row in enumerate(rows):
        if where[t] is None:
            ends = [load + p for load, p in zip(loads, row)]
            w = where[t] = ends.index(min(ends))
            loads[w] = ends[w]
    return _descend(rows, where, loads)


def _l2_tables(times, capacity):
    """Knapsack plan and trace order of L2 at one width: each task is one
    step, an item on every machine it fits."""
    n_tasks, m = times.shape
    plan = _knapsack_plan(times, capacity)
    # per machine, last task first: (flat offset of capacity 0 of row w in
    # the layers after step t, weight, task)
    stride = plan.width + 1
    trace = [
        [((t * m + w) * stride + 1, int(times[t, w]), t) for t in range(n_tasks - 1, -1, -1) if plan.present[t, w]]
        for w in range(m)
    ]
    return plan, trace


def _l2_cover(tables, mu_plus, target):
    """Smallest capacity c* whose knapsacks reach `target` (the table width
    if none does), and for each task the machines whose best subsets at c*
    pack it. The traceback reads one compare of consecutive layers, 2 more
    bytes per DP cell while it runs (the bools and their bytes)."""
    plan, trace = tables
    layers = _knapsack(plan, mu_plus[:, None])
    g = np.zeros(plan.width)
    for row in layers[-1, :, 1:]:
        g += row
    reached = np.flatnonzero(g >= target - 1e-9)
    c_star = int(reached[0]) if reached.size else plan.width
    bits = (layers[1:] > layers[:-1]).tobytes()
    packs = [[] for _ in mu_plus]
    for w, items in enumerate(trace):
        # trace back the subset behind the best profit at c_star
        c = min(c_star, plan.width - 1)
        for offset, weight, t in items:
            if bits[offset + c]:
                packs[t].append(w)
                c -= weight
    return c_star, packs


def _l2_value(times, max_iters, upper):
    """Lagrangian bound from relaxing the task assignment constraints.

    For multipliers mu, a makespan-c schedule packs, per machine, tasks of
    mu-value at least sum(mu) in total, so the smallest c* whose per-machine
    all-capacities knapsacks reach sum(mu) is a valid bound. Multipliers are
    updated by a subgradient step on the coverage counts of the knapsack
    solutions; the best bound over the iterations is kept.

    `upper` is U, the makespan of a precedence-free schedule (S from
    _relaxation_bounds), and the knapsacks stop at the capacity U has on
    entry: that schedule packs every task within U, so the knapsacks reach
    sum(mu+) >= sum(mu) by U and c* <= U. Capacity c of a knapsack depends
    only on capacities up to c, so the values and the traced subsets are
    those of knapsacks over each machine's full load. An iteration costs
    O(n * m * U) cell updates instead of O(n * m * sum p). Should rounding
    keep the sum below the target at U, that iteration is redone at full
    width.

    Each iteration's packings are repaired into a schedule (_repair) that
    may lower U, and once the best bound reaches U after an iteration that
    needed no full-width redo, the remaining iterations cannot raise it and
    are skipped. Returns the bound and U.
    """
    mu = times.min(axis=1)
    step0 = max(1.0, float(mu.mean()) / 2.0)
    best = 1

    cap = upper
    capped = _l2_tables(times, cap)
    full = None
    rows = times.tolist()
    for it in range(1, max_iters + 1):
        mu_plus = np.clip(mu, 0.0, None)
        target = float(mu.sum())
        c_star, packs = _l2_cover(capped, mu_plus, target)
        redone = c_star > cap
        if redone:
            if full is None:
                loads = np.where(np.isfinite(times), times, 0.0).sum(axis=0)
                full = _l2_tables(times, max(int(loads.max()), 1))
            c_star, packs = _l2_cover(full, mu_plus, target)
        best = max(best, c_star)
        if best < upper:
            upper = min(upper, _repair(rows, packs))
        if best >= upper and not redone:
            break
        coverage = np.fromiter(map(len, packs), float, len(packs))
        mu = mu + (step0 / it) * (1.0 - coverage)
    return best, upper


def _relaxation_bounds(times, l1_iters, l2_iters):
    """L1, L1a, L1a_bar, L2 and L2_bar of one matrix, by name, from one L2
    and one ascent. U starts at S and each step takes it and returns it,
    lowered by the schedules it built: L2 first, so the ascent starts from
    the U that L2's repairs left and returns L1 with it, and L1a comes from
    its knapsack only while L1 is below U. L1a_bar and L2_bar share one
    disjunction value, which does not depend on the bound it strengthens."""
    upper = _precedence_free_makespan(times)
    l2, upper = _l2_value(times, l2_iters, upper)
    l1, lam, upper = _l1_ascent(times, l1_iters, upper)
    l1a = l1 if l1 >= upper else _l1_additive(times, l1, lam, upper)
    disjunction = _disjunction_value(times)
    return {
        "L1": l1,
        "L1a": l1a,
        "L1a_bar": max(l1a, disjunction),
        "L2": l2,
        "L2_bar": max(l2, disjunction),
    }


# ---------------------------------------------------------------------------


_SINGLE = {"LC1": lc1, "LC2": lc2, "LC3": lc3}
_RELAXATION = ("L1", "L1a", "L1a_bar", "L2", "L2_bar")


def all_bounds(inst, include=NATIVE_BOUNDS, l1_iters=DEFAULT_L1_ITERS, l2_iters=DEFAULT_L2_ITERS):
    """Compute the requested bounds and report values with compute times.

    The LC bounds are computed one by one, each when its entry is reached.
    The five relaxation bounds come from one _relaxation_bounds call, made
    at the first relaxation entry, whose elapsed_s covers all of that work;
    later relaxation entries read about 0.
    """
    if l1_iters < 1 or l2_iters < 1:
        raise ValueError("l1_iters and l2_iters must be >= 1")
    relaxation = None
    report = BoundReport()
    for name in include:
        t0 = time.perf_counter()
        if name in _SINGLE:
            value = _SINGLE[name](inst)
        elif name in _RELAXATION:
            if relaxation is None:
                relaxation = _relaxation_bounds(inst.times_array, l1_iters, l2_iters)
            value = relaxation[name]
        else:
            raise ValueError(f"unknown bound {name!r}")
        report.entries.append(BoundEntry(name, int(value), time.perf_counter() - t0))
    return report
