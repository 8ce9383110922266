"""Lower bounds on the optimal cycle time.

Two relaxation families are implemented. Relaxing every task time to its
per-task minimum gives a homogeneous-line problem, bounded by LC1, LC2 and
LC3 (station windows). Dropping the precedence constraints gives makespan
minimization on unrelated parallel machines, bounded by a Lagrangian dual
of the cycle constraints (L1), its knapsack-based additive improvement
(L1a), a Lagrangian dual of the assignment constraints (L2), and a
disjunctive strengthening of either (L1a_bar, L2_bar).

None of the second family can exceed the makespan U of any schedule that
ignores precedence. One `all_bounds` call keeps the best such U it knows
(_UpperBound): the descent schedule S to start with, lowered by the
schedules the bounds build anyway (L2's knapsack packings, repaired, and
each ascent iteration's cheapest-machine assignment). A bound that reaches
U has its final value, so L2's iterations and the ascent stop there, and
L1a needs no knapsack once L1 has reached it.
"""

from __future__ import annotations

import functools
import math
import time
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


@dataclass
class StationWindow:
    earliest: tuple
    latest: tuple


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


def station_windows(inst, cycle_time):
    """Earliest and latest feasible station of each task at a candidate
    cycle time, both 1-based. The window may be empty (earliest > latest)."""
    heads, tails = _heads_tails(inst, inst.min_times)
    m = inst.n_workers
    return StationWindow(
        tuple(_ceil_div(h, cycle_time) for h in heads),
        tuple(m + 1 - _ceil_div(t, cycle_time) for t in tails),
    )


def _heads_tails(inst, p):
    """Per task, its time p plus the times of all its transitive
    predecessors (heads) and of all its transitive successors (tails), as
    lists of ints; one product each with the instance's reach matrix."""
    p = np.asarray(p, dtype=np.int64)
    reach = inst.reach_matrix
    return (p @ reach).tolist(), (reach @ p).tolist()


def lc3(inst):
    """Smallest cycle time for which every task has a non-empty station window."""
    p = inst.min_times
    lo = max(1, max(p))
    return _lc3(inst, p, lo, max(lo, sum(p)))


def _lc3(inst, p, lo, hi):
    """LC3 of the times p searched on the window [lo, hi] only: the smallest
    c in it at which every task has a non-empty station window, or hi if
    there is none, which is min(max(LC3, lo), hi) for lo >= max(1, max(p)).
    Task t's window at c is non-empty when ceil(head_t / c) + ceil(tail_t / c)
    <= m + 1, and that only gets easier as c grows. A node bound asks only
    whether LC3 reaches the incumbent, so it passes the value it already has
    and the incumbent as the window; the root lc3 passes the full range."""
    heads, tails = _heads_tails(inst, p)
    limit = inst.n_workers + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if all(-(-h // mid) - (-t // mid) <= limit for h, t in zip(heads, tails)):
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# Unrelated-parallel-machines relaxation


def _l1_ascent(times, max_iters, upper=None):
    """Maximize the dual value sum_t min_w (lam_w * p_tw) over the simplex.

    Projected-subgradient ascent: the gradient component of machine w is the
    total (actual) time of the tasks currently cheapest on w; the direction is
    recentered so multipliers stay on the simplex, clipped at zero and
    renormalized. Any multiplier vector on the simplex yields a valid bound,
    so the running best is kept.

    Given `upper` (an _UpperBound), the tasks' cheapest machines of each
    iteration form a schedule whose largest load may lower U, and the
    ascent stops once the L1 of its best value reaches U. L1 <= the
    relaxation's optimum <= U, so L1 is final then, and so is L1a, which
    lies between the two: the multipliers it would read are not needed.
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
            l1 = _l1_of(best_val, p_min_max)
        loads = np.bincount(choice, weights=filled[rows, choice], minlength=m)
        if upper is not None:
            upper.lower(max(loads.tolist()))
            if l1 >= upper.value:
                break
        direction = loads - np.add.reduce(loads) / m
        norm = np.abs(direction).max()
        if norm < 1e-12:
            break
        lam = lam + (0.5 / (m * k)) * direction / norm
        np.maximum(lam, 0.0, out=lam)
        lam /= np.add.reduce(lam)
    return best_val, best_lam


def _l1_of(dual_value, p_min_max):
    """L1 from a dual value: rounded up, and at least the largest task's
    smallest time."""
    return max(math.ceil(dual_value - 1e-9), p_min_max)


def _l1_chain(times, max_iters, upper=None):
    """Yield L1, L1a and L1a_bar of one matrix in turn, all from a single
    ascent. Each value is computed only when it is requested, so taking
    just L1 runs no knapsack, and neither does L1a once L1 reaches U."""
    if upper is None:
        upper = _UpperBound(times)
    best_val, lam = _l1_ascent(times, max_iters, upper)
    l1 = _l1_of(best_val, int(times.min(axis=1).max()))
    yield l1
    l1a = l1 if l1 >= upper.value else _l1_additive(times, l1, lam)
    yield l1a
    yield _disjunction_value(times, l1a)


@dataclass(frozen=True)
class _KnapsackPlan:
    """Index plan of `_knapsack`, built once per weight matrix.

    Step k offers, on every row r whose weight weights[k, r] is at most the
    capacity, one item of that weight; other cells are absent. Column j of
    the kernel's table is capacity j - pad, and the pad columns hold -inf.
    """

    width: int  # capacities 0..width-1
    pad: int  # the largest weight of a present cell
    present: np.ndarray  # (steps, rows) bool
    starts: np.ndarray  # (steps, rows) first table column of a cell's source


def _knapsack_plan(weights, capacity):
    present = weights <= capacity
    w = np.where(present, weights, 0).astype(np.int32)
    pad = int(w.max(initial=0))
    return _KnapsackPlan(capacity + 1, pad, present, pad - w)


def _knapsack(plan, profits, took=None):
    """0/1 knapsack for every capacity 0..width-1 on all rows at once.

    Rows are independent knapsacks; each row takes its items in step order,
    and one step updates every row with one gather, add, compare and max
    over an array of shape (rows, width). An absent cell gets profit -inf,
    and a present one reads -inf from the pad at capacities below its
    weight, so neither changes the row there, and every other cell is
    computed by the same float operations as a 1-D DP over that row's items
    alone. The cost is O(steps * rows * width) cell updates.

    `profits` broadcasts to (steps, rows). Returns the (rows, width) table of
    best profits. If `took` is given, an array of shape (steps, rows, width),
    its cell [k, r, c] is set to whether taking row r's item of step k
    strictly improved capacity c. On a tie the item is not taken, so tracing
    back from the last step yields, among the best subsets of a row, the one
    that prefers items of lower steps.
    """
    rows = plan.present.shape[1]
    gains = np.where(plan.present, profits, -np.inf)[:, :, None]
    table = np.zeros((rows, plan.pad + plan.width))
    table[:, : plan.pad] = -np.inf
    best = table[:, plan.pad :]
    sources = np.lib.stride_tricks.sliding_window_view(table, plan.width, axis=1)
    row_ids = np.arange(rows)
    for k, (starts, gain) in enumerate(zip(plan.starts, gains)):
        taken = sources[row_ids, starts]
        taken += gain
        if took is not None:
            np.greater(taken, best, out=took[k])
        np.maximum(best, taken, out=best)
    return best


def _l1_additive(times, l1, lam):
    """Additive improvement of the cycle-constraint dual.

    With multipliers lam, any schedule of makespan c satisfies
    c >= phi(lam) + (total reassignment cost it pays), where a task moved off
    its cheapest machine pays at least the gap to its second-cheapest one.
    Tasks cheapest on machine w that stay on w must fit into capacity c, so
    the minimum cost is bounded through an all-capacities knapsack per
    machine (one `_knapsack` call over all machines, each movable task an
    item on its cheapest machine only), reused for every trial c of a binary
    search for the smallest c not proven impossible.
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

    hi = sum(forced_sum) + sum(p for items in movable for p, _ in items)
    hi = max(hi, 1)
    lo = max(l1, 1)
    if lo > hi:
        return l1

    # step k offers each machine its k-th movable task, so every row takes
    # its own tasks in task order
    weights = np.full((max(map(len, movable)), m), np.inf)
    gains = np.zeros(weights.shape)
    for w, items in enumerate(movable):
        for k, (p, g) in enumerate(items):
            weights[k, w], gains[k, w] = p, g
    tables = _knapsack(_knapsack_plan(weights, hi), gains)
    totals = [float(np.array([g for _, g in items]).sum()) for items in movable]

    def passes(c):
        penalty = 0.0
        for w in range(m):
            rem = c - forced_sum[w]
            if rem < 0:
                return False
            penalty += totals[w] - tables[w][min(rem, hi)]
        return phi + penalty <= c + 1e-9

    if not passes(hi):
        # every c <= hi is proven impossible
        return max(l1, hi + 1)
    a, b = lo, hi
    while a < b:
        mid = (a + b) // 2
        if passes(mid):
            b = mid
        else:
            a = mid + 1
    return max(l1, a)


def _disjunction_value(times, base):
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
    return max(base, int(per_task.max()))


def _precedence_free_makespan(times):
    """Makespan S of a schedule that ignores precedence: every task on its
    cheapest machine, then the move descent of _descend."""
    rows = times.tolist()
    where = [row.index(min(row)) for row in rows]
    loads = [0.0] * len(rows[0])
    for row, w in zip(rows, where):
        loads[w] += row[w]
    return _descend(rows, where, loads)


def _descend(rows, where, loads):
    """Improve the schedule that puts task t on machine where[t], with the
    given machine loads, in place, and return its makespan. While a task on
    a most-loaded machine can move to another machine and end that
    machine's load below the makespan, the move with the smallest larger of
    the two new loads is made. Each move lowers the makespan or the number
    of machines at it, so the loop ends."""
    while True:
        peak = max(loads)
        top = loads.index(peak)
        move = None
        for t, row in enumerate(rows):
            if where[t] != top:
                continue
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


class _UpperBound:
    """U, the smallest makespan of a schedule that ignores precedence known
    so far: S (_precedence_free_makespan) until a schedule built by a bound
    lowers it. Every bound of the unrelated-machines relaxation is at most
    that relaxation's optimum, so none exceeds U."""

    def __init__(self, times):
        self.times = times

    @functools.cached_property
    def value(self):
        return _precedence_free_makespan(self.times)

    def lower(self, makespan):
        if makespan < self.value:
            self.value = int(makespan)


def _l2_tables(times, capacity):
    """Knapsack plan, traceback table and trace order of L2 at one width:
    each task is one step, an item on every machine it fits."""
    n_tasks, m = times.shape
    plan = _knapsack_plan(times, capacity)
    took = np.zeros((n_tasks, m, plan.width), dtype=bool)
    # per machine, last task first: (offset of took[t, w, 0], weight, task)
    trace = [
        [((t * m + w) * plan.width, int(times[t, w]), t) for t in range(n_tasks - 1, -1, -1) if plan.present[t, w]]
        for w in range(m)
    ]
    return plan, took, trace


def _l2_cover(tables, mu_plus, target):
    """Smallest capacity c* whose knapsacks reach `target` (the table width
    if none does), and for each task the machines whose best subsets at c*
    pack it."""
    plan, took, trace = tables
    best = _knapsack(plan, mu_plus[:, None], took)
    g = np.zeros(plan.width)
    for row in best:
        g += row
    reached = np.flatnonzero(g >= target - 1e-9)
    c_star = int(reached[0]) if reached.size else plan.width
    bits = took.tobytes()
    packs = [[] for _ in mu_plus]
    for w, items in enumerate(trace):
        # trace back the subset behind the best profit at c_star
        c = min(c_star, plan.width - 1)
        for offset, weight, t in items:
            if bits[offset + c]:
                packs[t].append(w)
                c -= weight
    return c_star, packs


def _l2_value(times, max_iters, upper=None):
    """Lagrangian bound from relaxing the task assignment constraints.

    For multipliers mu, a makespan-c schedule packs, per machine, tasks of
    mu-value at least sum(mu) in total, so the smallest c* whose per-machine
    all-capacities knapsacks reach sum(mu) is a valid bound. Multipliers are
    updated by a subgradient step on the coverage counts of the knapsack
    solutions; the best bound over the iterations is kept.

    The knapsacks stop at capacity S, the makespan of a precedence-free
    schedule (_precedence_free_makespan). That schedule packs every task
    within S, so the knapsacks reach sum(mu+) >= sum(mu) by S and c* <= S.
    Capacity c of a knapsack depends only on capacities up to c, so the
    values and the traced subsets are those of knapsacks over each machine's
    full load. An iteration costs O(n * m * S) cell updates instead of
    O(n * m * sum p). Should rounding keep the sum below the target at S,
    that iteration is redone at full width.

    For the same reason no c* exceeds U, the makespan of the best
    precedence-free schedule known (`upper`, an _UpperBound starting at S).
    Each iteration's packings are repaired into a schedule (_repair) that
    may lower U, and once the best bound reaches U after an iteration that
    needed no full-width redo, the remaining iterations cannot raise it and
    are skipped.
    """
    if upper is None:
        upper = _UpperBound(times)
    mu = times.min(axis=1)
    step0 = max(1.0, float(mu.mean()) / 2.0)
    best = 1

    cap = upper.value
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
        if best < upper.value:
            upper.lower(_repair(rows, packs))
        if best >= upper.value and not redone:
            break
        coverage = np.fromiter(map(len, packs), float, len(packs))
        mu = mu + (step0 / it) * (1.0 - coverage)
    return best


def _l2_chain(times, max_iters, upper=None):
    """Yield L2, then L2_bar strengthened from it."""
    l2 = _l2_value(times, max_iters, upper)
    yield l2
    yield _disjunction_value(times, l2)


# ---------------------------------------------------------------------------


# bound name -> (chain, position of the bound in it)
_CHAINED = {
    "L1": ("L1", 0),
    "L1a": ("L1", 1),
    "L1a_bar": ("L1", 2),
    "L2": ("L2", 0),
    "L2_bar": ("L2", 1),
}
_SINGLE = {"LC1": lc1, "LC2": lc2, "LC3": lc3}


def all_bounds(inst, include=NATIVE_BOUNDS, l1_iters=DEFAULT_L1_ITERS, l2_iters=DEFAULT_L2_ITERS):
    """Compute the requested bounds and report values with compute times.

    L1, L1a and L1a_bar share one ascent, and L2_bar reuses L2; each shared
    result is computed once, when the first entry that needs it is reached,
    and nothing that no requested entry needs is computed. Both chains share
    one _UpperBound U, the best precedence-free makespan known, and stop
    once their value reaches it. When both chains are requested, L2 runs
    before the ascent, so the ascent starts from the U that L2's schedules
    left. An entry's elapsed_s covers only the work done for it, so shared
    work counts against the first entry that needs it: S counts against the
    first entry of either chain, L2 also against the first of L1, L1a and
    L1a_bar when both chains are requested, and L2_bar after L2 reads about
    0.
    """
    if l1_iters < 1 or l2_iters < 1:
        raise ValueError("l1_iters and l2_iters must be >= 1")
    times = inst.times_array
    requested = {_CHAINED[name][0] for name in include if name in _CHAINED}
    upper = _UpperBound(times)
    # generator and the values taken from it so far; a generator runs
    # nothing until its first value is taken
    chains = {
        "L1": (_l1_chain(times, l1_iters, upper), []),
        "L2": (_l2_chain(times, l2_iters, upper), []),
    }

    def take(chain, pos):
        gen, values = chains[chain]
        while len(values) <= pos:
            values.append(next(gen))
        return values[pos]

    report = BoundReport()
    for name in include:
        t0 = time.perf_counter()
        if name in _SINGLE:
            value = _SINGLE[name](inst)
        elif name in _CHAINED:
            chain, pos = _CHAINED[name]
            if chain == "L1" and "L2" in requested:
                take("L2", 0)
            value = take(chain, pos)
        else:
            raise ValueError(f"unknown bound {name!r}")
        report.entries.append(BoundEntry(name, int(value), time.perf_counter() - t0))
    return report
