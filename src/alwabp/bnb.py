"""Task-oriented branch-and-bound with an exhaustive verification oracle.

The search assigns one task per level to every worker that keeps the worker
order graph acyclic, applies reduction rules that pin, exclude and prune
task-worker cells, and bounds each node on the reduced time matrix. The
worker order graph is kept transitively closed as one bitmask row per
worker, and the reduced time matrix as one Python list per task. Every
node owns its state: a child starts as a copy of its parent, so nothing is
ever undone.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from . import bounds as lb
from .heuristic import IpbsParams, ipbs
from .instance import (
    INFEASIBLE,
    CycleError,
    EnumerationLimitError,
    InfeasibleInstanceError,
    Solution,
    iter_bits,
    topological_order,
)

OPTIMAL = "optimal"
FEASIBLE_TIME_LIMIT = "feasible_time_limit"
INFEASIBLE_STATUS = "infeasible"

ORACLE_LEAF_LIMIT = 10**8

# the warm start's beam: an incumbent fast, not the paper's wide search
WARM_START_GAMMA = 10
WARM_START_BEAM_FACTOR = 1


class WorkerOrderGraph:
    """Directed graph over workers, kept transitively closed: bit w of
    rows[v] is set when v's station precedes w's."""

    def __init__(self, n):
        self.n = n
        self.rows = [0] * n

    def has(self, v, w):
        return bool(self.rows[v] >> w & 1)

    def copy(self):
        graph = WorkerOrderGraph(self.n)
        graph.rows = list(self.rows)
        return graph

    def link(self, before, w, after):
        """Add the arcs v -> w for the workers v of mask `before` and w -> x
        for the workers x of mask `after` (neither holding w), with their
        transitive consequences: every row that reaches w or a worker of
        `before` gains w and all w now reaches. Returns False, changing
        nothing, when the arcs would close a cycle, and True otherwise."""
        rows = self.rows
        reach = rows[w] | after
        for x in iter_bits(after):
            reach |= rows[x]
        hit = before | 1 << w
        if reach & hit:
            return False
        rows[w] = reach
        reach |= 1 << w
        for v, row in enumerate(rows):
            if row & hit or before >> v & 1:
                rows[v] = row | reach
        return True

    def topological_order(self):
        """All workers in an arc-respecting order, lowest index first."""
        return topological_order([list(iter_bits(row)) for row in self.rows], self.n)


class SearchState:
    """The state of one search node; a child node starts as a copy."""

    def __init__(self, inst):
        self.inst = inst
        self.eff = [list(row) for row in inst.times]
        self.assignment = {}
        self.on_worker = [0] * inst.n_workers  # bitmask of the tasks assigned to each worker
        self.loads = [0] * inst.n_workers
        self.order_graph = WorkerOrderGraph(inst.n_workers)

    def child(self):
        node = SearchState.__new__(SearchState)
        node.inst = self.inst
        node.eff = [row[:] for row in self.eff]
        node.assignment = dict(self.assignment)
        node.on_worker = list(self.on_worker)
        node.loads = list(self.loads)
        node.order_graph = self.order_graph.copy()
        return node

    def mark_infeasible(self, t, w):
        """Set a cell infeasible; returns False when task t loses its last
        worker (the node is then dead)."""
        row = self.eff[t]
        if row[w] == INFEASIBLE:
            return True
        row[w] = INFEASIBLE
        return min(row) != INFEASIBLE

    def fingerprint(self):
        return (
            tuple(map(tuple, self.eff)),
            tuple(self.loads),
            tuple(sorted(self.assignment.items())),
            tuple(self.on_worker),
            tuple(self.order_graph.rows),
        )


def _neighbour_workers(state, preds, succs):
    """Masks of the workers holding an assigned task of the task mask preds
    and of the task mask succs; the worker the task in question goes to is
    the caller's to exclude."""
    before = after = 0
    for w, tasks in enumerate(state.on_worker):
        if preds & tasks:
            before |= 1 << w
        if succs & tasks:
            after |= 1 << w
    return before, after


def set_assignment(state, t, w):
    """Assign t to w and pin it there (rule R1): its other cells become
    infeasible. Returns False, changing nothing, when the assignment would
    close a cycle in the worker order graph."""
    assert state.eff[t][w] != INFEASIBLE, "assignment to an infeasible cell"
    if not _assign(state, t, w):
        return False
    for w2 in range(state.inst.n_workers):
        if w2 != w:
            state.mark_infeasible(t, w2)
    return True


def _assign(state, t, w):
    """Assign t to w and link its worker into the order graph; returns False,
    changing nothing, when that would close a cycle."""
    inst = state.inst
    before, after = _neighbour_workers(state, inst.pred_star[t], inst.succ_star[t])
    other = ~(1 << w)
    if not state.order_graph.link(before & other, w, after & other):
        return False
    state.assignment[t] = w
    state.on_worker[w] |= 1 << t
    state.loads[w] += inst.times[t][w]
    return True


def apply_reduction_rules(state, t, w, gub):
    """Fixpoint of the three node reductions after assigning t to w.

    R1 pins the task: all its other cells become infeasible (for t,
    set_assignment has done so, and t's other cells seed the propagation;
    a seed an ancestor node has already propagated marks nothing new). R2
    enforces continuity: a task between two tasks of one worker is assigned
    there too, and everything beyond an infeasible intermediate is excluded
    on that worker. R3 excludes a candidate cell whose chain would already
    reach the incumbent, once per (newly) assigned task against the
    then-current matrix. Returns True when the node is DEAD.
    """
    inst = state.inst
    m = inst.n_workers
    eff = state.eff
    asg = state.assignment
    succ_star, pred_star = inst.succ_star, inst.pred_star
    pending_assign = [t]
    pending_marks = [(t, w2) for w2, p in enumerate(inst.times[t]) if w2 != w and p != INFEASIBLE]

    def mark(task, worker):
        if asg.get(task) == worker:
            return False  # contradiction: an assigned task lost its own cell
        if eff[task][worker] == INFEASIBLE:
            return True
        if not state.mark_infeasible(task, worker):
            return False
        pending_marks.append((task, worker))
        return True

    while pending_assign or pending_marks:
        if pending_assign:
            a = pending_assign.pop()
            wa = asg[a]
            for w2 in range(m):
                if w2 != wa and not mark(a, w2):
                    return True
            # continuity forcing against every task already pinned on wa
            for b, wb in list(asg.items()):
                if wb != wa or b == a:
                    continue
                for j in iter_bits(succ_star[a] & pred_star[b] | succ_star[b] & pred_star[a]):
                    if j in asg:
                        if asg[j] != wa:
                            return True
                        continue
                    if eff[j][wa] == INFEASIBLE or not _assign(state, j, wa):
                        return True
                    pending_assign.append(j)
            # infeasible intermediates already present around a
            for star in (succ_star, pred_star):
                for j in iter_bits(star[a]):
                    if eff[j][wa] == INFEASIBLE:
                        for k in iter_bits(star[j]):
                            if not mark(k, wa):
                                return True
            # chain-load exclusion relative to the incumbent
            pa = eff[a][wa]
            after_a, before_a = succ_star[a], pred_star[a]
            for t2 in iter_bits(after_a | before_a):
                if t2 in asg or eff[t2][wa] == INFEASIBLE:
                    continue
                total = pa + eff[t2][wa]
                for u in iter_bits(after_a & pred_star[t2] | succ_star[t2] & before_a):
                    total += eff[u][wa]
                if total >= gub and not mark(t2, wa):
                    return True
        else:
            j, wj = pending_marks.pop()
            # propagate exclusions induced by the fresh mark
            on_wj = state.on_worker[wj]
            for star, star_rev in ((succ_star, pred_star), (pred_star, succ_star)):
                if star_rev[j] & on_wj:
                    for k in iter_bits(star[j]):
                        if not mark(k, wj):
                            return True
    return False


def select_branch_task(state, gub):
    """Unassigned task with the most infeasible workers; ties go to the task
    with the largest worker-minimal average-load bound, then the smallest
    index. A worker is infeasible for a task when its cell is excluded, when
    pinning would create an immediate cyclic worker dependency, or when the
    average-load bound after pinning (the max of the new worker loads and
    the ceiling of the effective total over the stations) reaches the
    incumbent. Returns the task and the (bound, worker) pairs of its
    feasible workers, in worker order."""
    inst = state.inst
    m = inst.n_workers
    eff = state.eff
    p_min = [min(row) for row in eff]
    total = sum(p_min)
    loads = state.loads
    max_load = max(loads)
    rows = state.order_graph.rows
    best = None
    for t in range(inst.n_tasks):
        if t in state.assignment:
            continue
        # an immediate cycle: w precedes a worker holding a direct
        # predecessor of t, or follows one holding a direct successor (no
        # row holds its own bit, so a neighbour on w itself is no cycle)
        pred_workers, succ_workers = _neighbour_workers(state, inst.pred_mask[t], inst.succ_mask[t])
        follows = 0
        for x in iter_bits(succ_workers):
            follows |= rows[x]
        pairs = []
        rest = total - p_min[t]
        for w, p in enumerate(eff[t]):
            if p == INFEASIBLE or rows[w] & pred_workers or follows >> w & 1:
                continue
            after = max(max_load, loads[w] + p, math.ceil((rest + p) / m - 1e-9))
            if after < gub:
                pairs.append((after, w))
        key = (m - len(pairs), min(pairs)[0] if pairs else math.inf, -t)
        if best is None or key > best[0]:
            best = (key, t, pairs)
    return best[1], best[2]


def _node_bound(state, gub):
    """Bound the completions of the current node on the reduced matrix: the
    loads, then LC1, LC2 and LC3 on the minimum times, returning once a stage
    reaches the incumbent. A node ascent would cost more than it prunes.

    LC3 is searched only on [value so far, gub]: below the value it cannot
    raise the bound, and at gub the node is pruned whatever LC3's exact
    value. So the result is exact below gub and at least gub otherwise."""
    inst = state.inst
    m = inst.n_workers
    p_min = [min(row) for row in state.eff]
    total = sum(p_min)
    value = max(max(state.loads), max(p_min), -(-total // m))
    if value >= gub:
        return value
    value = max(value, lb._lc2(sorted(p_min, reverse=True), m))
    if value >= gub:
        return value
    return lb._lc3(inst, p_min, value, min(max(value, total), gub))


@dataclass
class BnbConfig:
    time_limit: float | None = None
    seed: int = 42
    heuristic_on: bool = True
    reduction_rules: bool = True
    l1_iters: int = lb.DEFAULT_L1_ITERS
    l2_iters: int = lb.DEFAULT_L2_ITERS
    incumbent: Solution | None = None


@dataclass
class BnbResult:
    solution: Solution | None
    value: int | None
    status: str
    nodes: int
    elapsed_s: float
    root_bounds: lb.BoundReport = field(default_factory=lb.BoundReport)


class _TimeUp(Exception):
    pass


class _Search:
    def __init__(self, inst, config, gub, incumbent, deadline):
        self.inst = inst
        self.config = config
        self.gub = gub
        self.incumbent = incumbent
        self.deadline = deadline
        self.nodes = 0

    def run(self, root_llb):
        self.visit(SearchState(self.inst), root_llb)

    def visit(self, state, llb):
        self.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _TimeUp
        inst = self.inst
        if len(state.assignment) == inst.n_tasks:
            value = max(state.loads)
            if value < self.gub:
                self.gub = value
                order = state.order_graph.topological_order()
                assignment = [state.assignment[t] for t in range(inst.n_tasks)]
                self.incumbent = Solution(order, assignment, value)
            return
        # pairs holds every worker the task can go to below the incumbent
        # without an immediate cycle; set_assignment rejects the rest
        t, pairs = select_branch_task(state, self.gub)
        for after, w in sorted(pairs):
            if after >= self.gub:  # the incumbent may have improved mid-loop
                continue
            child = state.child()
            if not set_assignment(child, t, w):
                continue
            if self.config.reduction_rules and apply_reduction_rules(child, t, w, self.gub):
                continue
            new_llb = max(llb, _node_bound(child, self.gub))
            if new_llb < self.gub:
                self.visit(child, new_llb)


def branch_and_bound(inst, config=None):
    """Solve to optimality (or the time limit): root bounds, the only
    Lagrangian ascent; a narrow-beam ipbs incumbent; then depth-first
    task-oriented search with the cheap bounds of _node_bound."""
    if config is None:
        config = BnbConfig()
    t0 = time.monotonic()
    root_report = lb.all_bounds(inst, lb.NATIVE_BOUNDS, config.l1_iters, config.l2_iters)
    root_lb = root_report.best

    deadline = None if config.time_limit is None else t0 + config.time_limit
    incumbent = config.incumbent
    if config.heuristic_on:
        t_max = max(0.5, inst.n_tasks * inst.n_workers / 10)
        if deadline is not None:
            t_max = min(t_max, max(0.0, deadline - time.monotonic()))
        params = IpbsParams(WARM_START_GAMMA, WARM_START_BEAM_FACTOR, t_min=0.0, t_max=t_max, seed=config.seed)
        try:
            heur = ipbs(inst, params, lower_bound=root_lb)
        except InfeasibleInstanceError:
            heur = None
        if heur is not None and (incumbent is None or heur.cycle_time < incumbent.cycle_time):
            incumbent = heur
    gub = incumbent.cycle_time if incumbent is not None else math.inf

    if incumbent is not None and root_lb >= gub:
        return BnbResult(incumbent, gub, OPTIMAL, 1, time.monotonic() - t0, root_report)

    search = _Search(inst, config, gub, incumbent, deadline)
    status = OPTIMAL
    try:
        search.run(root_lb)
    except _TimeUp:
        status = FEASIBLE_TIME_LIMIT
    if status == OPTIMAL and search.incumbent is None:
        status = INFEASIBLE_STATUS
    value = search.incumbent.cycle_time if search.incumbent is not None else None
    return BnbResult(search.incumbent, value, status, search.nodes, time.monotonic() - t0, root_report)


def _digraph_is_acyclic(mask, m):
    succ = [[w for w in range(m) if v != w and (mask >> (v * m + w)) & 1] for v in range(m)]
    try:
        topological_order(succ, m)
    except CycleError:
        return False
    return True


def brute_force_optimal(inst):
    """Exhaustive oracle: minimum cycle time over every task-worker map whose
    induced worker digraph is acyclic; INFEASIBLE if none is."""
    n, m = inst.n_tasks, inst.n_workers
    leaves = m**n * math.factorial(m)
    if leaves > ORACLE_LEAF_LIMIT:
        raise EnumerationLimitError(f"{leaves} leaf combinations exceed the enumeration guard")
    closure = sorted(inst.closure)
    acyclic = {}  # worker digraph mask -> acyclic?, for this call only
    best = INFEASIBLE
    for combo in itertools.product(*inst.feasible_workers):
        mask = 0
        for a, b in closure:
            va, vb = combo[a], combo[b]
            if va != vb:
                mask |= 1 << (va * m + vb)
        ok = acyclic.get(mask)
        if ok is None:
            ok = acyclic[mask] = _digraph_is_acyclic(mask, m)
        if not ok:
            continue
        loads = [0] * m
        for t, w in enumerate(combo):
            loads[w] += inst.times[t][w]
        cycle = max(loads)
        if cycle < best:
            best = cycle
    return best
