"""Task-oriented branch-and-bound with an exhaustive verification oracle.

The search assigns one task per level to every worker that keeps the worker
order graph acyclic, applies reduction rules that pin, exclude and prune
task-worker cells, and bounds each node on the reduced time matrix. The
worker order graph is kept transitively closed as one bitmask row per
worker. Undo is frame-based: every mutation between a set_assignment and
the matching unset_assignment is recorded (for the graph, the old value of
each row an assignment changed) and reverted in reverse order.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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

    def link(self, before, w, after):
        """Add the arcs v -> w for the workers v of mask `before` and w -> x
        for the workers x of mask `after` (neither holding w), with their
        transitive consequences: every row that reaches w or a worker of
        `before` gains w and all w now reaches. Returns the (worker, old row)
        pairs it changed. The caller must have checked that no cycle
        results."""
        rows = self.rows
        reach = rows[w] | after
        for x in iter_bits(after):
            reach |= rows[x]
        hit = before | 1 << w
        assert not reach & hit, "link would create a cycle"
        changed = [(w, rows[w])] if reach != rows[w] else []
        rows[w] = reach
        reach |= 1 << w
        for v, row in enumerate(rows):
            if (row & hit or before >> v & 1) and row | reach != row:
                changed.append((v, row))
                rows[v] = row | reach
        return changed

    def restore(self, changed):
        """Undo the links that returned `changed` (concatenated in order)."""
        for v, row in reversed(changed):
            self.rows[v] = row

    def topological_order(self):
        """All workers in an arc-respecting order, lowest index first."""
        return topological_order([list(iter_bits(row)) for row in self.rows], self.n)


class SearchState:
    """Mutable search node state with a frame stack for exact backtracking."""

    def __init__(self, inst):
        self.inst = inst
        self.eff = np.array(inst.times_array, copy=True)
        self.assignment = {}
        self.loads = [0] * inst.n_workers
        self.order_graph = WorkerOrderGraph(inst.n_workers)
        # each: (primary task, (worker, old row) pairs of the order graph,
        # cells, assigned tasks)
        self.frames = []

    def mark_infeasible(self, t, w):
        """Set a cell infeasible; returns False when task t loses its last
        worker (the node is then dead)."""
        if math.isinf(self.eff[t, w]):
            return True
        self.frames[-1][2].append((t, w, self.eff[t, w]))
        self.eff[t, w] = INFEASIBLE
        return bool(np.isfinite(self.eff[t]).any())

    def fingerprint(self):
        return (
            self.eff.tobytes(),
            tuple(self.loads),
            tuple(sorted(self.assignment.items())),
            tuple(self.order_graph.rows),
        )


def _neighbour_workers(state, t, preds, succs):
    """Masks of the workers holding an assigned task of preds[t] and of
    succs[t]; the worker t goes to is the caller's to exclude."""
    asg = state.assignment
    before = after = 0
    for u in preds[t]:
        if u in asg:
            before |= 1 << asg[u]
    for u in succs[t]:
        if u in asg:
            after |= 1 << asg[u]
    return before, after


def assignment_is_valid(state, t, w):
    """True iff pinning task t on worker w adds no arc to the worker order
    graph whose inverse (possibly through existing arcs) is already present."""
    inst = state.inst
    before, after = _neighbour_workers(state, t, inst.preds_star, inst.succs_star)
    other = ~(1 << w)
    before &= other
    after &= other
    rows = state.order_graph.rows
    if before & after or rows[w] & before:
        return False
    hit = before | 1 << w
    return not any(rows[x] & hit for x in iter_bits(after))


def set_assignment(state, t, w):
    """Assign t to w inside a fresh undo frame and pin it there (rule R1):
    its other cells become infeasible. Load, order-graph rows, cells and the
    assignment itself are recorded for exact restoration."""
    assert not math.isinf(state.eff[t, w]), "assignment to an infeasible cell"
    state.frames.append((t, [], [], []))
    for w2 in range(state.inst.n_workers):
        if w2 != w:
            state.mark_infeasible(t, w2)
    _assign(state, t, w)


def unset_assignment(state, t, w):
    """Revert every mutation recorded since the matching set_assignment."""
    primary, rows, cells, assigns = state.frames.pop()
    assert primary == t and state.assignment.get(t) == w, "unbalanced set/unset of assignments"
    state.order_graph.restore(rows)
    for task in reversed(assigns):
        v = state.assignment.pop(task)
        state.loads[v] -= state.inst.times[task][v]
    for task, v, old in reversed(cells):
        state.eff[task, v] = old


def _assign(state, t, w):
    inst = state.inst
    frame = state.frames[-1]
    state.assignment[t] = w
    state.loads[w] += inst.times[t][w]
    frame[3].append(t)
    before, after = _neighbour_workers(state, t, inst.preds_star, inst.succs_star)
    other = ~(1 << w)
    frame[1].extend(state.order_graph.link(before & other, w, after & other))


def apply_reduction_rules(state, t, w, gub):
    """Fixpoint of the three node reductions after assigning t to w.

    R1 pins the task: all its other cells become infeasible (for t,
    set_assignment has done so, and its marks seed the propagation). R2
    enforces continuity: a task between two tasks of one worker is assigned
    there too, and everything beyond an infeasible intermediate is excluded
    on that worker. R3 excludes a candidate cell whose chain would already
    reach the incumbent, once per (newly) assigned task against the
    then-current matrix. Returns True when the node is DEAD.
    """
    inst = state.inst
    m = inst.n_workers
    pending_assign = [t]
    pending_marks = [(task, worker) for task, worker, _ in state.frames[-1][2]]

    def mark(task, worker):
        if state.assignment.get(task) == worker:
            return False  # contradiction: an assigned task lost its own cell
        if math.isinf(state.eff[task, worker]):
            return True
        if not state.mark_infeasible(task, worker):
            return False
        pending_marks.append((task, worker))
        return True

    while pending_assign or pending_marks:
        if pending_assign:
            a = pending_assign.pop()
            wa = state.assignment[a]
            for w2 in range(m):
                if w2 != wa and not mark(a, w2):
                    return True
            # continuity forcing against every task already pinned on wa
            for b, wb in list(state.assignment.items()):
                if wb != wa or b == a:
                    continue
                if b in inst.succs_star[a]:
                    lo, hi = a, b
                elif a in inst.succs_star[b]:
                    lo, hi = b, a
                else:
                    continue
                for j in inst.succs_star[lo] & inst.preds_star[hi]:
                    if j in state.assignment:
                        if state.assignment[j] != wa:
                            return True
                        continue
                    if math.isinf(state.eff[j, wa]) or not assignment_is_valid(state, j, wa):
                        return True
                    _assign(state, j, wa)
                    pending_assign.append(j)
            # infeasible intermediates already present around a
            for star in (inst.succs_star, inst.preds_star):
                for j in star[a]:
                    if math.isinf(state.eff[j, wa]):
                        for k in star[j]:
                            if not mark(k, wa):
                                return True
            # chain-load exclusion relative to the incumbent
            pa = state.eff[a, wa]
            for t2 in range(inst.n_tasks):
                if t2 in state.assignment or math.isinf(state.eff[t2, wa]):
                    continue
                if t2 in inst.succs_star[a]:
                    between = inst.succs_star[a] & inst.preds_star[t2]
                elif t2 in inst.preds_star[a]:
                    between = inst.succs_star[t2] & inst.preds_star[a]
                else:
                    continue
                total = pa + state.eff[t2, wa]
                for u in between:
                    total += state.eff[u, wa]
                if total >= gub and not mark(t2, wa):
                    return True
        else:
            j, wj = pending_marks.pop()
            # propagate exclusions induced by the fresh mark
            for star, star_rev in ((inst.succs_star, inst.preds_star), (inst.preds_star, inst.succs_star)):
                for i in star_rev[j]:
                    if state.assignment.get(i) == wj:
                        for k in star[j]:
                            if not mark(k, wj):
                                return True
                        break
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
    eff = state.eff.tolist()
    p_min = state.eff.min(axis=1).tolist()
    total = sum(p_min)  # of integer-valued floats, so exact in any order
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
        pred_workers, succ_workers = _neighbour_workers(state, t, inst.preds, inst.succs)
        follows = 0
        for x in iter_bits(succ_workers):
            follows |= rows[x]
        pairs = []
        rest = total - p_min[t]
        for w, p in enumerate(eff[t]):
            if math.isinf(p) or rows[w] & pred_workers or follows >> w & 1:
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
    p_min = state.eff.min(axis=1).astype(np.int64)
    p_int = p_min.tolist()
    total = sum(p_int)
    value = max(max(state.loads), max(p_int), -(-total // m))
    if value >= gub:
        return value
    value = max(value, lb._lc2(sorted(p_int, reverse=True), m))
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
        self.state = SearchState(inst)
        self.gub = gub
        self.incumbent = incumbent
        self.deadline = deadline
        self.nodes = 0

    def run(self, root_llb):
        self.visit(root_llb)

    def visit(self, llb):
        self.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _TimeUp
        state = self.state
        inst = self.inst
        if len(state.assignment) == inst.n_tasks:
            value = max(state.loads)
            if value < self.gub:
                self.gub = value
                order = state.order_graph.topological_order()
                assignment = [state.assignment[t] for t in range(inst.n_tasks)]
                self.incumbent = Solution(order, assignment, value)
            return
        t, pairs = select_branch_task(state, self.gub)
        # a valid assignment never closes an immediate cycle, so this keeps
        # every worker the task can go to below the incumbent
        candidates = sorted((after, w) for after, w in pairs if assignment_is_valid(state, t, w))
        for after, w in candidates:
            if after >= self.gub:  # the incumbent may have improved mid-loop
                continue
            set_assignment(state, t, w)
            dead = False
            if self.config.reduction_rules:
                dead = apply_reduction_rules(state, t, w, self.gub)
            if not dead:
                new_llb = max(llb, _node_bound(state, self.gub))
                if new_llb < self.gub:
                    self.visit(new_llb)
            unset_assignment(state, t, w)


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


@lru_cache(maxsize=None)
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
    best = INFEASIBLE
    for combo in itertools.product(*inst.feasible_workers):
        mask = 0
        for a, b in closure:
            va, vb = combo[a], combo[b]
            if va != vb:
                mask |= 1 << (va * m + vb)
        if not _digraph_is_acyclic(mask, m):
            continue
        loads = [0] * m
        for t, w in enumerate(combo):
            loads[w] += inst.times[t][w]
        cycle = max(loads)
        if cycle < best:
            best = cycle
    return best
