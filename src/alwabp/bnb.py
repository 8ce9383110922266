"""Task-oriented branch-and-bound with an exhaustive verification oracle.

The search assigns one task per level to every worker that keeps the worker
order graph acyclic, applies reduction rules that pin, exclude and prune
task-worker cells, and bounds each node on the reduced time matrix. Undo is
frame-based: every mutation between a set_assignment and the matching
unset_assignment is recorded and reverted in reverse order.
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
    """Directed graph over workers, kept transitively closed; an arc (v, w)
    states that v's station precedes w's."""

    def __init__(self, n):
        self.n = n
        self.arcs = set()
        self.preds = [set() for _ in range(n)]
        self.succs = [set() for _ in range(n)]

    def has(self, v, w):
        return (v, w) in self.arcs

    def insert(self, a, b):
        """Add arc (a, b) plus all transitive consequences; returns the newly
        created arcs. The caller must have checked that no cycle results."""
        if a == b or (a, b) in self.arcs:
            return []
        added = []
        sources = self.preds[a] | {a}
        targets = self.succs[b] | {b}
        for x in sources:
            for y in targets:
                if x != y and (x, y) not in self.arcs:
                    assert (y, x) not in self.arcs, "insertion would create a cycle"
                    self.arcs.add((x, y))
                    self.preds[y].add(x)
                    self.succs[x].add(y)
                    added.append((x, y))
        return added

    def remove_arcs(self, arcs):
        for x, y in arcs:
            self.arcs.discard((x, y))
            self.preds[y].discard(x)
            self.succs[x].discard(y)

    def topological_order(self):
        """All workers in an arc-respecting order, lowest index first."""
        return topological_order(self.succs, self.n)


class SearchState:
    """Mutable search node state with a frame stack for exact backtracking."""

    def __init__(self, inst):
        self.inst = inst
        self.eff = np.array(inst.times_array, copy=True)
        self.assignment = {}
        self.loads = [0] * inst.n_workers
        self.order_graph = WorkerOrderGraph(inst.n_workers)
        self.frames = []  # each: (primary task, arcs, cells, assigned tasks)

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
            frozenset(self.order_graph.arcs),
        )


def assignment_is_valid(state, t, w):
    """True iff pinning task t on worker w adds no arc to the worker order
    graph whose inverse (possibly through existing arcs) is already present."""
    inst = state.inst
    asg = state.assignment
    h = state.order_graph
    pred_workers = {asg[u] for u in inst.preds_star[t] if u in asg} - {w}
    succ_workers = {asg[u] for u in inst.succs_star[t] if u in asg} - {w}
    for v in pred_workers:
        if h.has(w, v):
            return False
    for x in succ_workers:
        if h.has(x, w):
            return False
        for v in pred_workers:
            if x == v or h.has(x, v):
                return False
    return True


def set_assignment(state, t, w):
    """Assign t to w inside a fresh undo frame and pin it there (rule R1):
    its other cells become infeasible. Load, order-graph arcs, cells and the
    assignment itself are recorded for exact restoration."""
    assert not math.isinf(state.eff[t, w]), "assignment to an infeasible cell"
    state.frames.append((t, [], [], []))
    for w2 in range(state.inst.n_workers):
        if w2 != w:
            state.mark_infeasible(t, w2)
    _assign(state, t, w)


def unset_assignment(state, t, w):
    """Revert every mutation recorded since the matching set_assignment."""
    primary, arcs, cells, assigns = state.frames.pop()
    assert primary == t and state.assignment.get(t) == w, "unbalanced set/unset of assignments"
    state.order_graph.remove_arcs(reversed(arcs))
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
    h = state.order_graph
    for u in inst.preds_star[t]:
        v = state.assignment.get(u)
        if v is not None and v != w:
            frame[1].extend(h.insert(v, w))
    for u in inst.succs_star[t]:
        x = state.assignment.get(u)
        if x is not None and x != w:
            frame[1].extend(h.insert(w, x))


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


def _immediate_cycle(state, t, w):
    inst = state.inst
    h = state.order_graph
    for u in inst.preds[t]:
        v = state.assignment.get(u)
        if v is not None and v != w and h.has(w, v):
            return True
    for u in inst.succs[t]:
        x = state.assignment.get(u)
        if x is not None and x != w and h.has(x, w):
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
    p_min = state.eff.min(axis=1)
    total = float(p_min.sum())
    max_load = max(state.loads)
    best = None
    for t in range(inst.n_tasks):
        if t in state.assignment:
            continue
        pairs = []
        for w in range(m):
            p = state.eff[t, w]
            if math.isinf(p) or _immediate_cycle(state, t, w):
                continue
            after = max(max_load, state.loads[w] + p, math.ceil((total - p_min[t] + p) / m - 1e-9))
            if after < gub:
                pairs.append((after, w))
        key = (m - len(pairs), min(pairs)[0] if pairs else math.inf, -t)
        if best is None or key > best[0]:
            best = (key, t, pairs)
    return best[1], best[2]


def _node_bound(state, gub):
    """Bound the completions of the current node on the reduced matrix: the
    loads, then LC1, LC2 and LC3 on the minimum times, returning once a stage
    reaches the incumbent. A node ascent would cost more than it prunes."""
    inst = state.inst
    m = inst.n_workers
    p_min = state.eff.min(axis=1)
    p_int = [int(x) for x in p_min]
    total = sum(p_int)
    value = max(max(state.loads), max(p_int), -(-total // m))
    if value >= gub:
        return value
    value = max(value, lb._lc2(sorted(p_int, reverse=True), m))
    if value >= gub:
        return value
    return max(value, lb._lc3(inst, p_int))


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
    if status is OPTIMAL and search.incumbent is None:
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
