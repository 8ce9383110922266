"""Task-oriented branch-and-bound with an exhaustive verification oracle.

The search assigns one task per level to every worker that keeps the worker
order graph acyclic. After each pin, reduction rules force continuity and
exclude task-worker cells, and each node is bounded on the reduced time
matrix. With the rules on, the branching scan is a reduction too: before a
child is bounded, it closes every cell branching refuses and pins every
task left with one worker, sweeping to a fixpoint, and its last sweep picks
the child's branch, so the rules need not propagate closed cells. The
worker order graph is kept transitively closed as one bitmask row per
worker, and the reduced matrix as the instance's times with one mask of
open cells per worker. Every node owns its state: a child starts as a copy
of its parent, so nothing is ever undone. Next to the masks, a node keeps
current what the branching choice, the rules and the node bound read (row
minima and their sum, LC3's heads and tails, and per worker the tasks its
tasks follow or precede; see SearchState), so no step rebuilds them.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from . import bounds as lb
from .heuristic import FAILED, IpbsParams, ipbs
from .instance import (
    INFEASIBLE,
    CycleError,
    EnumerationLimitError,
    Solution,
    iter_bits,
    topological_order,
)

OPTIMAL = "optimal"
FEASIBLE_TIME_LIMIT = "feasible_time_limit"
TIME_LIMIT = "time_limit"  # the deadline stopped a search that holds no solution
INFEASIBLE_STATUS = "infeasible"

ORACLE_LEAF_LIMIT = 10**8

# the warm start's beam: an incumbent fast, not the paper's wide search
WARM_START_GAMMA = 10
WARM_START_BEAM_FACTOR = 1


def _link(order, before, w, after):
    """Add to the worker order graph `order` (transitively closed rows, see
    SearchState) the arcs v -> w for the workers v of mask `before` and
    w -> x for the workers x of mask `after` (neither holding w), with their
    transitive consequences: every row that reaches w or a worker of
    `before` gains w and all w now reaches. Returns False, changing
    nothing, when the arcs would close a cycle, and True otherwise."""
    reach = order[w] | after
    for x in iter_bits(after):
        reach |= order[x]
    hit = before | 1 << w
    if reach & hit:
        return False
    order[w] = reach
    reach |= 1 << w
    for v, row in enumerate(order):
        if row & hit or before >> v & 1:
            order[v] = row | reach
    return True


class SearchState:
    """The state of one search node; a child node starts as a copy.

    A node records each fact once: feasible[w] is the task mask of the open
    (not excluded) cells on worker w, on_worker[w] the mask of the tasks
    assigned to w, and assigned their union; a cell's time is read from
    the instance. order[v], one row per worker, is the worker order graph,
    kept transitively closed: bit w is set when v's station precedes w's.
    Besides the loads and order, a node carries what its branching, rules
    and bound read, each updated only where the node changes it:

    - p_min[t], the minimum time over t's open cells, and total, their sum
      (mark_infeasible);
    - heads[t] and tails[t], p_min[t] plus p_min over t's transitive
      predecessors and successors, LC3's inputs: the root's are a copy of
      the instance's heads_tails, and mark_infeasible raises them;
    - per worker w, ahead[w] and behind[w], the unions of pred_star and
      succ_star over w's tasks (set_assignment): the order graph links a
      task's worker by them, R2 forces by them, _cycle_tasks blocks by them.

    The updates walk the instance's relation_lists. The caches of a dead
    node, one a rule has closed every cell of a task in, are not kept: the
    search drops it.
    """

    def __init__(self, inst):
        n, m = inst.n_tasks, inst.n_workers
        self.inst = inst
        self.feasible = [sum(1 << t for t in range(n) if inst.times[t][w] != INFEASIBLE) for w in range(m)]
        self.on_worker = [0] * m  # bitmask of the tasks assigned to each worker
        self.assigned = 0
        self.loads = [0] * m
        self.order = [0] * m
        self.p_min = list(inst.min_times)
        self.total = sum(self.p_min)
        self.heads, self.tails = map(list, inst.heads_tails)
        self.ahead = [0] * m
        self.behind = [0] * m

    def child(self):
        node = SearchState.__new__(SearchState)
        node.inst = self.inst
        node.feasible = self.feasible[:]
        node.on_worker = self.on_worker[:]
        node.assigned = self.assigned
        node.loads = self.loads[:]
        node.order = self.order[:]
        node.p_min = self.p_min[:]
        node.total = self.total
        node.heads = self.heads[:]
        node.tails = self.tails[:]
        node.ahead = self.ahead[:]
        node.behind = self.behind[:]
        return node

    def mark_infeasible(self, t, w):
        """Close a cell; returns False when task t loses its last open cell
        (the node is then dead). When the cell held the row minimum,
        p_min[t] rises, and with it total, the heads of t and its transitive
        successors and the tails of t and its transitive predecessors."""
        feasible = self.feasible
        if not feasible[w] >> t & 1:
            return True
        feasible[w] ^= 1 << t
        row = self.inst.times[t]
        if row[w] != self.p_min[t]:
            return True
        low = min((row[v] for v, mask in enumerate(feasible) if mask >> t & 1), default=INFEASIBLE)
        if low == INFEASIBLE:
            return False
        rise = low - self.p_min[t]
        if rise:
            self.p_min[t] = low
            self.total += rise
            _, succ_star, pred_star = self.inst.relation_lists
            heads, tails = self.heads, self.tails
            heads[t] += rise
            tails[t] += rise
            for u in succ_star[t]:
                heads[u] += rise
            for u in pred_star[t]:
                tails[u] += rise
        return True


def set_assignment(state, t, w):
    """Assign t to w, link w into the node's order rows (_link) and pin t
    there (rule R1): its other cells close. The workers whose behind mask
    holds t (they hold a transitive predecessor of t) come before w, those
    whose ahead mask holds it after w; w's ahead and behind gain t's
    pred_star and succ_star. Returns False, changing nothing, when the
    assignment would close a cycle in the worker order graph."""
    assert state.feasible[w] >> t & 1, "assignment to an infeasible cell"
    inst = state.inst
    before = sum(1 << v for v, mask in enumerate(state.behind) if mask >> t & 1 and v != w)
    after = sum(1 << v for v, mask in enumerate(state.ahead) if mask >> t & 1 and v != w)
    if not _link(state.order, before, w, after):
        return False
    state.on_worker[w] |= 1 << t
    state.assigned |= 1 << t
    state.loads[w] += inst.times[t][w]
    state.ahead[w] |= inst.pred_star[t]
    state.behind[w] |= inst.succ_star[t]
    for w2 in range(inst.n_workers):
        if w2 != w:
            state.mark_infeasible(t, w2)
    return True


def apply_reduction_rules(state, t, w, gub):
    """Fixpoint of the node reductions that follow a pin, starting with t,
    just assigned to w. Returns True when the node is DEAD.

    Each pin a of worker wa, t's and every one the rules force, is taken
    once. R2 enforces continuity: a task between a and another task of wa
    (succ_star[a] & ahead[wa], pred_star[a] & behind[wa]) is pinned there
    too, through set_assignment (R1 closes its other cells), and every task
    beyond an intermediate of a that is closed on wa is excluded from wa.
    R3 excludes a cell of wa whose chain from a would already reach the
    incumbent, against the then-open cells. The node is dead when a forced
    task is held elsewhere or cannot go to wa, or a task loses its last
    open cell.

    A closed cell is not propagated further here: with the rules on, the
    branching pass (select_branch_task with reduce) runs on every child
    before its bound, and between them they close whatever such a
    propagation would. A closed cell (j, v) has one of four causes:

    - R1, j pinned on w. Propagating would cut from v the tasks beyond j
      as seen from a task of v; but that task links v and w in the order
      graph, so each of them is cycle-blocked on v, and the pass closes it.
    - R3, the chain from a pinned a through j reaches the incumbent. The
      chain from a to a task beyond j is longer, since times are positive,
      so R3 for a cuts it too. If j lies between a and another task of
      wa, R2 has pinned j, and R3 skips it.
    - R2's own exclusion. What lies beyond the new cut lies beyond the
      closed intermediate that caused it, and that is already cut.
    - A contradiction, a cut of an assigned task's own cell, needs j
      between two tasks of one worker but pinned elsewhere; set_assignment
      refuses that pin first, as it would close a cycle.

    R2's exclusion stays for intermediates an ancestor's pass closed by
    load: nothing else reaches what lies beyond them.
    """
    inst = state.inst
    times = inst.times
    feasible = state.feasible
    on_worker = state.on_worker
    succ_star, pred_star = inst.succ_star, inst.pred_star
    pending = [(t, w)]
    while pending:
        a, wa = pending.pop()
        # continuity forcing against every task already pinned on wa; a
        # task held elsewhere has its cell on wa closed
        between = succ_star[a] & state.ahead[wa] | pred_star[a] & state.behind[wa]
        for j in iter_bits(between & ~on_worker[wa]):
            if not feasible[wa] >> j & 1 or not set_assignment(state, j, wa):
                return True
            pending.append((j, wa))
        # closed intermediates around a
        for star in (succ_star, pred_star):
            for j in iter_bits(star[a] & ~feasible[wa]):
                for k in iter_bits(star[j] & feasible[wa]):
                    if not state.mark_infeasible(k, wa):
                        return True
        # chain-load exclusion relative to the incumbent
        pa = times[a][wa]
        after_a, before_a = succ_star[a], pred_star[a]
        for t2 in iter_bits((after_a | before_a) & feasible[wa] & ~on_worker[wa]):
            total = pa + times[t2][wa]
            for u in iter_bits(after_a & pred_star[t2] | succ_star[t2] & before_a):
                total += times[u][wa]
            if total >= gub and not state.mark_infeasible(t2, wa):
                return True
    return False


def _cycle_tasks(state):
    """Per worker w, the mask of the tasks that cannot go to w without a
    cycle in the worker order graph: for each arc v -> w of the node's
    order rows, the tasks with a transitive predecessor on w (behind[w])
    are blocked on v, and those with a transitive successor on v (ahead[v])
    are blocked on w. No row holds its own bit, so a neighbour on the same
    worker is no cycle. After the reduction rules, these are exactly the
    cells set_assignment rejects."""
    ahead, behind = state.ahead, state.behind
    blocked = [0] * len(ahead)
    for v, row in enumerate(state.order):
        for w in iter_bits(row):
            blocked[v] |= behind[w]
            blocked[w] |= ahead[v]
    return blocked


def select_branch_task(state, gub, reduce=False):
    """Unassigned task with the most refused workers; ties go to the task
    with the largest worker-minimal average-load bound, then the smallest
    index. Branching refuses a worker for a task when its cell is excluded,
    when pinning would close a cycle in the worker order graph
    (_cycle_tasks, by each worker's ahead and behind masks), or when the
    average-load bound after pinning (the max of the new worker loads and
    the ceiling of the effective total over the stations) reaches the
    incumbent. Returns the task and the (bound, worker) pairs of its
    accepted workers, in worker order, or (None, []) when every task is
    assigned.

    Without reduce, this is one read-only sweep over the tasks. With
    reduce, each sweep also acts on what it sees: it closes every open
    cell it refuses (mark_infeasible) and pins every task left with one
    open cell (set_assignment, then apply_reduction_rules). Each closure
    holds for the whole subtree, since the incumbent only falls. Sweeps
    repeat until one pins no task and raises no row minimum, after which
    another would change nothing, and its choice is returned; None
    means the node is dead: a task lost its last open cell, or a pin's
    rules found a contradiction."""
    inst = state.inst
    m = inst.n_workers
    times = inst.times
    feasible = state.feasible
    p_min = state.p_min
    loads = state.loads
    while True:
        total = state.total
        pinned = False
        max_load = max(loads)
        cycle = _cycle_tasks(state)  # a pin changes it
        best = None
        for t in range(inst.n_tasks):
            if state.assigned >> t & 1:
                continue
            rest = state.total - p_min[t]  # a mark on t raises both terms alike
            pairs = []
            low = math.inf
            row = times[t]
            for w in range(m):
                if not feasible[w] >> t & 1:
                    continue
                if not cycle[w] >> t & 1:
                    p = row[w]
                    after = loads[w] + p
                    share = -(-(rest + p) // m)
                    if share > after:
                        after = share
                    if max_load > after:
                        after = max_load
                    if after < gub:
                        pairs.append((after, w))
                        if after < low:
                            low = after
                        continue
                if reduce and not state.mark_infeasible(t, w):
                    return None
            if reduce and len(pairs) == 1:
                pinned = True
                w = pairs[0][1]
                if not set_assignment(state, t, w) or apply_reduction_rules(state, t, w, gub):
                    return None
                max_load = max(loads)
                cycle = _cycle_tasks(state)
                continue
            key = (m - len(pairs), low, -t)
            if best is None or key > best[0]:
                best = (key, t, pairs)
        # without a pin or a risen row minimum, the next sweep would read
        # the same loads, order graph and total, so it would change nothing
        if not pinned and state.total == total:
            break
    if best is None:
        return None, []
    return best[1], best[2]


def _node_bound(state, gub):
    """Bound the completions of the current node on the reduced matrix: the
    loads, then LC1, LC2 and LC3 on the minimum times, returning once a stage
    reaches the incumbent. A node ascent would cost more than it prunes.

    LC3 is searched only on [value so far, gub]: below the value it cannot
    raise the bound, and at gub the node is pruned whatever LC3's exact
    value. So the result is exact below gub and at least gub otherwise.
    Every input is the node's own cache: p_min, total, heads and tails."""
    m = state.inst.n_workers
    p_min = state.p_min
    total = state.total
    value = max(max(state.loads), max(p_min), -(-total // m))
    if value >= gub:
        return value
    value = max(value, lb._lc2(sorted(p_min, reverse=True), m))
    if value >= gub:
        return value
    return lb._lc3_search(state.heads, state.tails, m, value, min(max(value, total), gub))


@dataclass
class BnbConfig:
    time_limit: float | None = None
    seed: int = 42
    heuristic_on: bool = True
    reduction_rules: bool = True
    l1_iters: int = lb.DEFAULT_L1_ITERS
    l2_iters: int = lb.DEFAULT_L2_ITERS
    incumbent: Solution | None = None

    def __post_init__(self):
        # `not >= 0` refuses nan too: a nan deadline never passes
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be None or at least 0")


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

    def visit(self, state, llb, choice=None):
        """Count the node, check the deadline, then record a leaf or branch.
        choice is the node's select_branch_task result: a child carries the
        one its parent computed before bounding it; the root, and every node
        without the reduction rules, computes it here. With the rules, the
        pass that computes it closes the cells branching refuses and pins
        the tasks left with one worker, so the child's bound sees the raised
        row minima, heads and tails, and a child the pass finds dead is
        dropped before its bound."""
        self.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _TimeUp
        inst = self.inst
        reduce = self.config.reduction_rules
        if choice is None:
            choice = select_branch_task(state, self.gub, reduce)
            if choice is None:
                return
        if choice[0] is None:
            value = max(state.loads)
            if value < self.gub:
                self.gub = value
                order = topological_order([list(iter_bits(row)) for row in state.order], inst.n_workers)
                stations = [(w, state.on_worker[w], state.loads[w]) for w in order]
                self.incumbent = Solution.from_stations(inst.n_tasks, stations)
            return
        t, pairs = choice
        # pairs holds every worker the task can go to below the incumbent
        # without a cycle once the rules have run; without them,
        # set_assignment may still reject one
        for after, w in sorted(pairs):
            if after >= self.gub:  # the incumbent may have improved mid-loop
                continue
            child = state.child()
            if not set_assignment(child, t, w):
                continue
            child_choice = None
            if reduce:
                if apply_reduction_rules(child, t, w, self.gub):
                    continue
                child_choice = select_branch_task(child, self.gub, True)
                if child_choice is None:
                    continue
            new_llb = max(llb, _node_bound(child, self.gub))
            if new_llb < self.gub:
                self.visit(child, new_llb, child_choice)


def branch_and_bound(inst, config=None):
    """Solve to optimality (or the time limit): root bounds, the only
    Lagrangian ascent; a narrow-beam ipbs incumbent, which polishes its
    first construction and hands over once a sweep finds no better cycle
    time (IpbsParams.hand_over); then depth-first task-oriented search with
    the cheap bounds of _node_bound."""
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
        params = IpbsParams(
            WARM_START_GAMMA, WARM_START_BEAM_FACTOR, t_min=0.0, t_max=t_max, seed=config.seed, hand_over=True
        )
        heur = ipbs(inst, params, lower_bound=root_lb)
        if heur is not FAILED and (incumbent is None or heur.cycle_time < incumbent.cycle_time):
            incumbent = heur
    gub = incumbent.cycle_time if incumbent is not None else math.inf

    if incumbent is not None and root_lb >= gub:
        return BnbResult(incumbent, gub, OPTIMAL, 1, time.monotonic() - t0, root_report)

    search = _Search(inst, config, gub, incumbent, deadline)
    status = OPTIMAL
    try:
        search.run(root_lb)
    except _TimeUp:
        status = FEASIBLE_TIME_LIMIT if search.incumbent is not None else TIME_LIMIT
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
