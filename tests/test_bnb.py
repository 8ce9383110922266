import copy
import itertools
import math
import random
import time
from pathlib import Path

import pytest

from alwabp import (
    INFEASIBLE,
    BnbConfig,
    CycleError,
    EnumerationLimitError,
    Instance,
    branch_and_bound,
    brute_force_optimal,
    check_solution_against_model,
    generate_instance,
    parse_instance,
    transitive_closure,
    validate_solution,
    write_instance,
)
from alwabp import bnb, bounds, cli, heuristic
from alwabp.bnb import (
    FEASIBLE_TIME_LIMIT,
    INFEASIBLE_STATUS,
    OPTIMAL,
    TIME_LIMIT,
    SearchState,
    _link,
    _node_bound,
    apply_reduction_rules,
    select_branch_task,
    set_assignment,
)
from alwabp.instance import iter_bits, topological_order
from conftest import (
    count_calls,
    node_assignment,
    node_matrix,
    order_strength_instance,
    random_instance,
    scale_instance,
    star_sums,
)


def has_arc(order, v, w):
    return bool(order[v] >> w & 1)


def graph_arcs(order):
    m = len(order)
    return {(v, w) for v in range(m) for w in range(m) if has_arc(order, v, w)}


def rows_order(order):
    """The workers in an arc-respecting order of the rows, lowest index first."""
    return topological_order([list(iter_bits(row)) for row in order], len(order))


def snapshot(state):
    """A copy of every field of a node; the instance, which all nodes share
    read only, is left out."""
    fields = dict(vars(state))
    del fields["inst"]
    return copy.deepcopy(fields)


def bits(workers):
    return sum(1 << w for w in workers)


class TestWorkerOrderGraph:
    """_link on a node's plain order rows, and the station order the search
    leaf reads from them with topological_order."""

    def test_link_keeps_closure(self):
        order = [0] * 4
        assert _link(order, bits([0]), 1, 0)
        assert _link(order, 0, 1, bits([2]))
        assert has_arc(order, 0, 2)
        assert _link(order, bits([2]), 3, 0)
        assert has_arc(order, 0, 3) and has_arc(order, 1, 3)
        assert order == [bits([1, 2, 3]), bits([2, 3]), bits([3]), 0]

    def test_cycle_link_changes_nothing(self):
        order = [0] * 4
        _link(order, bits([0]), 1, bits([2]))
        rows = list(order)
        # each term of the cycle test: w already reaches a worker of before,
        # before and after share a worker, a worker of after reaches w
        assert not _link(order, bits([1]), 0, 0)
        assert not _link(order, bits([3]), 1, bits([3]))
        assert not _link(order, 0, 2, bits([0]))
        assert order == rows

    def test_topological_order_prefers_low_index(self):
        order = [0] * 4
        _link(order, bits([2]), 0, 0)
        assert rows_order(order) == [1, 2, 0, 3]

    def test_random_links_match_closure(self):
        rng = random.Random(7)
        refused = 0
        for _ in range(200):
            m = rng.randint(1, 7)
            station = list(range(m))
            rng.shuffle(station)  # every linked arc goes forward in this order
            order = [0] * m
            linked = set()
            for _ in range(rng.randint(1, 6)):
                w = rng.randrange(m)
                before = bits(v for v in range(m) if station[v] < station[w] and rng.random() < 0.3)
                after = bits(x for x in range(m) if station[x] > station[w] and rng.random() < 0.3)
                assert _link(order, before, w, after)
                linked |= {(v, w) for v in range(m) if before >> v & 1}
                linked |= {(w, x) for x in range(m) if after >> x & 1}
                assert graph_arcs(order) == transitive_closure(linked, m)
                line = rows_order(order)
                assert all(line.index(v) < line.index(w) for v, w in graph_arcs(order))
                # a backward arc closes a cycle whenever its ends are linked
                v, x = rng.randrange(m), rng.randrange(m)
                if v != x and has_arc(order, v, x):
                    rows = list(order)
                    assert not _link(order, bits([x]), v, 0)
                    assert order == rows
                    refused += 1
        assert refused


class TestAssignmentValidity:
    def test_empty_graph_accepts(self, fig1):
        state = SearchState(fig1)
        assert set_assignment(state.child(), 0, 2)

    def test_cross_worker_cycle_rejected(self, fig1):
        state = SearchState(fig1)
        assert set_assignment(state, 0, 0)  # t1 on w1
        assert set_assignment(state.child(), 1, 1)  # t2 on w2 is fine
        assert set_assignment(state, 1, 1)
        assert has_arc(state.order, 0, 1)
        # t5 follows t2 (on w2), so w1 would need to come after w2 too
        child = state.child()
        assert not set_assignment(child, 4, 0)
        assert snapshot(child) == snapshot(state)

    def test_opposite_direction_allowed(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        set_assignment(state, 1, 1)
        assert set_assignment(state.child(), 4, 1)

    def test_matches_acyclicity_reference(self):
        # the arcs an assignment adds, checked for a cycle from scratch
        outcomes = set()
        for seed in range(60):
            inst = random_instance(seed, n_tasks=9, n_workers=4, infeasibility=0.0)
            rng = random.Random(seed)
            state = SearchState(inst)
            tasks = list(range(inst.n_tasks))
            rng.shuffle(tasks)
            for t in tasks[: rng.randint(1, 7)]:
                w = rng.randrange(inst.n_workers)
                if reference_valid(state, t, w):
                    set_assignment(state, t, w)
            assert graph_arcs(state.order) == transitive_closure(assignment_arcs(state), inst.n_workers)
            for t in range(inst.n_tasks):
                if t not in node_assignment(state):
                    for w in range(inst.n_workers):
                        valid = set_assignment(state.child(), t, w)
                        assert valid == reference_valid(state, t, w)
                        outcomes.add(valid)
        assert outcomes == {True, False}


def assignment_arcs(state, asg=None):
    """Worker order arcs implied by an assignment through the task closure."""
    asg = node_assignment(state) if asg is None else asg
    return {(asg[a], asg[b]) for a, b in state.inst.closure if a in asg and b in asg and asg[a] != asg[b]}


def reference_valid(state, t, w):
    """True iff assigning t to w leaves the implied worker digraph acyclic."""
    succ = [[] for _ in range(state.inst.n_workers)]
    for v, x in assignment_arcs(state, {**node_assignment(state), t: w}):
        succ[v].append(x)
    try:
        topological_order(succ, state.inst.n_workers)
    except CycleError:
        return False
    return True


class TestSetUnset:
    """A node never undoes: each child works on its own copy, and its
    parent's state stays as it was."""

    def test_fingerprint_roundtrip(self, fig1):
        state = SearchState(fig1)
        before = snapshot(state)
        child = state.child()
        assert snapshot(child) == before
        set_assignment(child, 0, 2)
        assert not apply_reduction_rules(child, 0, 2, gub=7)
        assert snapshot(child) != before
        assert snapshot(state) == before

    def test_assignment_pins_its_row(self, fig1):
        # R1 without the reduction rules: t2 on w2 leaves t2 no other cell
        state = SearchState(fig1)
        before = snapshot(state)
        child = state.child()
        set_assignment(child, 1, 1)
        assert math.isinf(node_matrix(child)[1][0]) and math.isinf(node_matrix(child)[1][2])
        assert node_matrix(child)[1][1] == 5
        assert min(node_matrix(child)[1]) == 5
        assert snapshot(state) == before
        assert list(node_matrix(state)[1]) == [4, 5, 4]

    def test_rules_propagate_the_pin(self):
        # t1 on w1 after t0 on w0: the pin closes (t1, w0), and t2, a
        # successor of t1, must leave w0 too; the rules do not propagate the
        # closed cell, but w0 now precedes w1, so the branching pass finds
        # t2 cycle-blocked on w0 and closes that cell
        inst = Instance([[1, 1], [1, 1], [1, 1]], {(0, 1), (1, 2)})
        state = SearchState(inst)
        set_assignment(state, 0, 0)
        assert not apply_reduction_rules(state, 0, 0, gub=math.inf)
        set_assignment(state, 1, 1)
        assert not apply_reduction_rules(state, 1, 1, gub=math.inf)
        assert select_branch_task(state, math.inf, True) is not None
        assert math.isinf(node_matrix(state)[2][0])

    def test_direct_edge_creates_arc(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 2)
        set_assignment(state, 1, 0)
        assert has_arc(state.order, 2, 0)

    def test_closure_edge_creates_arc(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 2)
        set_assignment(state, 5, 1)  # (t1, t6) is only in the closure
        assert has_arc(state.order, 2, 1)

    def test_nested_frames(self, fig1):
        state = SearchState(fig1)
        base = snapshot(state)
        child = state.child()
        set_assignment(child, 0, 2)
        mid = snapshot(child)
        grandchild = child.child()
        set_assignment(grandchild, 1, 0)
        apply_reduction_rules(grandchild, 1, 0, gub=7)
        assert snapshot(grandchild) != mid
        assert snapshot(child) == mid
        assert snapshot(state) == base


# the fields of a node that are not caches of the others
BASE_FIELDS = ("feasible", "on_worker", "loads", "order")


def node_caches(state):
    """The fields of snapshot(state) other than BASE_FIELDS."""
    return {name: value for name, value in snapshot(state).items() if name not in BASE_FIELDS}


def recomputed_caches(state):
    """Every cached field of a node, rebuilt from its open cells and
    assignment alone; a field added to SearchState fails the comparison
    with node_caches until it is rebuilt here too."""
    inst = state.inst
    n = inst.n_tasks
    asg = node_assignment(state)
    p_min = [min(row) for row in node_matrix(state)]
    heads = [p_min[t] + sum(p_min[a] for a, b in inst.closure if b == t) for t in range(n)]
    tails = [p_min[t] + sum(p_min[b] for a, b in inst.closure if a == t) for t in range(n)]

    return {
        "assigned": bits(asg),
        "p_min": p_min,
        "total": sum(p_min),
        "heads": heads,
        "tails": tails,
        # per worker, the tasks some task of it follows (ahead) or precedes
        "ahead": [bits({a for a, b in inst.closure if asg.get(b) == w}) for w in range(inst.n_workers)],
        "behind": [bits({b for a, b in inst.closure if asg.get(a) == w}) for w in range(inst.n_workers)],
    }


class TestNodeCaches:
    """What a node keeps current (row minima and their sum, LC3 heads and
    tails, feasible-cell masks, each worker's ahead and behind masks)
    always equals a fresh computation, and a child never touches its
    parent's copy."""

    def test_caches_match_a_fresh_computation(self):
        steps = dead = 0
        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(seed, n_tasks=rng.randint(8, 20), n_workers=rng.randint(2, 5))
            gub = rng.choice([math.inf, int(1.2 * bounds.lc1(inst)) + 1])
            state = SearchState(inst)
            assert node_caches(state) == recomputed_caches(state)
            while len(node_assignment(state)) < inst.n_tasks:
                t = rng.choice([t for t in range(inst.n_tasks) if t not in node_assignment(state)])
                w = rng.choice([w for w in range(inst.n_workers) if not math.isinf(node_matrix(state)[t][w])])
                before = snapshot(state)
                child = state.child()
                alive = set_assignment(child, t, w)
                if alive and rng.random() < 0.8:
                    alive = not apply_reduction_rules(child, t, w, gub)
                assert snapshot(state) == before
                if not alive:
                    dead += 1
                    if rng.random() < 0.5:
                        break
                    continue
                assert node_caches(child) == recomputed_caches(child)
                state = child
                steps += 1
        assert steps > 200 and dead > 10

    def test_search_leaves_the_instance_views_as_built(self):
        # every node, the root included, raises its own copy of the heads
        # and tails, never the instance's, which LC3 and the beam search read
        nodes = 0
        for seed in range(5):
            inst = random_instance(seed, n_tasks=12, n_workers=3)
            heads, tails = star_sums(inst, inst.min_times)
            nodes += branch_and_bound(inst, BnbConfig(heuristic_on=False)).nodes
            root = SearchState(inst)
            for t in range(inst.n_tasks):
                if t in node_assignment(root):
                    continue
                w = max(w for w, p in enumerate(node_matrix(root)[t]) if p != INFEASIBLE)
                if not set_assignment(root, t, w) or apply_reduction_rules(root, t, w, math.inf):
                    break
            assert root.heads != heads
            assert [list(view) for view in inst.heads_tails] == [heads, tails]
        assert nodes > 20


def reference_rules(state, pinned, gub):
    """Order-free restatement of the reduction rules on a node whose tasks
    `pinned` were just assigned: R1 and both R2 rules are applied to every
    cell, and R3 to the tasks of `pinned` and those forced meanwhile, until
    nothing changes. A forced task goes through set_assignment, which
    rejects a worker that would close a cycle. Returns True when the node
    is dead."""
    inst = state.inst
    n, m = inst.n_tasks, inst.n_workers
    pinned = list(pinned)

    def between(a, b):
        return list(iter_bits(inst.succ_star[a] & inst.pred_star[b]))

    while True:
        asg, eff = node_assignment(state), node_matrix(state)
        # R2: a task between two tasks of one worker joins them
        forced = next(
            ((j, w) for a, w in asg.items() for b, v in asg.items() if v == w for j in between(a, b) if asg.get(j) != w),
            None,
        )
        if forced is not None:
            j, w = forced
            if j in asg or math.isinf(eff[j][w]) or not set_assignment(state, j, w):
                return True
            pinned.append(j)
            continue
        cuts = set()
        for a, w in asg.items():
            # R1: an assigned task keeps its own cell only
            cuts.update((a, v) for v in range(m) if v != w)
            # R2: on a's worker, every task beyond a closed cell is cut
            for j in range(n):
                if math.isinf(eff[j][w]):
                    if inst.succ_star[a] >> j & 1:
                        cuts.update((k, w) for k in iter_bits(inst.succ_star[j]))
                    if inst.pred_star[a] >> j & 1:
                        cuts.update((k, w) for k in iter_bits(inst.pred_star[j]))
        # R3: a cell whose chain to a pinned task reaches the incumbent is cut
        for a in pinned:
            w = asg[a]
            for t in range(n):
                if t in asg or not (inst.succ_star[a] | inst.pred_star[a]) >> t & 1:
                    continue
                chain = [a, t, *between(a, t), *between(t, a)]
                if sum(inst.times[u][w] for u in chain) >= gub:
                    cuts.add((t, w))
        changed = False
        for t, w in cuts:
            if asg.get(t) == w:
                return True
            if not math.isinf(eff[t][w]):
                if not state.mark_infeasible(t, w):
                    return True
                changed = True
        if not changed:
            return False


class TestReductionRules:
    def test_pin_excludes_other_workers(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 2)
        dead = apply_reduction_rules(state, 0, 2, gub=100)
        assert not dead
        assert math.isinf(node_matrix(state)[0][0])
        assert math.isinf(node_matrix(state)[0][1])

    def test_chain_load_exclusion(self, fig1):
        # tasks 2, 3, 5 lie between tasks 1 and 6; their worker-1 times plus
        # those of 1 and 6 sum to 18, meeting any incumbent below that
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        dead = apply_reduction_rules(state, 0, 0, gub=7)
        assert not dead
        assert math.isinf(node_matrix(state)[5][0])

    def test_no_exclusion_with_loose_incumbent(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        apply_reduction_rules(state, 0, 0, gub=100)
        assert not math.isinf(node_matrix(state)[5][0])

    def test_forced_task_contradiction_is_dead(self):
        inst = Instance([[1, 1], [INFEASIBLE, 1], [1, 1]], {(0, 1), (1, 2)})
        state = SearchState(inst)
        set_assignment(state, 0, 0)
        set_assignment(state, 2, 0)  # forces task 1 onto worker 0, impossible
        assert apply_reduction_rules(state, 2, 0, gub=100)

    def test_exclusion_preempts_forced_contradiction(self):
        # running the rules right after the first assignment already cuts the
        # cell the contradictory assignment would use
        inst = Instance([[1, 1], [INFEASIBLE, 1], [1, 1]], {(0, 1), (1, 2)})
        state = SearchState(inst)
        set_assignment(state, 0, 0)
        assert not apply_reduction_rules(state, 0, 0, gub=100)
        assert math.isinf(node_matrix(state)[2][0])

    def test_forcing_assigns_between_task(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        apply_reduction_rules(state, 0, 0, gub=100)
        set_assignment(state, 3, 0)
        dead = apply_reduction_rules(state, 3, 0, gub=100)
        assert not dead
        assert node_assignment(state)[2] == 0  # t3 sits between t1 and t4

    def test_rules_undo_cleanly(self, fig1):
        # every child, alive or dead (given up half-way through its rules),
        # leaves its parent as it was
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        assert not apply_reduction_rules(state, 0, 0, gub=7)
        before = snapshot(state)
        dead = 0
        for t in range(fig1.n_tasks):
            for w in range(fig1.n_workers):
                if t in node_assignment(state) or math.isinf(node_matrix(state)[t][w]):
                    continue
                child = state.child()
                if set_assignment(child, t, w):
                    dead += apply_reduction_rules(child, t, w, gub=7)
                assert snapshot(state) == before
        assert dead


    def test_rules_reach_the_fixpoint_of_a_naive_restatement(self):
        # on random nodes built by the search's own step (a pin, the rules,
        # then the branching pass), one more pin followed by the rules and
        # the same pin followed by the order-free reference agree once the
        # pass has run after each: the rules leave to the pass only cells
        # it closes itself. With a finite incumbent, a chain that reaches
        # it may end as a dead node in one order and as a load at the
        # incumbent in the other, and the search drops both
        compared = {"inf": 0, "finite": 0}
        dead = {"inf": 0, "finite": 0}
        r3_cuts = 0

        def passed(state, gub):
            # the branching pass; True when it finds the node dead
            return select_branch_task(state, gub, True) is None

        for seed in range(600):
            rng = random.Random(seed)
            inst = random_instance(seed, n_tasks=rng.randint(6, 14), n_workers=rng.randint(2, 4))
            finite = seed % 2 == 1
            kind = "finite" if finite else "inf"
            gub = int(1.2 * bounds.lc1(inst)) + 1 if finite else math.inf
            state = SearchState(inst)
            for _ in range(rng.randint(0, inst.n_tasks - 1)):
                t = rng.choice([t for t in range(inst.n_tasks) if t not in node_assignment(state)])
                w = rng.choice([w for w in range(inst.n_workers) if not math.isinf(node_matrix(state)[t][w])])
                child = state.child()
                if not set_assignment(child, t, w) or apply_reduction_rules(child, t, w, gub) or passed(child, gub):
                    continue
                state = child
                if len(node_assignment(state)) == inst.n_tasks:
                    break
            for t in range(inst.n_tasks):
                for w in range(inst.n_workers):
                    if t in node_assignment(state) or math.isinf(node_matrix(state)[t][w]):
                        continue
                    rules, reference = state.child(), state.child()
                    if not set_assignment(rules, t, w):
                        continue
                    assert set_assignment(reference, t, w)
                    rules_dead = apply_reduction_rules(rules, t, w, gub) or passed(rules, gub)
                    reference_dead = reference_rules(reference, [t], gub) or passed(reference, gub)
                    if finite:
                        rules_dead = rules_dead or max(rules.loads) >= gub
                        reference_dead = reference_dead or max(reference.loads) >= gub
                    assert rules_dead == reference_dead, (seed, t, w)
                    dead[kind] += rules_dead
                    if rules_dead:
                        continue
                    assert rules.feasible == reference.feasible, (seed, t, w)
                    assert node_assignment(rules) == node_assignment(reference), (seed, t, w)
                    compared[kind] += 1
                    if finite:
                        loose = state.child()
                        set_assignment(loose, t, w)
                        if not apply_reduction_rules(loose, t, w, math.inf):
                            passed(loose, gub)
                        r3_cuts += loose.feasible != rules.feasible
        assert min(compared.values()) > 400 and min(dead.values()) > 40 and r3_cuts > 40, (compared, dead, r3_cuts)


def reference_pairs(state, gub):
    """Transparent restatement of what branching accepts: per unassigned
    task, the (bound, worker) pairs of the workers whose cell is open, that
    close no cycle and whose average-load bound stays below gub."""
    inst = state.inst
    eff, asg = node_matrix(state), node_assignment(state)
    p_min = [min(eff[t][w] for w in range(inst.n_workers)) for t in range(inst.n_tasks)]
    total = sum(p_min)
    max_load = max(state.loads)
    accepted = {}
    for t in range(inst.n_tasks):
        if t in asg:
            continue
        pairs = accepted[t] = []
        for w in range(inst.n_workers):
            cell = eff[t][w]
            if math.isinf(cell):
                continue
            cyclic = False
            for u in iter_bits(inst.pred_star[t]):
                v = asg.get(u)
                if v is not None and v != w and has_arc(state.order, w, v):
                    cyclic = True
            for u in iter_bits(inst.succ_star[t]):
                x = asg.get(u)
                if x is not None and x != w and has_arc(state.order, x, w):
                    cyclic = True
            if cyclic:
                continue
            after = max(
                max_load,
                state.loads[w] + cell,
                math.ceil((total - p_min[t] + cell) / inst.n_workers - 1e-9),
            )
            if after < gub:
                pairs.append((after, w))
    return accepted


def reference_branch_choice(state, gub):
    """Transparent restatement of the three-level branching rule; returns
    the task and the (bound, worker) pairs of its feasible workers."""
    scored = []
    for t, pairs in reference_pairs(state, gub).items():
        task_lb = min(after for after, _ in pairs) if pairs else math.inf
        scored.append(((len(pairs), -task_lb, t), pairs))
    key, pairs = min(scored)
    return key[2], pairs


def optimal_assignments(inst, value):
    """Every task -> worker map of cycle time `value` whose induced worker
    digraph is acyclic, as brute_force_optimal enumerates them."""
    m = inst.n_workers
    closure = sorted(inst.closure)
    for combo in itertools.product(*inst.feasible_workers):
        loads = [0] * m
        for t, w in enumerate(combo):
            loads[w] += inst.times[t][w]
        if max(loads) != value:
            continue
        mask = 0
        for a, b in closure:
            if combo[a] != combo[b]:
                mask |= 1 << (combo[a] * m + combo[b])
        if bnb._digraph_is_acyclic(mask, m):
            yield combo


class TestBranchSelection:
    def test_matches_reference_on_fig1_root(self, fig1):
        state = SearchState(fig1)
        assert select_branch_task(state, gub=7) == reference_branch_choice(state, gub=7)

    def test_matches_reference_on_random_states(self):
        for seed in range(30):
            inst = random_instance(seed)
            state = SearchState(inst)
            # pin a task to build a nontrivial state
            t0 = seed % inst.n_tasks
            w0 = next(w for w in range(inst.n_workers) if inst.times[t0][w] != INFEASIBLE)
            set_assignment(state, t0, w0)
            apply_reduction_rules(state, t0, w0, gub=60)
            for gub in (8, 20, math.inf):
                assert select_branch_task(state, gub) == reference_branch_choice(state, gub)

    def test_offers_exactly_the_workers_set_assignment_accepts(self, monkeypatch):
        # at every node of searches with the rules on, each offered worker
        # is accepted, and of a task's open cells, the ones _cycle_tasks
        # blocks are exactly the ones set_assignment rejects; blocking by the
        # tasks' direct neighbours alone (ahead and behind built from direct
        # arcs) offers 6 workers here that set_assignment rejects
        select = bnb.select_branch_task
        offered = []

        def checked(state, gub, *reduce):
            blocked = bnb._cycle_tasks(state)
            asg, eff = node_assignment(state), node_matrix(state)
            for t in range(state.inst.n_tasks):
                if t in asg:
                    continue
                for w, p in enumerate(eff[t]):
                    if p != INFEASIBLE:
                        assert set_assignment(state.child(), t, w) != bool(blocked[w] >> t & 1)
            choice = select(state, gub, *reduce)
            if choice is not None:  # the pass found the node dead
                t, pairs = choice
                offered.extend(set_assignment(state.child(), t, w) for _after, w in pairs)
            return choice

        monkeypatch.setattr(bnb, "select_branch_task", checked)
        for seed in range(100):
            branch_and_bound(random_instance(seed, 12, 3), BnbConfig(heuristic_on=False))
        assert len(offered) > 1000 and all(offered)

    def test_unique_maximum_wins(self):
        inst = Instance(
            [[2, 2, 2], [3, INFEASIBLE, INFEASIBLE], [2, 2, 2]],
            set(),
        )
        state = SearchState(inst)
        assert select_branch_task(state, gub=math.inf)[0] == 1

    def test_full_tie_takes_lowest_index(self):
        inst = Instance([[2, 2], [2, 2], [2, 2]], set())
        state = SearchState(inst)
        assert select_branch_task(state, gub=math.inf)[0] == 0

    def test_partial_lc1_accounts_loads(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 5, 0)
        t, pairs = select_branch_task(state, gub=math.inf)
        assert 0 in [w for _, w in pairs]  # the loaded worker is scored
        for after, w in pairs:
            assert after >= state.loads[w] + node_matrix(state)[t][w]


class TestReductionPass:
    """select_branch_task with reduce: it closes every cell branching
    refuses and pins every task left with one worker, to a fixpoint."""

    def test_keeps_an_optimum_open_and_only_accepted_cells(self):
        # at the root and at each child of task 0, with cut-off optimum + 1:
        # where the node holds an optimal assignment, one stays open, so no
        # closure and no pin goes against every optimum; and every open cell
        # of a task left unassigned is one branching accepts
        pins = closures = 0
        for seed in range(60):
            inst = random_instance(seed)
            best = brute_force_optimal(inst)
            if best == INFEASIBLE:
                continue
            gub = best + 1
            optima = list(optimal_assignments(inst, best))
            root = SearchState(inst)
            states = [root]
            for w in range(inst.n_workers):
                child = root.child()
                if root.feasible[w] & 1 and set_assignment(child, 0, w):
                    if not apply_reduction_rules(child, 0, w, gub):
                        states.append(child)
            for state in states:
                held = any(all(state.feasible[w] >> t & 1 for t, w in enumerate(c)) for c in optima)
                assigned, cells = state.assigned, sum(f.bit_count() for f in state.feasible)
                choice = select_branch_task(state, gub, reduce=True)
                if choice is None:
                    assert not held, seed
                    continue
                kept = any(all(state.feasible[w] >> t & 1 for t, w in enumerate(c)) for c in optima)
                assert kept or not held, seed
                pins += (state.assigned ^ assigned).bit_count()
                closures += cells - sum(f.bit_count() for f in state.feasible)
                accepted = reference_pairs(state, gub)
                for t, pairs in accepted.items():
                    open_cells = [w for w in range(inst.n_workers) if state.feasible[w] >> t & 1]
                    assert [w for _after, w in pairs] == open_cells and len(pairs) >= 2, (seed, t)
                assert choice == (reference_branch_choice(state, gub) if accepted else (None, [])), seed
        assert pins > 200 and closures > 300, (pins, closures)

    def test_search_from_no_incumbent_finds_the_optimum(self):
        for seed in range(60):
            inst = random_instance(seed)
            best = brute_force_optimal(inst)
            result = branch_and_bound(inst, BnbConfig(heuristic_on=False))
            if best == INFEASIBLE:
                assert result.status == INFEASIBLE_STATUS, seed
            else:
                assert (result.status, result.value) == (OPTIMAL, best), seed
                assert validate_solution(inst, result.solution) == []


class TestNodeBound:
    def test_no_ascent_at_a_node(self, monkeypatch):
        # with no incumbent every stage of the node bound runs
        ascents = count_calls(monkeypatch, bounds, "_l1_ascent")
        for seed in range(20):
            inst = random_instance(seed)
            state = SearchState(inst)
            w = next(w for w in range(inst.n_workers) if not math.isinf(node_matrix(state)[0][w]))
            set_assignment(state, 0, w)
            assert _node_bound(state, math.inf) >= state.loads[w]
        assert ascents == []

    def test_exact_below_the_incumbent(self):
        # LC3 searched on [value so far, gub] gives the bound of the full
        # search whenever that is below gub, and a prune otherwise; dense
        # precedence on four workers makes LC3 the deciding stage at times
        decided_by_lc3 = 0
        for seed in range(80):
            rng = random.Random(seed)
            edges = {(i, j) for i in range(10) for j in range(i + 1, 10) if rng.random() < 0.5}
            inst = generate_instance([rng.randint(1, 10) for _ in range(10)], edges, 4, "low", 0.1, seed)
            state = SearchState(inst)
            if seed % 2:
                t0 = seed % inst.n_tasks
                w0 = next(w for w in range(inst.n_workers) if inst.times[t0][w] != INFEASIBLE)
                set_assignment(state, t0, w0)
                apply_reduction_rules(state, t0, w0, gub=60)
            p = [int(min(row)) for row in node_matrix(state)]
            m = inst.n_workers
            before = max(max(state.loads), max(p), -(-sum(p) // m), bounds._lc2(sorted(p, reverse=True), m))
            heads, tails = star_sums(inst, p)
            full = max(before, bounds._lc3_search(heads, tails, m, max(p), max(max(p), sum(p))))
            decided_by_lc3 += full > before
            for gub in [*range(1, full + 3), math.inf]:
                value = _node_bound(state, gub)
                assert value == full if full < gub else value >= gub
        assert decided_by_lc3

    def test_one_ascent_per_solve_at_the_root(self, monkeypatch):
        ascents = count_calls(monkeypatch, bounds, "_l1_ascent")
        nodes = count_calls(monkeypatch, bnb, "_node_bound")
        for seed in range(3):
            ascents.clear()
            branch_and_bound(random_instance(seed, n_tasks=12, n_workers=3))
            assert len(ascents) == 1
        assert nodes

    def test_warm_start_beam_is_narrow(self, monkeypatch, tmp_path):
        widths = []
        beam = heuristic.beam_search_feasible

        def recorded(inst, params, **kwargs):
            widths.append((params.gamma, params.beam_factor))
            return beam(inst, params, **kwargs)

        monkeypatch.setattr(heuristic, "beam_search_feasible", recorded)
        inst = random_instance(5, n_tasks=12, n_workers=3)
        branch_and_bound(inst)
        # the initial construction runs at beam factor one with the same width
        assert widths and set(widths) == {(bnb.WARM_START_GAMMA, bnb.WARM_START_BEAM_FACTOR)} == {(10, 1)}
        widths.clear()
        path = tmp_path / "inst.alwabp"
        path.write_text(write_instance(inst))
        cli.run(["heur", str(path), "--t-min", "0", "--repetitions", "1"])
        assert set(widths[1:]) == {(125, 5)}
        assert widths[0] == (125, 1)


class TestWarmStart:
    @staticmethod
    def record_beam_calls(monkeypatch):
        """(cycle time, solution or FAILED) per beam call, in call order;
        the first is the initial construction."""
        calls = []
        beam = heuristic.beam_search_feasible

        def recorded(inst, params, **kwargs):
            sol = beam(inst, params, **kwargs)
            calls.append((params.cycle_time, sol))
            return sol

        monkeypatch.setattr(heuristic, "beam_search_feasible", recorded)
        return calls

    def test_first_sweep_starts_below_polished_construction(self, monkeypatch):
        calls = self.record_beam_calls(monkeypatch)
        inst = random_instance(5, n_tasks=12, n_workers=3)
        branch_and_bound(inst)
        construction = calls[0][1]
        polished = heuristic.local_search(inst, construction).cycle_time
        assert polished < construction.cycle_time
        assert calls[1][0] == polished - 1

    def test_one_sweep_from_an_optimal_start(self, monkeypatch):
        calls = self.record_beam_calls(monkeypatch)
        inst = random_instance(6, n_tasks=12, n_workers=3)
        result = branch_and_bound(inst)
        polished = heuristic.local_search(inst, calls[0][1]).cycle_time
        root = result.root_bounds.best
        assert polished == result.value == brute_force_optimal(inst) > root
        # every call of the sweep fails, and no second sweep retries them
        start = max(root, math.floor(heuristic.DEFAULT_INTERVAL_FACTOR * polished))
        assert [c for c, _ in calls[1:]] == list(range(polished - 1, start - 1, -1))
        assert all(sol is heuristic.FAILED for _, sol in calls[1:])

    def test_unbeaten_polish_is_not_searched_again(self, monkeypatch):
        # no sweep beats the polished start here (see above), so it is the
        # warm start's result, and local search ran on it once, not twice
        searches = count_calls(monkeypatch, heuristic, "local_search")
        branch_and_bound(random_instance(6, n_tasks=12, n_workers=3))
        assert len(searches) == 1


class TestBranchAndBound:
    def test_fig1_optimal(self, fig1):
        result = branch_and_bound(fig1)
        assert result.status == OPTIMAL
        assert result.value == 6
        assert result.elapsed_s < 1.0
        assert validate_solution(fig1, result.solution) == []
        assert check_solution_against_model(fig1, "m3", result.solution) == []

    def test_single_optimal_at_root(self, single):
        result = branch_and_bound(single)
        assert result.status == OPTIMAL
        assert result.value == 7
        assert result.nodes == 1

    def test_matches_oracle_on_random_instances(self):
        for seed in range(40):
            inst = random_instance(seed)
            oracle = brute_force_optimal(inst)
            result = branch_and_bound(inst)
            if oracle == INFEASIBLE:
                assert result.status == INFEASIBLE_STATUS
            else:
                assert result.status == OPTIMAL
                assert result.value == oracle
                assert validate_solution(inst, result.solution) == []

    def test_rules_off_same_value(self):
        for seed in range(12):
            inst = random_instance(seed)
            if brute_force_optimal(inst) == INFEASIBLE:
                continue
            on = branch_and_bound(inst, BnbConfig(reduction_rules=True))
            off = branch_and_bound(inst, BnbConfig(reduction_rules=False))
            assert on.value == off.value

    def test_without_heuristic(self, fig1):
        result = branch_and_bound(fig1, BnbConfig(heuristic_on=False))
        assert result.status == OPTIMAL
        assert result.value == 6

    def test_warm_start_incumbent(self, fig1):
        from alwabp import Solution

        incumbent = Solution((2, 0, 1), (2, 0, 2, 0, 1, 1), 6)
        result = branch_and_bound(fig1, BnbConfig(heuristic_on=False, incumbent=incumbent))
        assert result.status == OPTIMAL
        assert result.value == 6

    def test_infeasible_instance(self):
        inst = Instance(
            [[INFEASIBLE, 1], [1, INFEASIBLE], [INFEASIBLE, 1]],
            {(0, 1), (1, 2)},
        )
        result = branch_and_bound(inst)
        assert result.status == INFEASIBLE_STATUS
        assert result.solution is None
        assert result.value is None

    def test_time_limit_status(self):
        inst = random_instance(3, n_tasks=8, n_workers=3, infeasibility=0.0)
        result = branch_and_bound(inst, BnbConfig(time_limit=0.0))
        assert result.status in (FEASIBLE_TIME_LIMIT, OPTIMAL)
        if result.status == FEASIBLE_TIME_LIMIT:
            assert result.solution is not None

    def test_time_limit_without_a_solution(self):
        # the deadline stops the search before any solution: a feasible
        # instance searched from no incumbent, and an infeasible one
        golden = Path(__file__).parent / "golden" / "paper_40x6_low_91.alwabp"
        infeasible = Instance([[INFEASIBLE, 1], [1, INFEASIBLE], [INFEASIBLE, 1]], {(0, 1), (1, 2)})
        for inst, heuristic_on in ((parse_instance(golden.read_text(encoding="ascii")), False), (infeasible, True)):
            result = branch_and_bound(inst, BnbConfig(time_limit=0.0, heuristic_on=heuristic_on))
            assert (result.status, result.solution, result.value) == (TIME_LIMIT, None, None)

    def test_time_limit_holds_at_scale(self):
        # the 70x10 instance of acceptance criterion 9; the warm start's own
        # budget there is n * m / 10 = 70 s, so the deadline must cap it
        inst = scale_instance()
        t0 = time.monotonic()
        result = branch_and_bound(inst, BnbConfig(time_limit=1.0))
        assert time.monotonic() - t0 < 2.0
        assert result.status == FEASIBLE_TIME_LIMIT
        assert validate_solution(inst, result.solution) == []

    def test_gub_never_below_optimum(self):
        for seed in range(15):
            inst = random_instance(seed + 100)
            oracle = brute_force_optimal(inst)
            if oracle == INFEASIBLE:
                continue
            result = branch_and_bound(inst)
            assert result.value == oracle
            assert result.root_bounds.best <= oracle

    def test_results_pinned_beyond_12x3(self):
        # (seed, tasks, workers) -> (value, nodes, status) at the default
        # config; node counts change whenever the search does, so a change
        # that means to keep the search as it is must keep these
        pins = {
            (11002, 16, 4): (13, 22, OPTIMAL),
            (11003, 18, 4): (21, 52, OPTIMAL),
            (11004, 20, 4): (21, 62, OPTIMAL),
            (11005, 20, 5): (14, 115, OPTIMAL),
            (11006, 22, 4): (16, 46, OPTIMAL),
            (11007, 24, 5): (17, 87, OPTIMAL),
            (11009, 28, 5): (10, 6, OPTIMAL),
            (11010, 28, 4): (33, 17, OPTIMAL),
        }
        for (seed, n, m), expected in pins.items():
            result = branch_and_bound(random_instance(seed, n, m))
            assert (result.value, result.nodes, result.status) == expected, seed

    def test_results_pinned_at_paper_scale(self):
        # tests/golden/paper_*_91.alwabp: three instances of the paper-scale
        # set, written by perfbench/corpus.generate at corpus seed 91 with
        # base times 1-99 (28x4 low variability with 10 % infeasible cells
        # and 28x7 high with 20 %, arc density 0.1; 40x6 low with 10 %, arc
        # density 0.04); each value is the MILP optimum of perfbench/oracle.py
        pins = {
            "paper_28x4_low_91": (122, 503, OPTIMAL),
            "paper_28x7_high_91": (74, 310, OPTIMAL),
            "paper_40x6_low_91": (75, 184, OPTIMAL),
        }
        golden = Path(__file__).parent / "golden"
        for name, expected in pins.items():
            inst = parse_instance((golden / f"{name}.alwabp").read_text(encoding="ascii"))
            result = branch_and_bound(inst)
            assert (result.value, result.nodes, result.status) == expected, name

    def test_results_pinned_at_paper_shape(self):
        # tests/golden/{roszieg,heskia}_*.alwabp: the task and worker counts
        # of two of the paper's benchmark families at their usual order
        # strengths, written by conftest.order_strength_instance with seed
        # 100 n + m (roszieg: 25 tasks at 0.72, 25x4 high variability with
        # 20 % infeasible cells and 25x6 low with 10 %; heskia: 28 tasks at
        # 0.22, 28x4 high and 28x7 low); their root bounds are 10-37 %
        # below the optimum, and each value is the MILP optimum of
        # perfbench/oracle.py
        pins = {
            ("roszieg_25x4_high_2504", 0.72, 0.2): (342, 23, OPTIMAL),
            ("roszieg_25x6_low_2506", 0.72, 0.1): (110, 353, OPTIMAL),
            ("heskia_28x4_high_2804", 0.22, 0.2): (279, 95, OPTIMAL),
            ("heskia_28x7_low_2807", 0.22, 0.1): (57, 108, OPTIMAL),
        }
        golden = Path(__file__).parent / "golden"
        for (name, strength, infeasibility), expected in pins.items():
            text = (golden / f"{name}.alwabp").read_text(encoding="ascii")
            _family, shape, variability, seed = name.split("_")
            n, m = map(int, shape.split("x"))
            drawn = order_strength_instance(n, m, strength, variability, infeasibility, int(seed))
            assert write_instance(drawn) == text, name
            assert abs(len(drawn.closure) / (n * (n - 1) / 2) - strength) <= 0.01
            result = branch_and_bound(parse_instance(text))
            assert (result.value, result.nodes, result.status) == expected, name


class TestBruteForce:
    def test_fig1(self, fig1):
        assert brute_force_optimal(fig1) == 6

    def test_single(self, single):
        assert brute_force_optimal(single) == 7

    def test_forced_assignment_variant(self, fig1):
        times = [list(row) for row in fig1.times]
        times[0][2] = INFEASIBLE  # t1 now only possible on w1
        constrained = Instance(times, fig1.edges)
        value = brute_force_optimal(constrained)
        assert value >= 6
        result = branch_and_bound(constrained)
        assert result.value == value
        assert result.solution.assignment[0] == 0

    def test_enumeration_guard(self):
        inst = random_instance(0, n_tasks=8, n_workers=3)
        big = Instance([list(row) * 4 for row in inst.times] * 5, set())
        with pytest.raises(EnumerationLimitError):
            brute_force_optimal(big)

    def test_acyclicity_memo_lives_one_call(self, monkeypatch):
        # a call tests each worker digraph once, whatever earlier calls saw
        calls = count_calls(monkeypatch, bnb, "_digraph_is_acyclic")
        inst = random_instance(3, n_tasks=7, n_workers=3)
        brute_force_optimal(inst)
        first = len(calls)
        assert 0 < first < math.prod(len(ws) for ws in inst.feasible_workers)
        brute_force_optimal(inst)
        assert len(calls) == 2 * first
