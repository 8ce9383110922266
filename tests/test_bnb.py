import math
import random
import time

import pytest

from alwabp import (
    INFEASIBLE,
    BnbConfig,
    CycleError,
    EnumerationLimitError,
    Instance,
    SearchState,
    WorkerOrderGraph,
    apply_reduction_rules,
    branch_and_bound,
    brute_force_optimal,
    check_solution_against_model,
    generate_instance,
    select_branch_task,
    set_assignment,
    transitive_closure,
    validate_solution,
    write_instance,
)
from alwabp import bnb, bounds, cli, heuristic
from alwabp.bnb import FEASIBLE_TIME_LIMIT, INFEASIBLE_STATUS, OPTIMAL, _node_bound
from alwabp.instance import iter_bits, topological_order
from conftest import count_calls, random_instance, scale_instance


def graph_arcs(h):
    return {(v, w) for v in range(h.n) for w in range(h.n) if h.has(v, w)}


def bits(workers):
    return sum(1 << w for w in workers)


class TestWorkerOrderGraph:
    def test_link_keeps_closure(self):
        h = WorkerOrderGraph(4)
        assert h.link(bits([0]), 1, 0)
        assert h.link(0, 1, bits([2]))
        assert h.has(0, 2)
        assert h.link(bits([2]), 3, 0)
        assert h.has(0, 3) and h.has(1, 3)
        assert h.rows == [bits([1, 2, 3]), bits([2, 3]), bits([3]), 0]

    def test_cycle_link_changes_nothing(self):
        h = WorkerOrderGraph(4)
        h.link(bits([0]), 1, bits([2]))
        rows = list(h.rows)
        # each term of the cycle test: w already reaches a worker of before,
        # before and after share a worker, a worker of after reaches w
        assert not h.link(bits([1]), 0, 0)
        assert not h.link(bits([3]), 1, bits([3]))
        assert not h.link(0, 2, bits([0]))
        assert h.rows == rows

    def test_topological_order_prefers_low_index(self):
        h = WorkerOrderGraph(4)
        h.link(bits([2]), 0, 0)
        assert h.topological_order() == [1, 2, 0, 3]

    def test_random_links_match_closure(self):
        rng = random.Random(7)
        refused = 0
        for _ in range(200):
            m = rng.randint(1, 7)
            station = list(range(m))
            rng.shuffle(station)  # every linked arc goes forward in this order
            h = WorkerOrderGraph(m)
            linked = set()
            for _ in range(rng.randint(1, 6)):
                w = rng.randrange(m)
                before = bits(v for v in range(m) if station[v] < station[w] and rng.random() < 0.3)
                after = bits(x for x in range(m) if station[x] > station[w] and rng.random() < 0.3)
                assert h.link(before, w, after)
                linked |= {(v, w) for v in range(m) if before >> v & 1}
                linked |= {(w, x) for x in range(m) if after >> x & 1}
                assert graph_arcs(h) == transitive_closure(linked, m)
                order = h.topological_order()
                assert all(order.index(v) < order.index(w) for v, w in graph_arcs(h))
                # a backward arc closes a cycle whenever its ends are linked
                v, x = rng.randrange(m), rng.randrange(m)
                if v != x and h.has(v, x):
                    rows = list(h.rows)
                    assert not h.link(bits([x]), v, 0)
                    assert h.rows == rows
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
        assert state.order_graph.has(0, 1)
        # t5 follows t2 (on w2), so w1 would need to come after w2 too
        child = state.child()
        assert not set_assignment(child, 4, 0)
        assert child.fingerprint() == state.fingerprint()

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
            assert graph_arcs(state.order_graph) == transitive_closure(assignment_arcs(state), inst.n_workers)
            for t in range(inst.n_tasks):
                if t not in state.assignment:
                    for w in range(inst.n_workers):
                        valid = set_assignment(state.child(), t, w)
                        assert valid == reference_valid(state, t, w)
                        outcomes.add(valid)
        assert outcomes == {True, False}


def assignment_arcs(state, asg=None):
    """Worker order arcs implied by an assignment through the task closure."""
    asg = state.assignment if asg is None else asg
    return {(asg[a], asg[b]) for a, b in state.inst.closure if a in asg and b in asg and asg[a] != asg[b]}


def reference_valid(state, t, w):
    """True iff assigning t to w leaves the implied worker digraph acyclic."""
    succ = [[] for _ in range(state.inst.n_workers)]
    for v, x in assignment_arcs(state, {**state.assignment, t: w}):
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
        before = state.fingerprint()
        child = state.child()
        assert child.fingerprint() == before
        set_assignment(child, 0, 2)
        assert not apply_reduction_rules(child, 0, 2, gub=7)
        assert child.fingerprint() != before
        assert state.fingerprint() == before

    def test_assignment_pins_its_row(self, fig1):
        # R1 without the reduction rules: t2 on w2 leaves t2 no other cell
        state = SearchState(fig1)
        before = state.fingerprint()
        child = state.child()
        set_assignment(child, 1, 1)
        assert math.isinf(child.eff[1][0]) and math.isinf(child.eff[1][2])
        assert child.eff[1][1] == 5
        assert min(child.eff[1]) == 5
        assert state.fingerprint() == before
        assert list(state.eff[1]) == [4, 5, 4]

    def test_rules_propagate_the_pin(self):
        # t1 on w1 after t0 on w0: the pin's mark (t1, w0) must reach the
        # continuity rule, which then cuts t2, a successor of t1, from w0
        inst = Instance([[1, 1], [1, 1], [1, 1]], {(0, 1), (1, 2)})
        state = SearchState(inst)
        set_assignment(state, 0, 0)
        assert not apply_reduction_rules(state, 0, 0, gub=math.inf)
        set_assignment(state, 1, 1)
        assert not apply_reduction_rules(state, 1, 1, gub=math.inf)
        assert math.isinf(state.eff[2][0])

    def test_direct_edge_creates_arc(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 2)
        set_assignment(state, 1, 0)
        assert state.order_graph.has(2, 0)

    def test_closure_edge_creates_arc(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 2)
        set_assignment(state, 5, 1)  # (t1, t6) is only in the closure
        assert state.order_graph.has(2, 1)

    def test_nested_frames(self, fig1):
        state = SearchState(fig1)
        base = state.fingerprint()
        child = state.child()
        set_assignment(child, 0, 2)
        mid = child.fingerprint()
        grandchild = child.child()
        set_assignment(grandchild, 1, 0)
        apply_reduction_rules(grandchild, 1, 0, gub=7)
        assert grandchild.fingerprint() != mid
        assert child.fingerprint() == mid
        assert state.fingerprint() == base


class TestReductionRules:
    def test_pin_excludes_other_workers(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 2)
        dead = apply_reduction_rules(state, 0, 2, gub=100)
        assert not dead
        assert math.isinf(state.eff[0][0])
        assert math.isinf(state.eff[0][1])

    def test_chain_load_exclusion(self, fig1):
        # tasks 2, 3, 5 lie between tasks 1 and 6; their worker-1 times plus
        # those of 1 and 6 sum to 18, meeting any incumbent below that
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        dead = apply_reduction_rules(state, 0, 0, gub=7)
        assert not dead
        assert math.isinf(state.eff[5][0])

    def test_no_exclusion_with_loose_incumbent(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        apply_reduction_rules(state, 0, 0, gub=100)
        assert not math.isinf(state.eff[5][0])

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
        assert math.isinf(state.eff[2][0])

    def test_forcing_assigns_between_task(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        apply_reduction_rules(state, 0, 0, gub=100)
        set_assignment(state, 3, 0)
        dead = apply_reduction_rules(state, 3, 0, gub=100)
        assert not dead
        assert state.assignment[2] == 0  # t3 sits between t1 and t4

    def test_rules_undo_cleanly(self, fig1):
        # every child, alive or dead (given up half-way through its rules),
        # leaves its parent as it was
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        assert not apply_reduction_rules(state, 0, 0, gub=7)
        before = state.fingerprint()
        dead = 0
        for t in range(fig1.n_tasks):
            for w in range(fig1.n_workers):
                if t in state.assignment or math.isinf(state.eff[t][w]):
                    continue
                child = state.child()
                if set_assignment(child, t, w):
                    dead += apply_reduction_rules(child, t, w, gub=7)
                assert state.fingerprint() == before
        assert dead


def reference_branch_choice(state, gub):
    """Transparent restatement of the three-level branching rule; returns
    the task and the (bound, worker) pairs of its feasible workers."""
    inst = state.inst
    p_min = [min(state.eff[t][w] for w in range(inst.n_workers)) for t in range(inst.n_tasks)]
    total = sum(p_min)
    max_load = max(state.loads)
    scored = []
    for t in range(inst.n_tasks):
        if t in state.assignment:
            continue
        infeasible = 0
        pairs = []
        for w in range(inst.n_workers):
            cell = state.eff[t][w]
            if math.isinf(cell):
                infeasible += 1
                continue
            cyclic = False
            for u in iter_bits(inst.pred_mask[t]):
                v = state.assignment.get(u)
                if v is not None and v != w and state.order_graph.has(w, v):
                    cyclic = True
            for u in iter_bits(inst.succ_mask[t]):
                x = state.assignment.get(u)
                if x is not None and x != w and state.order_graph.has(x, w):
                    cyclic = True
            if cyclic:
                infeasible += 1
                continue
            after = max(
                max_load,
                state.loads[w] + cell,
                math.ceil((total - p_min[t] + cell) / inst.n_workers - 1e-9),
            )
            if after >= gub:
                infeasible += 1
            else:
                pairs.append((after, w))
        task_lb = min(after for after, _ in pairs) if pairs else math.inf
        scored.append(((-infeasible, -task_lb, t), pairs))
    key, pairs = min(scored)
    return key[2], pairs


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
            assert after >= state.loads[w] + state.eff[t][w]


class TestNodeBound:
    def test_no_ascent_at_a_node(self, monkeypatch):
        # with no incumbent every stage of the node bound runs
        ascents = count_calls(monkeypatch, bounds, "_l1_ascent")
        for seed in range(20):
            inst = random_instance(seed)
            state = SearchState(inst)
            w = next(w for w in range(inst.n_workers) if not math.isinf(state.eff[0][w]))
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
            p = [int(min(row)) for row in state.eff]
            m = inst.n_workers
            before = max(max(state.loads), max(p), -(-sum(p) // m), bounds._lc2(sorted(p, reverse=True), m))
            full = max(before, bounds._lc3(inst, p, max(p), max(max(p), sum(p))))
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
            (11002, 16, 4): (13, 81, OPTIMAL),
            (11003, 18, 4): (21, 194, OPTIMAL),
            (11004, 20, 4): (21, 243, OPTIMAL),
            (11005, 20, 5): (14, 480, OPTIMAL),
            (11006, 22, 4): (16, 243, OPTIMAL),
            (11007, 24, 5): (17, 328, OPTIMAL),
            (11009, 28, 5): (10, 2432, OPTIMAL),
            (11010, 28, 4): (33, 64, OPTIMAL),
        }
        for (seed, n, m), expected in pins.items():
            result = branch_and_bound(random_instance(seed, n, m))
            assert (result.value, result.nodes, result.status) == expected, seed


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
