import math
import time

import pytest

from alwabp import (
    INFEASIBLE,
    BnbConfig,
    EnumerationLimitError,
    Instance,
    SearchState,
    WorkerOrderGraph,
    apply_reduction_rules,
    assignment_is_valid,
    branch_and_bound,
    brute_force_optimal,
    check_solution_against_model,
    select_branch_task,
    set_assignment,
    unset_assignment,
    validate_solution,
    write_instance,
)
from alwabp import bnb, bounds, cli, heuristic
from alwabp.bnb import FEASIBLE_TIME_LIMIT, INFEASIBLE_STATUS, OPTIMAL, _node_bound
from conftest import count_calls, random_instance, scale_instance


class TestWorkerOrderGraph:
    def test_insert_keeps_closure(self):
        h = WorkerOrderGraph(4)
        h.insert(0, 1)
        h.insert(1, 2)
        assert h.has(0, 2)
        added = h.insert(2, 3)
        assert h.has(0, 3) and h.has(1, 3)
        assert set(added) == {(2, 3), (0, 3), (1, 3)}

    def test_remove_restores(self):
        h = WorkerOrderGraph(3)
        first = h.insert(0, 1)
        second = h.insert(1, 2)
        h.remove_arcs(reversed(second))
        assert h.arcs == set(first) == {(0, 1)}

    def test_topological_order_prefers_low_index(self):
        h = WorkerOrderGraph(4)
        h.insert(2, 0)
        assert h.topological_order() == [1, 2, 0, 3]


class TestAssignmentValidity:
    def test_empty_graph_accepts(self, fig1):
        state = SearchState(fig1)
        assert assignment_is_valid(state, 0, 2)

    def test_cross_worker_cycle_rejected(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 0)  # t1 on w1
        assert assignment_is_valid(state, 1, 1)  # t2 on w2 is fine
        set_assignment(state, 1, 1)
        assert state.order_graph.has(0, 1)
        # t5 follows t2 (on w2), so w1 would need to come after w2 too
        assert not assignment_is_valid(state, 4, 0)

    def test_opposite_direction_allowed(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        set_assignment(state, 1, 1)
        assert assignment_is_valid(state, 4, 1)


class TestSetUnset:
    def test_fingerprint_roundtrip(self, fig1):
        state = SearchState(fig1)
        before = state.fingerprint()
        set_assignment(state, 0, 2)
        apply_reduction_rules(state, 0, 2, gub=7)
        assert state.fingerprint() != before
        unset_assignment(state, 0, 2)
        assert state.fingerprint() == before

    def test_assignment_pins_its_row(self, fig1):
        # R1 without the reduction rules: t2 on w2 leaves t2 no other cell
        state = SearchState(fig1)
        before = state.fingerprint()
        set_assignment(state, 1, 1)
        assert math.isinf(state.eff[1, 0]) and math.isinf(state.eff[1, 2])
        assert state.eff[1, 1] == 5
        assert state.eff.min(axis=1)[1] == 5
        unset_assignment(state, 1, 1)
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
        assert math.isinf(state.eff[2, 0])

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
        set_assignment(state, 0, 2)
        mid = state.fingerprint()
        set_assignment(state, 1, 0)
        unset_assignment(state, 1, 0)
        assert state.fingerprint() == mid
        unset_assignment(state, 0, 2)
        assert state.fingerprint() == base


class TestReductionRules:
    def test_pin_excludes_other_workers(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 2)
        dead = apply_reduction_rules(state, 0, 2, gub=100)
        assert not dead
        assert math.isinf(state.eff[0, 0])
        assert math.isinf(state.eff[0, 1])

    def test_chain_load_exclusion(self, fig1):
        # tasks 2, 3, 5 lie between tasks 1 and 6; their worker-1 times plus
        # those of 1 and 6 sum to 18, meeting any incumbent below that
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        dead = apply_reduction_rules(state, 0, 0, gub=7)
        assert not dead
        assert math.isinf(state.eff[5, 0])

    def test_no_exclusion_with_loose_incumbent(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        apply_reduction_rules(state, 0, 0, gub=100)
        assert not math.isinf(state.eff[5, 0])

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
        assert math.isinf(state.eff[2, 0])

    def test_forcing_assigns_between_task(self, fig1):
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        apply_reduction_rules(state, 0, 0, gub=100)
        set_assignment(state, 3, 0)
        dead = apply_reduction_rules(state, 3, 0, gub=100)
        assert not dead
        assert state.assignment[2] == 0  # t3 sits between t1 and t4

    def test_rules_undo_cleanly(self, fig1):
        state = SearchState(fig1)
        before = state.fingerprint()
        set_assignment(state, 0, 0)
        apply_reduction_rules(state, 0, 0, gub=7)
        unset_assignment(state, 0, 0)
        assert state.fingerprint() == before


def reference_branch_choice(state, gub):
    """Transparent restatement of the three-level branching rule; returns
    the task and the (bound, worker) pairs of its feasible workers."""
    inst = state.inst
    p_min = [min(state.eff[t, w] for w in range(inst.n_workers)) for t in range(inst.n_tasks)]
    total = sum(p_min)
    max_load = max(state.loads)
    scored = []
    for t in range(inst.n_tasks):
        if t in state.assignment:
            continue
        infeasible = 0
        pairs = []
        for w in range(inst.n_workers):
            cell = state.eff[t, w]
            if math.isinf(cell):
                infeasible += 1
                continue
            cyclic = False
            for u in inst.preds[t]:
                v = state.assignment.get(u)
                if v is not None and v != w and state.order_graph.has(w, v):
                    cyclic = True
            for u in inst.succs[t]:
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
            assert after >= state.loads[w] + state.eff[t, w]


class TestNodeBound:
    def test_no_ascent_at_a_node(self, monkeypatch):
        # with no incumbent every stage of the node bound runs
        ascents = count_calls(monkeypatch, bounds, "_l1_ascent")
        for seed in range(20):
            inst = random_instance(seed)
            state = SearchState(inst)
            w = next(w for w in range(inst.n_workers) if not math.isinf(state.eff[0, w]))
            set_assignment(state, 0, w)
            assert _node_bound(state, math.inf) >= state.loads[w]
        assert ascents == []

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
