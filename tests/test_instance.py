import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alwabp import (
    INFEASIBLE,
    CycleError,
    GenerationError,
    Instance,
    ParseError,
    Solution,
    brute_force_optimal,
    generate_instance,
    parse_instance,
    reverse_instance,
    transitive_closure,
    transitive_reduction,
    validate_solution,
    write_instance,
)
from alwabp.instance import iter_bits, topological_order
from conftest import (
    FIG1_EDGES,
    FIG1_TEXT,
    SINGLE_TEXT,
    closure_by_reachability,
    random_instance,
    scale_instance,
    star_sums,
)


class TestParse:
    def test_fig1(self, fig1):
        assert fig1.n_tasks == 6
        assert fig1.n_workers == 3
        assert fig1.times[0] == (4, INFEASIBLE, 3)
        assert fig1.times[3] == (1, 5, INFEASIBLE)
        assert fig1.edges == FIG1_EDGES
        assert fig1.closure == frozenset(closure_by_reachability(FIG1_EDGES, 6))
        assert len(fig1.closure) == 11

    def test_single(self, single):
        assert single.n_tasks == 1
        assert single.n_workers == 1
        assert single.closure == frozenset()

    def test_cycle_rejected(self):
        text = FIG1_TEXT.replace("precedences\n", "precedences\n2 1\n")
        with pytest.raises(ParseError, match="cyclic precedence"):
            parse_instance(text)

    def test_duplicate_edge_rejected(self):
        text = FIG1_TEXT.replace("precedences\n1 2\n", "precedences\n1 2\n1 2\n")
        with pytest.raises(ParseError, match=r"line 13: duplicate edge \(1,2\)"):
            parse_instance(text)

    def test_redundant_arcs_are_normalized(self):
        # an acyclic but non-reduced edge list parses and is stored reduced
        text = FIG1_TEXT.replace("precedences\n", "precedences\n1 5\n")
        inst = parse_instance(text)
        assert inst.edges == FIG1_EDGES

    def test_task_without_worker_rejected(self):
        text = FIG1_TEXT.replace("4 inf 3", "inf inf inf")
        with pytest.raises(ParseError, match="task 1 has no feasible worker"):
            parse_instance(text)

    def test_worker_count_rejected(self):
        text = SINGLE_TEXT.replace("workers 1", "workers 0")
        with pytest.raises(ParseError, match="at least one worker"):
            parse_instance(text)

    def test_malformed_duration(self):
        text = FIG1_TEXT.replace("4 5 4", "4 five 4")
        with pytest.raises(ParseError, match="line 6: bad duration 'five'"):
            parse_instance(text)

    def test_zero_duration_rejected(self):
        text = FIG1_TEXT.replace("4 5 4", "0 5 4")
        with pytest.raises(ParseError, match="positive"):
            parse_instance(text)

    def test_content_after_end(self):
        with pytest.raises(ParseError, match="after 'end'"):
            parse_instance(SINGLE_TEXT + "stray\n")

    def test_truncated(self):
        with pytest.raises(ParseError, match="unexpected end of input"):
            parse_instance("alwabp 1\ntasks 2\nworkers 1\ntimes\n3\n")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("tasks 6", "tasks 0_6", "expected integer after 'tasks'"),
            ("workers 3", "workers +3", "expected integer after 'workers'"),
            ("tasks 6", "tasks \u0666", "expected integer after 'tasks'"),
            ("4 5 4", "4 1_0 4", "bad duration '1_0'"),
            ("4 5 4", "4 \u0662 4", "bad duration '\u0662'"),
            ("4 5 4", "4 +5 4", "bad duration '\\+5'"),
            ("1 2\n", "1 \uff12\n", "edge endpoints must be integers"),
        ],
    )
    def test_only_ascii_decimal_integers(self, old, new, message):
        # int() takes each of these; the format has an optional '-' and
        # ASCII digits only
        text = FIG1_TEXT.replace(old, new, 1)
        assert text != FIG1_TEXT
        with pytest.raises(ParseError, match=message):
            parse_instance(text)

    def test_negative_integers_keep_their_messages(self):
        with pytest.raises(ParseError, match="duration must be positive, got -5"):
            parse_instance(FIG1_TEXT.replace("4 5 4", "4 -5 4"))
        with pytest.raises(ParseError, match="need at least one task"):
            parse_instance(FIG1_TEXT.replace("tasks 6", "tasks -1"))
        with pytest.raises(ParseError, match=r"edge \(-1,2\) out of range"):
            parse_instance(FIG1_TEXT.replace("precedences\n1 2\n", "precedences\n-1 2\n"))

    def test_comments_and_blank_lines(self):
        text = "# header comment\n" + FIG1_TEXT.replace("times\n", "times   # matrix follows\n\n")
        inst = parse_instance(text)
        assert inst == parse_instance(FIG1_TEXT)


class TestRoundTrip:
    def test_fig1(self, fig1):
        assert parse_instance(write_instance(fig1)) == fig1

    def test_single(self, single):
        assert parse_instance(write_instance(single)) == single

    def test_random_instances(self):
        for seed in range(30):
            inst = random_instance(seed)
            text = write_instance(inst)
            again = parse_instance(text)
            assert again == inst
            assert write_instance(again) == text


def edges_strategy(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)).map(set) if pairs else st.just(set())


@st.composite
def dag_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    labels = draw(st.permutations(range(n)))
    edges = draw(edges_strategy(n))
    # relabelling keeps acyclicity but hides the topological order
    return n, {(labels[a], labels[b]) for a, b in edges}


class TestClosureReduction:
    def test_fig1_closure(self):
        expected = FIG1_EDGES | {(0, 3), (0, 4), (0, 5), (1, 5), (2, 5)}
        assert transitive_closure(FIG1_EDGES, 6) == expected

    def test_empty(self):
        assert transitive_closure(set(), 4) == set()
        assert transitive_reduction(set(), 4) == set()

    def test_chain(self):
        assert transitive_closure({(0, 1), (1, 2)}, 3) == {(0, 1), (1, 2), (0, 2)}
        assert transitive_reduction({(0, 1), (1, 2), (0, 2)}, 3) == {(0, 1), (1, 2)}

    def test_fig1_closure_reduces_to_edges(self):
        closure = transitive_closure(FIG1_EDGES, 6)
        assert len(closure) == 11
        assert transitive_reduction(closure, 6) == FIG1_EDGES

    def test_cycle_detected(self):
        with pytest.raises(CycleError):
            transitive_closure({(0, 1), (1, 0)}, 2)
        with pytest.raises(CycleError):
            transitive_reduction({(0, 1), (1, 2), (2, 0)}, 3)

    def test_topological_order_rejects_two_cycle(self):
        with pytest.raises(CycleError):
            topological_order([[1], [0]], 2)

    @given(dag_strategy())
    @settings(max_examples=200, deadline=None)
    def test_closure_matches_reachability(self, data):
        n, edges = data
        assert transitive_closure(edges, n) == closure_by_reachability(edges, n)

    @given(dag_strategy())
    @settings(max_examples=200, deadline=None)
    def test_reduction_is_minimal_and_equivalent(self, data):
        n, edges = data
        closure = transitive_closure(edges, n)
        reduced = transitive_reduction(edges, n)
        assert reduced <= set(edges)
        assert transitive_closure(reduced, n) == closure
        for e in reduced:
            smaller = transitive_closure(reduced - {e}, n)
            assert smaller != closure

    @given(dag_strategy())
    @settings(max_examples=100, deadline=None)
    def test_reduce_closure_equals_reduce_edges(self, data):
        n, edges = data
        closure = transitive_closure(edges, n)
        assert transitive_reduction(closure, n) == transitive_reduction(edges, n)


class TestAdjacency:
    @staticmethod
    def cases():
        return [random_instance(seed) for seed in range(30)] + [
            random_instance(9500 + k, 15 + 10 * k, 4) for k in range(6)
        ] + [scale_instance()]

    def test_masks_match_per_task_scans(self):
        for inst in self.cases():
            n = inst.n_tasks
            for t in range(n):
                for got, pairs, side in (
                    (inst.pred_mask[t], inst.edges, 1),
                    (inst.succ_mask[t], inst.edges, 0),
                    (inst.pred_star[t], inst.closure, 1),
                    (inst.succ_star[t], inst.closure, 0),
                ):
                    assert got == sum(1 << pair[1 - side] for pair in pairs if pair[side] == t)
            for a in range(n):
                for b in range(n):
                    assert (inst.pred_star[b] >> a) & 1 == (inst.succ_star[a] >> b) & 1

    def test_derived_views_match_the_masks(self):
        for inst in self.cases():
            heads, tails = star_sums(inst, inst.min_times)
            assert inst.heads_tails == (tuple(heads), tuple(tails))
            masks = (inst.succ_mask, inst.succ_star, inst.pred_star)
            assert inst.relation_lists == tuple(tuple(list(iter_bits(mask)) for mask in ms) for ms in masks)


class TestReverse:
    def test_fig1(self, fig1):
        rev = reverse_instance(fig1)
        assert rev.edges == {(b, a) for a, b in FIG1_EDGES}
        assert rev.times == fig1.times
        assert rev.closure == {(b, a) for a, b in fig1.closure}

    def test_involution(self, fig1):
        assert reverse_instance(reverse_instance(fig1)) == fig1

    def test_single(self, single):
        assert reverse_instance(single) == single

    def test_preserves_optimum(self):
        for seed in range(25):
            inst = random_instance(seed, n_tasks=6, n_workers=2)
            assert brute_force_optimal(inst) == brute_force_optimal(reverse_instance(inst))


class TestGenerator:
    def test_low_variability_range(self):
        base = [4, 4, 3, 1, 1, 6]
        inst = generate_instance(base, FIG1_EDGES, 3, "low", 0.0, seed=1)
        assert [inst.times[t][0] for t in range(6)] == base
        for t in range(6):
            for w in (1, 2):
                assert 1 <= inst.times[t][w] <= base[t]

    def test_high_variability_range(self):
        base = [4, 4, 3, 1, 1, 6]
        inst = generate_instance(base, FIG1_EDGES, 3, "high", 0.0, seed=1)
        for t in range(6):
            for w in (1, 2):
                assert 1 <= inst.times[t][w] <= 2 * base[t]

    def test_infeasible_cell_count(self):
        inst = generate_instance([4, 4, 3, 1, 1, 6], FIG1_EDGES, 3, "low", 0.2, seed=5)
        count = sum(1 for row in inst.times for p in row if p == INFEASIBLE)
        assert count == 4  # round(0.2 * 18) rounded half-up

    def test_determinism(self):
        a = generate_instance([5, 2, 9], set(), 4, "high", 0.3, seed=11)
        b = generate_instance([5, 2, 9], set(), 4, "high", 0.3, seed=11)
        assert a == b

    def test_every_task_keeps_a_worker(self):
        for seed in range(40):
            inst = random_instance(seed, infeasibility=0.2)
            for t in range(inst.n_tasks):
                assert any(p != INFEASIBLE for p in inst.times[t])

    def test_impossible_density_raises(self):
        # 0.99 * 2 * 10 cells rounds to 20 > 2 * 9 removable cells
        with pytest.raises(GenerationError):
            generate_instance([3, 3], set(), 10, "low", 0.99, seed=0)

    def test_base_edges_are_normalized(self):
        inst = generate_instance([1, 1, 1], {(0, 1), (1, 2), (0, 2)}, 2, "low", 0.0, seed=0)
        assert inst.edges == {(0, 1), (1, 2)}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_instance([1], set(), 1, "low", 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_instance([0], set(), 1, "low", 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_instance([1], set(), 1, "medium", 0.0, seed=0)


class TestInstanceValidation:
    def test_equality_ignores_redundant_arc_input(self):
        a = Instance([[2, 3], [1, 1], [4, INFEASIBLE]], {(0, 1), (1, 2)})
        b = Instance([[2, 3], [1, 1], [4, INFEASIBLE]], {(0, 1), (1, 2), (0, 2)})
        assert a == b

    def test_rejects_all_infeasible_task(self):
        with pytest.raises(ValueError, match="no feasible worker"):
            Instance([[INFEASIBLE, INFEASIBLE]], set())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Instance([[0, 2]], set())

    def test_rejects_bool_durations(self):
        # True is an int; written as 'True' it would not parse back
        with pytest.raises(ValueError, match="positive integers"):
            Instance([[True, 2]], set())
        with pytest.raises(ValueError, match="base times"):
            generate_instance([2, True], set(), 2, "low", 0.0, seed=0)


class TestSolutionFromStations:
    def test_order_assignment_and_cycle_time(self, fig1):
        optimum = Solution(*TestValidateSolution.OPTIMUM)
        loads = optimum.loads(fig1)
        stations = [
            (w, sum(1 << t for t, v in enumerate(optimum.assignment) if v == w), loads[w])
            for w in optimum.worker_order
        ]
        assert Solution.from_stations(fig1.n_tasks, iter(stations)) == optimum

    def test_empty_stations(self):
        # an empty station keeps its place in the order and adds no task
        line = Solution.from_stations(3, [(1, 0, 0), (2, 0b101, 7), (0, 0b010, 4), (3, 0, 0)])
        assert line == Solution((1, 2, 0, 3), (2, 0, 2), 7)
        assert Solution.from_stations(2, [(1, 0, 0), (0, 0, 0)]) == Solution((1, 0), (0, 0), 0)


class TestValidateSolution:
    OPTIMUM = ((2, 0, 1), (2, 0, 2, 0, 1, 1), 6)

    def test_optimum_is_valid(self, fig1):
        assert validate_solution(fig1, Solution(*self.OPTIMUM)) == []

    @pytest.mark.parametrize("worker", [-1, 3, 7])
    def test_unknown_worker_is_a_violation(self, fig1, worker):
        # task 1 is on the last worker, which -1 would index; 3 (= n_workers)
        # is past the end
        order, assignment, value = self.OPTIMUM
        assignment = (worker, *assignment[1:])
        problems = validate_solution(fig1, Solution(order, assignment, value))
        assert problems == [f"task 1 assigned to unknown worker {worker + 1}"]
