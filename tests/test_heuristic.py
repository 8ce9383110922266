import hashlib
import heapq
import math
import time
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from alwabp import (
    FAILED,
    INFEASIBLE,
    BeamParams,
    BnbConfig,
    Instance,
    IpbsParams,
    all_bounds,
    lc1,
    beam_search_feasible,
    brute_force_optimal,
    initial_upper_bound,
    ipbs,
    local_search,
    parse_instance,
    validate_solution,
)
from alwabp import Solution, bounds, heuristic
from alwabp.bnb import SearchState, apply_reduction_rules, set_assignment
from alwabp.heuristic import _UNIFORM_BLOCK, _draw, _fill_station, _rlb_sum
from alwabp.instance import iter_bits
from conftest import (
    NARROW_BEAM_FAILS_TEXT,
    count_calls,
    node_assignment,
    node_matrix,
    random_instance,
    scale_instance,
)


class TestMaxPw:
    def test_fig1_first_task(self, fig1):
        assert fig1.beam_tables.pw[0] == 15

    def test_fig1_leaf_task(self, fig1):
        assert fig1.beam_tables.pw[3] == 1

    def test_single(self, single):
        assert single.beam_tables.pw[0] == 7


class TestMinRlb:
    """The restricted lower bound's numerator, as the beam scores a partial."""

    def test_empty_partial(self, fig1):
        assert _rlb_sum(fig1, 0, 0b111) == 15

    def test_after_first_station(self, fig1):
        # worker 3 ran tasks 1 and 3
        assert _rlb_sum(fig1, 0b101, 0b011) == 10

    def test_all_assigned(self, fig1):
        assert _rlb_sum(fig1, 0b111111, 0) == 0

    def test_unassignable_task_prunes(self):
        # task 2 is only feasible for worker 0, which is consumed
        inst = Instance([[1, 1], [2, INFEASIBLE]], set())
        assert _rlb_sum(inst, 0b01, 0b10) is None


def rlb_sum_reference(inst, assigned_mask, workers_mask):
    # row minima of the instance matrix over the unassigned tasks and workers
    rows = [t for t in range(inst.n_tasks) if not (assigned_mask >> t) & 1]
    if not rows:
        return 0
    cols = [w for w in range(inst.n_workers) if (workers_mask >> w) & 1]
    if not cols:
        return None
    mins = inst.times_array[np.ix_(rows, cols)].min(axis=1)
    return None if np.isinf(mins).any() else int(mins.sum())


class TestBeamTables:
    """The per-instance tables of the beam search against full scans."""

    def test_fit_masks_match_scan(self):
        for seed in range(60):
            inst = random_instance(seed) if seed < 40 else random_instance(seed, n_tasks=20, n_workers=5)
            tables = inst.beam_tables
            for w in range(inst.n_workers):
                finite = [inst.times[t][w] for t in range(inst.n_tasks) if inst.times[t][w] != INFEASIBLE]
                for r in range(max(finite, default=0) + 2):
                    expected = sum(1 << t for t in range(inst.n_tasks) if inst.times[t][w] <= r)
                    assert tables.fit_masks[w][bisect_right(tables.fit_times[w], r)] == expected, (seed, w, r)

    def test_rlb_sum_matches_matrix_formula(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for seed in range(60):
            inst = random_instance(seed, infeasibility=0.2) if seed % 2 else random_instance(seed)
            full_tasks = (1 << inst.n_tasks) - 1
            full_workers = (1 << inst.n_workers) - 1
            states = [(0, 0), (full_tasks, 0), (full_tasks, full_workers), (0, full_workers)]
            states += [
                (int(rng.integers(0, full_tasks + 1)), int(rng.integers(0, full_workers + 1))) for _ in range(40)
            ]
            for assigned, workers in states:
                expected = rlb_sum_reference(inst, assigned, workers)
                assert _rlb_sum(inst, assigned, workers) == expected, (seed, assigned, workers)

    def test_tables_not_shared(self):
        a = Instance([[1, 2], [3, 4]], set())
        b = Instance([[1, 2], [3, 4]], set())
        c = Instance([[5, 2], [3, 9]], {(0, 1)})
        assert a == b
        assert a.beam_tables is a.beam_tables
        assert len({id(a.beam_tables), id(b.beam_tables), id(c.beam_tables)}) == 3
        assert _rlb_sum(a, 0, 0b01) == 4
        assert _rlb_sum(c, 0, 0b01) == 8
        assert a.beam_tables.pw == (1, 3)
        assert c.beam_tables.pw == (5, 3)


def draw_reference(cands, u, pw):
    # the cumulative-list draw that _draw replaced
    order = list(iter_bits(cands))
    cum = []
    total = 0
    for t in order:
        total += pw[t]
        cum.append(total)
    return order[min(bisect_right(cum, u * total), len(order) - 1)]


def weighted_instance(seed, n):
    # n tasks on two workers with times 1..99 and sparse forward arcs, so
    # positional weights are spread and a few run to the thousands
    rng = np.random.Generator(np.random.PCG64(seed))
    times = [[int(rng.integers(1, 100)) for _ in range(2)] for _ in range(n)]
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.05}
    return Instance(times, edges)


class TestDrawKernel:
    """_draw, with byte-chunk lookups, against the cumulative-list draw."""

    SIZES = (7, 8, 9, 16, 17, 40, 70)

    def test_chunk_sums_match_scan(self):
        for n in self.SIZES:
            tables = weighted_instance(n, n).beam_tables
            assert len(tables.pw_chunks) == -(-n // 8)
            for k, sums in enumerate(tables.pw_chunks):
                assert len(sums) == 256
                for b in range(256):
                    expected = sum(tables.pw[8 * k + i] for i in range(8) if (b >> i) & 1 and 8 * k + i < n)
                    assert sums[b] == expected, (n, k, b)

    def test_matches_reference_on_random_masks(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for n in self.SIZES:
            tables = weighted_instance(n, n).beam_tables
            for _ in range(400):
                cands = 0
                while cands & (cands - 1) == 0:  # two or more candidates
                    density = rng.random()
                    cands = sum(1 << t for t in range(n) if rng.random() < density)
                for u in (0.0, 1 - 2**-53, float(rng.random()), float(rng.random())):
                    expected = draw_reference(cands, u, tables.pw)
                    assert _draw(cands, u, tables.pw, tables.pw_chunks) == expected, (n, cands, u)

    def test_edges_of_the_unit_interval(self):
        for n in self.SIZES:
            tables = weighted_instance(n, n).beam_tables
            full = (1 << n) - 1
            for cands in (full, 0b11, full ^ 1, 1 | 1 << (n - 1)):
                lowest = (cands & -cands).bit_length() - 1
                highest = cands.bit_length() - 1
                assert _draw(cands, 0.0, tables.pw, tables.pw_chunks) == lowest
                # u * total stays below total for any positive int total, so
                # the walk ends on the last candidate; u = 1.0 reaches the
                # fallback, which must pick the same one
                assert _draw(cands, 1 - 2**-53, tables.pw, tables.pw_chunks) == highest
                assert _draw(cands, 1.0, tables.pw, tables.pw_chunks) == highest

    def test_lone_candidate_draws_no_number(self):
        class NoDraws:
            def random(self, *args):
                raise AssertionError("a lone candidate consumed a random number")

        # a chain: exactly one task is available at every step
        n = 12
        inst = Instance([[3, 5] for _ in range(n)], {(t, t + 1) for t in range(n - 1)})
        node = heuristic.PartialAssignment(inst)
        uniforms = []
        assigned, _, load, placed = _fill_station(inst, node, 0, 20, NoDraws(), uniforms, inst.beam_tables)
        assert placed == 0b111111 and load == 18 and assigned == 0b111111
        assert uniforms == []

    def test_buffered_uniforms_equal_scalar_calls(self, monkeypatch):
        drawn = []

        def recording_draw(cands, u, pw, pw_chunks):
            drawn.append(u)
            return _draw(cands, u, pw, pw_chunks)

        monkeypatch.setattr(heuristic, "_draw", recording_draw)
        inst = scale_instance()
        beam_search_feasible(inst, BeamParams(cycle_time=100, gamma=10, beam_factor=1, seed=8))
        assert len(drawn) >= 600 > 2 * _UNIFORM_BLOCK
        scalar = np.random.default_rng(8)
        assert drawn == [scalar.random() for _ in drawn]


class TestStrengthen:
    """Continuity rules on station-built states, run by the search engine."""

    def test_between_task_is_forced(self, fig1):
        # tasks 1 and 4 share worker 1, so task 3 must join it
        state = SearchState(fig1)
        set_assignment(state, 0, 0)
        set_assignment(state, 3, 0)
        assert not apply_reduction_rules(state, 3, 0, gub=math.inf)
        assert node_assignment(state)[2] == 0

    def test_forced_onto_infeasible_is_dead(self):
        inst = Instance([[1, 1], [INFEASIBLE, 1], [1, 1]], {(0, 1), (1, 2)})
        state = SearchState(inst)
        set_assignment(state, 0, 0)
        set_assignment(state, 2, 0)
        assert apply_reduction_rules(state, 2, 0, gub=math.inf)

    def test_infeasible_intermediate_excludes_beyond(self):
        # worker 0 runs task 0 but cannot run task 1, so task 2 is cut for it
        inst = Instance([[1, 1], [INFEASIBLE, 1], [1, 1]], {(0, 1), (1, 2)})
        state = SearchState(inst)
        set_assignment(state, 0, 0)
        assert not apply_reduction_rules(state, 0, 0, gub=math.inf)
        assert math.isinf(node_matrix(state)[2][0])

    def test_score_unchanged_on_forward_built_states(self):
        # on states built station by station in precedence order, the
        # continuity rules never force a task, and they mark only columns of
        # already-consumed workers; so either the node is dead and the beam's
        # score already prunes it, or the row minima over the remaining
        # workers are those of the instance matrix the beam scores with
        for seed in range(30):
            inst = random_instance(seed)
            rng = np.random.default_rng(seed)
            order = [int(w) for w in rng.permutation(inst.n_workers)]
            state = SearchState(inst)
            assigned_mask = 0
            workers_mask = (1 << inst.n_workers) - 1
            dead = False
            for w in order[: int(rng.integers(1, inst.n_workers + 1))]:
                workers_mask ^= 1 << w
                for t in np.argsort(rng.random(inst.n_tasks)):
                    t = int(t)
                    if (assigned_mask >> t) & 1 or inst.times[t][w] == INFEASIBLE:
                        continue
                    if all((assigned_mask >> p) & 1 for p in iter_bits(inst.pred_star[t])):
                        assigned_mask |= 1 << t
                        if not dead:
                            set_assignment(state, t, w)
                            dead = apply_reduction_rules(state, t, w, gub=math.inf)
                            forced = node_assignment(state).keys() - set(iter_bits(assigned_mask))
                            assert dead or not forced, f"seed {seed}"
            score = _rlb_sum(inst, assigned_mask, workers_mask)
            if dead:
                assert score is None, f"seed {seed}"
                continue
            unassigned = [t for t in range(inst.n_tasks) if not (assigned_mask >> t) & 1]
            workers = list(iter_bits(workers_mask))
            if unassigned and workers:
                mins = [min(node_matrix(state)[t][w] for w in workers) for t in unassigned]
                expected = None if any(math.isinf(x) for x in mins) else int(sum(mins))
                assert score == expected, f"seed {seed}"


def reference_beam_search(inst, params):
    """The beam search with every level built by fills, the last one
    included, and no early exit; returns the result and the number of
    fills."""
    rng = np.random.default_rng(params.seed)
    uniforms = []
    capacity = params.cycle_time
    tables = inst.beam_tables
    full = (1 << inst.n_tasks) - 1
    beam = [heuristic.PartialAssignment(inst)]
    counter = 0
    fills = 0
    for _level in range(inst.n_workers):
        heap = []
        for node in beam:
            for _rep in range(params.beam_factor):
                for w in iter_bits(node.workers_mask):
                    assigned, avail, load, placed = _fill_station(inst, node, w, capacity, rng, uniforms, tables)
                    fills += 1
                    workers = node.workers_mask ^ (1 << w)
                    if assigned == full:
                        idle = [(v, 0, 0) for v in iter_bits(workers)]
                        return Solution.from_stations(inst.n_tasks, [*node.stations, (w, placed, load), *idle]), fills
                    score = _rlb_sum(inst, assigned, workers)
                    if score is None:
                        continue
                    counter += 1
                    if len(heap) == params.gamma and -score <= heap[0][0]:
                        continue
                    child = heuristic.PartialAssignment(
                        inst, node.stations + ((w, placed, load),), assigned, avail, workers
                    )
                    if len(heap) < params.gamma:
                        heapq.heappush(heap, (-score, -counter, child))
                    else:
                        heapq.heapreplace(heap, (-score, -counter, child))
        if not heap:
            return FAILED, fills
        beam = [item[2] for item in sorted(heap, key=lambda item: -item[1])]
    return FAILED, fills


class TestBeamExits:
    def test_same_results_as_full_levels(self, monkeypatch):
        # random instances on 1 to 6 workers, up to 25 tasks, at capacities
        # from loose to infeasible; the exits change no result, FAILED
        # included, and save fills
        fills = count_calls(monkeypatch, heuristic, "_fill_station")
        ref_fills = 0
        outcomes = set()
        for seed in range(36):
            m = 1 + seed % 6
            n = 4 + (seed * 7) % 22
            inst = random_instance(7000 + seed, n, m, infeasibility=0.0 if m == 1 else None)
            start = initial_upper_bound(inst)
            if start is FAILED:
                continue  # no feasible line at any cycle time
            start = start.cycle_time
            root = all_bounds(inst).best
            for c in {start, math.floor(0.9 * start), root, root - 1, lc1(inst)} - {0}:
                for gamma in (1, 2):
                    for beam_factor in (1, 2):
                        params = BeamParams(cycle_time=c, gamma=gamma, beam_factor=beam_factor, seed=seed)
                        expected, used = reference_beam_search(inst, params)
                        ref_fills += used
                        assert beam_search_feasible(inst, params) == expected, (seed, c, gamma, beam_factor)
                        outcomes.add(expected is FAILED)
        assert outcomes == {True, False}
        assert len(fills) < ref_fills

    def test_root_closes_without_a_fill(self, monkeypatch):
        # worker 1 can take every task within the capacity, worker 0 cannot
        fills = count_calls(monkeypatch, heuristic, "_fill_station")
        inst = Instance([[9, 2], [9, 3], [INFEASIBLE, 4]], {(0, 1)})
        for beam_factor in (1, 3):
            params = BeamParams(cycle_time=10, gamma=2, beam_factor=beam_factor, seed=1)
            expected, _ = reference_beam_search(inst, params)
            assert expected == Solution((1, 0), (1, 1, 1), 9)
            assert beam_search_feasible(inst, params) == expected
        assert fills == []

    def test_closing_level_runs_no_fill(self, monkeypatch):
        # no worker takes all six tasks (60 > 30), but after any root fill
        # (three tasks) the other three fit either remaining worker: only
        # the root level's fills run
        fills = count_calls(monkeypatch, heuristic, "_fill_station")
        inst = Instance([[10, 10, 10] for _ in range(6)], set())
        for gamma in (1, 4):
            for beam_factor in (1, 2):
                params = BeamParams(cycle_time=30, gamma=gamma, beam_factor=beam_factor, seed=gamma + beam_factor)
                expected, ref_fills = reference_beam_search(inst, params)
                fills.clear()
                assert beam_search_feasible(inst, params) == expected
                assert expected is not FAILED and expected.cycle_time == 30
                assert len(fills) == 3 * beam_factor < ref_fills


class TestBeamSearch:
    def test_fig1_feasible_at_6(self, fig1):
        for seed in range(5):
            sol = beam_search_feasible(fig1, BeamParams(cycle_time=6, seed=seed))
            assert sol is not FAILED
            assert sol.cycle_time <= 6
            assert validate_solution(fig1, sol) == []

    def test_fig1_always_fails_at_5(self, fig1):
        for seed in range(10):
            assert beam_search_feasible(fig1, BeamParams(cycle_time=5, seed=seed)) is FAILED

    def test_single(self, single):
        sol = beam_search_feasible(single, BeamParams(cycle_time=7, seed=0))
        assert sol.cycle_time == 7

    def test_never_exceeds_capacity(self):
        for seed in range(20):
            inst = random_instance(seed)
            opt = brute_force_optimal(inst)
            if opt == INFEASIBLE:
                continue
            for c in (opt, opt + 2):
                sol = beam_search_feasible(inst, BeamParams(cycle_time=c, seed=seed))
                if sol is not FAILED:
                    assert sol.cycle_time <= c
                    assert validate_solution(inst, sol) == []

    def test_deterministic(self, fig1):
        a = beam_search_feasible(fig1, BeamParams(cycle_time=6, seed=9))
        b = beam_search_feasible(fig1, BeamParams(cycle_time=6, seed=9))
        assert a == b

    def test_params_validated(self):
        with pytest.raises(ValueError):
            BeamParams(cycle_time=0)

    def test_deadline_checked_per_level(self):
        # feasible at 100, but a full call there takes about a second
        inst = scale_instance()
        params = BeamParams(cycle_time=100, seed=3)
        assert beam_search_feasible(inst, params, deadline=time.monotonic()) is FAILED
        t0 = time.monotonic()
        assert beam_search_feasible(inst, params, deadline=t0 + 0.2) is FAILED
        assert time.monotonic() - t0 < 0.7

    def test_results_pinned(self):
        # sha256 of beam and interval-search results on 100 seeded 20x5
        # instances, at the initial bound, 10 % below it and at the root
        # bound (where every probe fails); any change to the order in which
        # random numbers are drawn, or to how partials are ranked, shows here
        def key(sol):
            return None if sol is FAILED else (sol.worker_order, sol.assignment, sol.cycle_time)

        digest = hashlib.sha256()
        for seed in range(100):
            inst = random_instance(seed, n_tasks=20, n_workers=5)
            start = initial_upper_bound(inst)
            root = all_bounds(inst).best
            digest.update(repr(key(start)).encode())
            for c in (start.cycle_time, math.floor(0.9 * start.cycle_time), root):
                sol = beam_search_feasible(inst, BeamParams(cycle_time=c, gamma=20, beam_factor=2, seed=seed))
                digest.update(repr(key(sol)).encode())
            params = IpbsParams(gamma=10, beam_factor=1, repetitions=3, t_min=0, seed=seed)
            digest.update(repr(key(ipbs(inst, params, lower_bound=root))).encode())
        assert digest.hexdigest() == "9ac22f996d2270dcc20cc76f581704dd2f6b87c41da13fd3b650d6104e943a8a"


class TestInitialUpperBound:
    def test_fig1_bracket(self, fig1):
        sol = initial_upper_bound(fig1, seed=0)
        assert 6 <= sol.cycle_time <= 29
        assert validate_solution(fig1, sol) == []

    def test_single(self, single):
        assert initial_upper_bound(single, seed=0).cycle_time == 7

    def test_deterministic(self, fig1):
        assert initial_upper_bound(fig1, seed=4) == initial_upper_bound(fig1, seed=4)


class TestIpbs:
    def test_fig1_reaches_optimum(self, fig1):
        sol = ipbs(fig1, IpbsParams(seed=42))
        assert sol.cycle_time == 6
        assert validate_solution(fig1, sol) == []

    def test_single_immediate(self, single):
        assert ipbs(single, IpbsParams(seed=1)).cycle_time == 7

    def test_deterministic_with_seed(self, fig1):
        log_a, log_b = [], []
        a = ipbs(fig1, IpbsParams(seed=7), log=log_a)
        b = ipbs(fig1, IpbsParams(seed=7), log=log_b)
        assert a == b
        assert [(c, ok) for c, ok, _ms in log_a] == [(c, ok) for c, ok, _ms in log_b]

    def test_sweep_log_monotone(self, fig1):
        log = []
        ipbs(fig1, IpbsParams(seed=3), log=log)
        feasible = [c for c, ok, _ms in log if ok]
        assert feasible == sorted(feasible, reverse=True)

    def test_t_max_holds_at_scale(self):
        # each sweep call stops at the deadline, at most one level late
        inst = scale_instance()
        t0 = time.monotonic()
        sol = ipbs(inst, IpbsParams(seed=42, t_min=0, t_max=0.3))
        assert time.monotonic() - t0 < 0.3 + 0.5
        assert validate_solution(inst, sol) == []

    def test_deadline_cut_is_logged_apart(self, monkeypatch):
        # the first sweep call runs into the deadline and is cut at its
        # first level; a call that ends on its own still logs a bool
        inst = random_instance(4, n_tasks=40, n_workers=6)
        log = []
        ipbs(inst, IpbsParams(gamma=10, beam_factor=1, t_min=0, repetitions=3, seed=1), log=log)
        assert log and all(ok in (True, False) for _c, ok, _ms in log)

        beam = heuristic.beam_search_feasible

        def slow(inst, params, *, deadline=None):
            if deadline is not None:
                time.sleep(max(0.0, deadline - time.monotonic()))
            return beam(inst, params, deadline=deadline)

        monkeypatch.setattr(heuristic, "beam_search_feasible", slow)
        log = []
        sol = ipbs(inst, IpbsParams(t_min=0, t_max=0.5, seed=1), log=log)
        assert len(log) == 1 and log[0][1] is None
        assert validate_solution(inst, sol) == []

    def test_failed_construction_returns_failed(self):
        # a failed first construction is no proof either way: three chained
        # tasks whose able workers force a station cycle, and a feasible
        # instance that a beam of width 5 misses at seed 42
        infeasible = Instance(
            [[INFEASIBLE, 1], [1, INFEASIBLE], [INFEASIBLE, 1]],
            {(0, 1), (1, 2)},
        )
        assert brute_force_optimal(infeasible) == INFEASIBLE
        assert ipbs(infeasible, IpbsParams(seed=0, t_min=0.0, t_max=1.0, repetitions=1)) is FAILED
        feasible = parse_instance(NARROW_BEAM_FAILS_TEXT)
        assert brute_force_optimal(feasible) == 19
        assert ipbs(feasible, IpbsParams(gamma=5, t_min=0.0, seed=42)) is FAILED

    def test_bound_reach_covers_every_native_bound(self):
        for seed in range(40):
            inst = random_instance(seed, n_tasks=6 + seed % 20, n_workers=2 + seed % 5)
            reach = heuristic._bound_reach(inst)
            assert all(e.value <= reach for e in all_bounds(inst).entries), seed

    def test_root_bound_on_demand_changes_nothing(self):
        # without a lower_bound, ipbs puts off the root bound until a
        # comparison could need it; the sweeps, their outcomes and the
        # solution are those of passing the bound in
        reached = 0
        for seed in range(24):
            inst = random_instance(500 + seed, n_tasks=8 + seed % 18, n_workers=2 + seed % 5)
            root = all_bounds(inst).best
            params = IpbsParams(gamma=10, beam_factor=1, t_min=0, t_max=1e9, seed=seed)
            log_lazy, log_given = [], []
            lazy = ipbs(inst, params, log=log_lazy)
            given = ipbs(inst, params, lower_bound=root, log=log_given)
            assert lazy == given, seed
            assert [entry[:2] for entry in log_lazy] == [entry[:2] for entry in log_given], seed
            reached += any(c <= root for c, ok, _ms in log_given if ok)
        assert reached

    def test_root_bound_not_computed_above_reach(self, monkeypatch):
        golden = Path(__file__).parent / "golden" / "heur_40x6_4006.alwabp"
        inst = parse_instance(golden.read_text(encoding="ascii"))
        calls = count_calls(monkeypatch, bounds, "all_bounds")
        log = []
        sol = ipbs(inst, IpbsParams(gamma=10, beam_factor=1, repetitions=3, t_min=0, t_max=1e9, seed=42), log=log)
        assert validate_solution(inst, sol) == []
        assert min(c for c, _ok, _ms in log) > heuristic._bound_reach(inst)
        assert calls == []

    def test_params_validated(self):
        with pytest.raises(ValueError):
            IpbsParams(interval_factor=1.0)
        with pytest.raises(ValueError):
            IpbsParams(t_min=5.0, t_max=1.0)
        # nan never ended the sweep loop
        for t_min, t_max in ((math.nan, 0.3), (0.0, math.nan), (-1.0, 0.3), (-2.0, -1.0)):
            with pytest.raises(ValueError):
                IpbsParams(t_min=t_min, t_max=t_max)
        assert IpbsParams(t_min=0.0, t_max=math.inf).t_max == math.inf

    def test_bnb_config_validated(self):
        # nan ran with no deadline and no warm start; -1 stopped at the root
        for time_limit in (math.nan, -1.0):
            with pytest.raises(ValueError):
                BnbConfig(time_limit=time_limit)
        for time_limit in (None, 0.0, math.inf):
            assert BnbConfig(time_limit=time_limit).time_limit == time_limit


class TestLocalSearch:
    def test_never_worsens_and_stays_valid(self):
        for seed in range(25):
            inst = random_instance(seed)
            opt = brute_force_optimal(inst)
            if opt == INFEASIBLE:
                continue
            start = initial_upper_bound(inst, seed=seed)
            improved = local_search(inst, start)
            assert improved.cycle_time <= start.cycle_time
            assert improved.cycle_time >= opt
            assert validate_solution(inst, improved) == []

    def test_optimal_solution_value_unchanged(self, fig1):
        sol = Solution((2, 0, 1), (2, 0, 2, 0, 1, 1), 6)
        assert validate_solution(fig1, sol) == []
        assert local_search(fig1, sol).cycle_time == 6

    def test_single(self, single):
        sol = Solution((0,), (0,), 7)
        assert local_search(single, sol) == sol

    def test_repairs_loaded_station(self, fig1):
        # everything on worker 1 (cycle 19) must improve
        sol = Solution((0, 1, 2), (0, 0, 0, 0, 0, 0), 19)
        improved = local_search(fig1, sol)
        assert improved.cycle_time < 19
        assert validate_solution(fig1, improved) == []

    # One hand-built instance per move kind; on each, that kind is the only
    # move taken. Rows are tasks, columns workers; inf marks an infeasible cell.
    @pytest.mark.parametrize(
        "times, edges, start, expected",
        [
            pytest.param(
                [[1, INFEASIBLE], [3, 3]], set(), ((1, 0), (0, 0), 4), ((1, 0), (0, 1), 3), id="shift"
            ),
            pytest.param([[3, 8], [8, 2]], set(), ((1, 0), (1, 0), 8), ((1, 0), (0, 1), 3), id="swap"),
            pytest.param(
                [[INFEASIBLE, 5, 3], [8, INFEASIBLE, 5]],
                set(),
                ((0, 1, 2), (2, 0), 8),
                ((0, 1, 2), (1, 2), 5),
                id="double_shift",
            ),
            pytest.param([[3, 8], [8, 5]], {(0, 1)}, ((1, 0), (1, 0), 8), ((0, 1), (0, 1), 5), id="worker_swap"),
        ],
    )
    def test_single_move_kind(self, times, edges, start, expected):
        inst = Instance(times, edges)
        assert validate_solution(inst, Solution(*start)) == []
        assert local_search(inst, Solution(*start)) == Solution(*expected)

    def test_results_pinned(self):
        # sha256 of the results on 100 seeded 20x5 starts; any change to the
        # order in which moves are tried or to how they are ranked shows here
        digest = hashlib.sha256()
        for seed in range(100):
            inst = random_instance(seed, n_tasks=20, n_workers=5)
            sol = local_search(inst, initial_upper_bound(inst))
            digest.update(repr((sol.worker_order, sol.assignment, sol.cycle_time)).encode())
        assert digest.hexdigest() == "c3876b20144460f2faf13f4b2c8483b7e2ce157afdb024e0560be8f261ce2091"
