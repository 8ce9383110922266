import hashlib
import itertools
import math

import numpy as np
import pytest

from alwabp import bounds
from alwabp import (
    INFEASIBLE,
    Instance,
    all_bounds,
    brute_force_optimal,
    lc1,
    lc2,
    lc3,
    station_windows,
)
from alwabp.bounds import ALL_BOUNDS, DEFAULT_L1_ITERS, DEFAULT_L2_ITERS, NATIVE_BOUNDS
from alwabp.instance import iter_bits
from conftest import count_calls, rcmax_optimal, random_instance, scale_instance


def permuted_workers(inst, perm):
    times = [[row[perm[w]] for w in range(inst.n_workers)] for row in inst.times]
    return Instance(times, inst.edges)


def bound_values(inst, names, l1_iters=DEFAULT_L1_ITERS, l2_iters=DEFAULT_L2_ITERS):
    report = all_bounds(inst, names, l1_iters, l2_iters)
    return [report.value(name) for name in names]


class TestLC1:
    def test_fig1(self, fig1):
        assert lc1(fig1) == 5

    def test_single(self, single):
        assert lc1(single) == 7

    def test_single_worker_variant(self, fig1):
        # all tasks must go to worker 1, so the bound is that row's sum
        row = [[fig1.times[t][0]] for t in range(6)]
        assert lc1(Instance(row, fig1.edges)) == 19


class TestLC2:
    def test_fig1(self, fig1):
        assert lc2(fig1) == 5

    def test_single_empty_range(self, single):
        assert lc2(single) == 0

    def test_uniform(self):
        inst = Instance([[2, 2]] * 4, set())
        assert lc2(inst) == 4


class TestStationWindows:
    def test_fig1_c6_task6(self, fig1):
        win = station_windows(fig1, 6)
        assert win.earliest[5] == 3
        assert win.latest[5] == 3

    def test_fig1_c4_task6_empty(self, fig1):
        win = station_windows(fig1, 4)
        assert win.earliest[5] == 4
        assert win.latest[5] == 3

    def test_single(self, single):
        win = station_windows(single, 7)
        assert win.earliest == (1,)
        assert win.latest == (1,)

    def test_monotone_in_cycle_time(self, fig1):
        for c in range(1, 20):
            a, b = station_windows(fig1, c), station_windows(fig1, c + 1)
            for t in range(6):
                assert b.earliest[t] <= a.earliest[t]
                assert b.latest[t] >= a.latest[t]


def reference_windows(inst, p, c):
    """Station windows at cycle time c from star sums taken over the
    pred_star and succ_star masks, task by task."""
    m = inst.n_workers
    pred = [sum(p[j] for j in iter_bits(inst.pred_star[t])) for t in range(inst.n_tasks)]
    succ = [sum(p[j] for j in iter_bits(inst.succ_star[t])) for t in range(inst.n_tasks)]
    earliest = [math.ceil((pred[t] + p[t]) / c) for t in range(inst.n_tasks)]
    latest = [m + 1 - math.ceil((succ[t] + p[t]) / c) for t in range(inst.n_tasks)]
    return earliest, latest


def reference_lc3(inst, p):
    """LC3 by binary search over [max p, sum p] on reference_windows."""
    lo = max(1, max(p))
    hi = max(lo, sum(p))
    while lo < hi:
        mid = (lo + hi) // 2
        earliest, latest = reference_windows(inst, p, mid)
        if all(e <= l for e, l in zip(earliest, latest)):
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestLC3Window:
    @staticmethod
    def cases():
        return [random_instance(seed) for seed in range(40)] + [
            random_instance(9300 + k, 12 + 4 * k, 3 + k % 4) for k in range(8)
        ] + [scale_instance()]

    def test_station_windows_match_star_sums(self):
        for inst in self.cases():
            for c in range(1, sum(inst.min_times) + 2, 3):
                win = station_windows(inst, c)
                assert (list(win.earliest), list(win.latest)) == reference_windows(inst, inst.min_times, c)

    def test_window_search_clamps_the_full_value(self):
        rng = np.random.default_rng(17)
        for inst in self.cases():
            assert lc3(inst) == reference_lc3(inst, inst.min_times)
            for _ in range(10):
                p = [int(x) for x in rng.integers(1, 30, inst.n_tasks)]
                full = reference_lc3(inst, p)
                for _ in range(5):
                    lo = int(rng.integers(max(p), sum(p) + 3))
                    hi = lo + int(rng.integers(0, 2 * (full - lo) + 4 if full > lo else 4))
                    assert bounds._lc3(inst, p, lo, hi) == min(max(full, lo), hi)
                    assert bounds._lc3(inst, np.array(p), lo, hi) == min(max(full, lo), hi)


class TestLC3:
    def test_fig1(self, fig1):
        assert lc3(fig1) == 5
        win4, win5 = station_windows(fig1, 4), station_windows(fig1, 5)
        assert any(e > l for e, l in zip(win4.earliest, win4.latest))
        assert all(e <= l for e, l in zip(win5.earliest, win5.latest))

    def test_single(self, single):
        # the lone task needs ceil(7 / C) <= 1 station, so C must reach 7
        assert lc3(single) == 7

    def test_unit_chain(self):
        inst = Instance([[1, 1], [1, 1], [1, 1]], {(0, 1), (1, 2)})
        assert lc3(inst) == 2


class TestL1:
    def test_fig1_bracket(self, fig1):
        [v] = bound_values(fig1, ("L1",), l1_iters=50)
        assert 4 <= v <= rcmax_optimal(fig1) == 6

    def test_single(self, single):
        assert bound_values(single, ("L1",), l1_iters=1) == [7]

    def test_forced_sum(self):
        inst = Instance([[3], [4]], set())
        assert bound_values(inst, ("L1",), l1_iters=5) == [7]

    def test_monotone_in_iterations(self):
        for seed in range(10):
            inst = random_instance(seed)
            values = [bound_values(inst, ("L1",), l1_iters=k)[0] for k in range(1, 12)]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestL1Additive:
    def test_fig1_bracket(self, fig1):
        l1, v = bound_values(fig1, ("L1", "L1a"))
        assert l1 <= v <= rcmax_optimal(fig1)

    def test_single(self, single):
        assert bound_values(single, ("L1a",)) == [7]

    def test_never_decreases(self):
        for seed in range(100):
            inst = random_instance(seed)
            l1, v = bound_values(inst, ("L1", "L1a"))
            assert v >= l1
            assert v <= rcmax_optimal(inst)


class TestDisjunction:
    def test_fig1_bracket(self, fig1):
        opt = rcmax_optimal(fig1)
        base, v = bound_values(fig1, ("L1a", "L1a_bar"))
        assert base <= v <= opt

    def test_single(self, single):
        assert bound_values(single, ("L1a_bar", "L2_bar")) == [7, 7]

    def test_never_decreases(self):
        for seed in range(100):
            inst = random_instance(seed)
            base, v = bound_values(inst, ("L2", "L2_bar"))
            assert base <= v <= rcmax_optimal(inst)


class TestL2:
    def test_fig1_bracket(self, fig1):
        [v] = bound_values(fig1, ("L2",), l2_iters=20)
        assert 1 <= v <= rcmax_optimal(fig1)

    def test_single(self, single):
        assert bound_values(single, ("L2",), l2_iters=3) == [7]

    def test_deterministic(self, fig1):
        assert bound_values(fig1, ("L2",), l2_iters=20) == bound_values(fig1, ("L2",), l2_iters=20)


class TestKnapsack:
    def test_matches_brute_force(self):
        # several rows per call: absent cells, items heavier than the
        # capacity, zero profits and ties; every row must equal its own
        # subset enumeration
        rng = np.random.Generator(np.random.PCG64(5))
        for case in range(80):
            steps, rows = int(rng.integers(0, 7)), int(rng.integers(1, 4))
            capacity = int(rng.integers(0, 12))
            weights = rng.integers(1, 15, (steps, rows)).astype(float)
            weights[rng.random((steps, rows)) < 0.25] = np.inf
            # small integer profits make ties common and keep float sums
            # exact; every third case shares one profit per step across rows
            shape = (steps, 1) if case % 3 == 0 else (steps, rows)
            profits = rng.integers(0, 4, shape).astype(float)
            took = np.zeros((steps, rows, capacity + 1), dtype=bool)
            best = bounds._knapsack(bounds._knapsack_plan(weights, capacity), profits, took)
            assert best.shape == (rows, capacity + 1)
            gains = np.broadcast_to(profits, (steps, rows))
            for r in range(rows):
                items = [k for k in range(steps) if np.isfinite(weights[k, r])]
                # subsets in increasing bitmask order, so among equal profits
                # the first one found keeps lower-index items over higher ones
                subsets = [s for n in range(len(items) + 1) for s in itertools.combinations(items, n)]
                subsets.sort(key=lambda s: sum(1 << k for k in s))
                for c in range(capacity + 1):
                    fitting = [s for s in subsets if sum(weights[k, r] for k in s) <= c]
                    top = max(sum(gains[k, r] for k in s) for s in fitting)
                    assert best[r, c] == top
                    expected = next(s for s in fitting if sum(gains[k, r] for k in s) == top)
                    chosen, rem = [], c
                    for k in range(steps - 1, -1, -1):
                        if took[k, r, rem]:
                            chosen.append(k)
                            rem -= int(weights[k, r])
                    assert tuple(sorted(chosen)) == expected

    def test_rows_need_no_traceback_table(self):
        rng = np.random.Generator(np.random.PCG64(6))
        weights = rng.integers(1, 9, (6, 3)).astype(float)
        profits = rng.random((6, 3))
        plan = bounds._knapsack_plan(weights, 20)
        took = np.zeros((6, 3, 21), dtype=bool)
        assert np.array_equal(bounds._knapsack(plan, profits), bounds._knapsack(plan, profits, took))


class TestL2Cap:
    @staticmethod
    def cases():
        return [random_instance(seed) for seed in range(40)] + [
            random_instance(9200 + k, 20 + 10 * k, 5 + k) for k in range(4)
        ]

    def test_cap_holds_without_fallback(self, monkeypatch):
        # the capped tables reach the target in every iteration, so the
        # full-width tables are never built
        builds = count_calls(monkeypatch, bounds, "_l2_tables")
        for inst in self.cases():
            builds.clear()
            all_bounds(inst, ("L2",))
            assert len(builds) == 1

    def test_full_width_fallback_same_values(self, monkeypatch):
        expected = [bound_values(inst, ("L2",)) for inst in self.cases()]
        monkeypatch.setattr(bounds, "_precedence_free_makespan", lambda times: 1)
        builds = count_calls(monkeypatch, bounds, "_l2_tables")
        assert [bound_values(inst, ("L2",)) for inst in self.cases()] == expected
        # the full-width tables were built on every instance above
        assert len(builds) == 2 * len(expected)


def reference_l2_value(times, max_iters=DEFAULT_L2_ITERS):
    """L2 with every iteration run on knapsacks over each machine's full
    load: no capped tables, no early stop."""
    mu = times.min(axis=1)
    step0 = max(1.0, float(mu.mean()) / 2.0)
    loads = np.where(np.isfinite(times), times, 0.0).sum(axis=0)
    tables = bounds._l2_tables(times, max(int(loads.max()), 1))
    best = 1
    for it in range(1, max_iters + 1):
        c_star, packs = bounds._l2_cover(tables, np.clip(mu, 0.0, None), float(mu.sum()))
        coverage = np.array([len(machines) for machines in packs], dtype=float)
        best = max(best, c_star)
        mu = mu + (step0 / it) * (1.0 - coverage)
    return best


def reference_l1_chain(times, max_iters=DEFAULT_L1_ITERS):
    """L1, L1a and L1a_bar from an ascent that runs every iteration, with
    L1a always from its knapsack."""
    best_val, lam = bounds._l1_ascent(times, max_iters)
    l1 = max(math.ceil(best_val - 1e-9), int(times.min(axis=1).max()))
    l1a = bounds._l1_additive(times, l1, lam)
    return [l1, l1a, bounds._disjunction_value(times, l1a)]


class TestL2Stop:
    @staticmethod
    def cases():
        # the last case has L2 5 below its precedence-free optimum 6 (a MILP
        # gives it), so no schedule ends its L2 iterations early
        return [random_instance(seed) for seed in range(40)] + [
            random_instance(9400 + k, 12 + 6 * k, 3 + k % 5) for k in range(8)
        ] + [random_instance(9433, 18, 6)]

    def test_schedule_makespan(self):
        # a real precedence-free schedule: no better than the optimum, and
        # no worse than every task on its cheapest machine
        for inst in self.cases()[:40]:
            times = inst.times_array
            choice = times.argmin(axis=1)
            cheapest = np.bincount(choice, weights=times[np.arange(inst.n_tasks), choice]).max()
            assert rcmax_optimal(inst) <= bounds._precedence_free_makespan(times) <= cheapest

    def test_same_value_as_every_iteration(self, monkeypatch):
        covers = count_calls(monkeypatch, bounds, "_l2_cover")
        counts = []
        for inst in self.cases():
            expected = reference_l2_value(inst.times_array)
            covers.clear()
            assert bounds._l2_value(inst.times_array, DEFAULT_L2_ITERS) == expected
            counts.append(len(covers))
        assert max(counts) == DEFAULT_L2_ITERS
        assert min(counts) < DEFAULT_L2_ITERS  # the stop skipped iterations

    def test_ascent_stop_same_values(self, monkeypatch):
        # the ascent lowers U once per iteration, so counting those calls
        # counts its iterations
        iterations = count_calls(monkeypatch, bounds._UpperBound, "lower")
        counts = []
        for inst in self.cases():
            expected = reference_l1_chain(inst.times_array)
            iterations.clear()
            assert list(bounds._l1_chain(inst.times_array, DEFAULT_L1_ITERS)) == expected
            counts.append(len(iterations))
        assert max(counts) == DEFAULT_L1_ITERS
        assert min(counts) < DEFAULT_L1_ITERS  # the stop skipped iterations

    def test_repaired_schedules(self, monkeypatch):
        # every schedule made for U (S's and each L2 iteration's repair)
        # puts each task on one machine it can run on and reports its
        # largest load; U is the best of them
        schedules = []
        descend = bounds._descend

        def recorded(rows, where, loads):
            makespan = descend(rows, where, loads)
            schedules.append((list(where), makespan))
            return makespan

        monkeypatch.setattr(bounds, "_descend", recorded)
        lowered = 0
        for inst in self.cases()[:40]:
            times = inst.times_array
            s = bounds._precedence_free_makespan(times)
            schedules.clear()
            upper = bounds._UpperBound(times)
            bounds._l2_value(times, DEFAULT_L2_ITERS, upper)
            for where, makespan in schedules:
                assert len(where) == inst.n_tasks
                loads = [0] * inst.n_workers
                for t, w in enumerate(where):
                    assert 0 <= w < inst.n_workers and inst.times[t][w] != INFEASIBLE
                    loads[w] += inst.times[t][w]
                assert makespan == max(loads)
            assert upper.value == min(makespan for _, makespan in schedules)
            assert rcmax_optimal(inst) <= upper.value <= s
            lowered += upper.value < s
        assert lowered  # a repair beat S somewhere


class TestAllBounds:
    def test_fig1(self, fig1):
        report = all_bounds(fig1)
        assert report.value("LC1") == 5
        assert report.value("LC2") == 5
        assert report.value("LC3") == 5
        assert 5 <= report.best <= 6

    def test_single(self, single):
        assert all_bounds(single).best == 7

    def test_best_is_max(self, fig1):
        report = all_bounds(fig1, ALL_BOUNDS)
        assert report.best == max(e.value for e in report.entries)

    def test_worker_permutation_invariance(self):
        for seed in range(20):
            inst = random_instance(seed, n_workers=3)
            perm = [2, 0, 1]
            assert all_bounds(inst).best == all_bounds(permuted_workers(inst, perm)).best

    def test_elapsed_recorded(self, fig1):
        report = all_bounds(fig1)
        assert all(e.elapsed_s >= 0 for e in report.entries)

    def test_entries_match_standalone_functions(self):
        # each entry equals the bound computed on its own, in either order
        for seed in range(100):
            inst = random_instance(seed)
            expected = {name: all_bounds(inst, (name,)).value(name) for name in ALL_BOUNDS}
            for include in (ALL_BOUNDS, ALL_BOUNDS[::-1]):
                report = all_bounds(inst, include)
                assert {e.name: e.value for e in report.entries} == expected, f"seed {seed}"

    def test_values_pinned(self):
        # sha256 of all eight values on 100 seeded instances; any change to
        # a bound's value shows here
        digest = hashlib.sha256()
        for seed in range(100):
            report = all_bounds(random_instance(seed), ALL_BOUNDS)
            digest.update(repr([(e.name, e.value) for e in report.entries]).encode())
        assert digest.hexdigest() == "62d7281312cd24289d54202853f018de4b0c3d61b5113a0c7a4c1a5b6c4f89fe"

    def test_values_pinned_at_scale(self):
        # the same at 20 to 70 tasks on 5 to 10 workers, where the L2 rows
        # are capped far below each machine's total load
        digest = hashlib.sha256()
        cases = [random_instance(9100 + k, 20 + (k * 50) // 23, 5 + k % 6) for k in range(24)]
        for inst in cases + [scale_instance()]:
            report = all_bounds(inst, ALL_BOUNDS)
            digest.update(repr([(e.name, e.value) for e in report.entries]).encode())
        assert digest.hexdigest() == "c8c8ce0b9968d7f28e0185d0d17a2fe950296055ce742acc3a552669e3857d8e"


class TestSharedWork:
    @pytest.mark.parametrize("include", [ALL_BOUNDS, NATIVE_BOUNDS])
    def test_one_ascent_and_one_l2_per_call(self, monkeypatch, fig1, include):
        ascents = count_calls(monkeypatch, bounds, "_l1_ascent")
        l2_runs = count_calls(monkeypatch, bounds, "_l2_value")
        for inst in [fig1] + [random_instance(seed) for seed in range(5)]:
            ascents.clear()
            l2_runs.clear()
            all_bounds(inst, include)
            assert (len(ascents), len(l2_runs)) == (1, 1)

    def test_unrequested_work_skipped(self, monkeypatch, fig1):
        ascents = count_calls(monkeypatch, bounds, "_l1_ascent")
        knapsacks = count_calls(monkeypatch, bounds, "_l1_additive")
        l2_runs = count_calls(monkeypatch, bounds, "_l2_value")
        all_bounds(fig1, ("L1",))
        assert (len(ascents), len(knapsacks), len(l2_runs)) == (1, 0, 0)
        all_bounds(fig1, ("LC1", "LC2", "LC3"))
        assert (len(ascents), len(knapsacks), len(l2_runs)) == (1, 0, 0)

    def test_unknown_bound_rejected(self, fig1):
        with pytest.raises(ValueError):
            all_bounds(fig1, ("L9",))

    @pytest.mark.parametrize("iters", [(0, 20), (50, 0)])
    def test_no_iterations_rejected(self, fig1, iters):
        with pytest.raises(ValueError, match="must be >= 1"):
            all_bounds(fig1, ALL_BOUNDS, *iters)


class TestSoundness:
    def test_all_bounds_below_optimum(self):
        for seed in range(60):
            inst = random_instance(seed)
            opt = brute_force_optimal(inst)
            if opt == INFEASIBLE:
                continue
            report = all_bounds(inst, ALL_BOUNDS)
            for entry in report.entries:
                assert entry.value <= opt, f"{entry.name} exceeds optimum on seed {seed}"

    def test_lc_bounds_use_only_minima(self):
        # raising non-minimal cells must not change the homogeneous bounds
        for seed in range(20):
            inst = random_instance(seed, infeasibility=0.0)
            times = [list(row) for row in inst.times]
            for t, row in enumerate(times):
                m = min(row)
                keep = row.index(m)
                for w in range(len(row)):
                    if w != keep:
                        times[t][w] = row[w] + 7
            bumped = Instance(times, inst.edges)
            assert (lc1(inst), lc2(inst), lc3(inst)) == (lc1(bumped), lc2(bumped), lc3(bumped))
