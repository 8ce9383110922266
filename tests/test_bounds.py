import time

import pytest

from alwabp import bounds
from alwabp import (
    INFEASIBLE,
    Instance,
    all_bounds,
    bound_l1,
    bound_l2,
    brute_force_optimal,
    disjunction_improve,
    improve_l1_additive,
    lc1,
    lc2,
    lc3,
    station_windows,
)
from alwabp.bounds import ALL_BOUNDS, NATIVE_BOUNDS
from conftest import count_calls, rcmax_optimal, random_instance


def permuted_workers(inst, perm):
    times = [[row[perm[w]] for w in range(inst.n_workers)] for row in inst.times]
    return Instance(times, inst.edges)


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
        v = bound_l1(fig1, 50)
        assert 4 <= v <= rcmax_optimal(fig1) == 6

    def test_single(self, single):
        assert bound_l1(single, 1) == 7

    def test_forced_sum(self):
        inst = Instance([[3], [4]], set())
        assert bound_l1(inst, 5) == 7

    def test_monotone_in_iterations(self):
        for seed in range(10):
            inst = random_instance(seed)
            values = [bound_l1(inst, k) for k in range(1, 12)]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestL1Additive:
    def test_fig1_bracket(self, fig1):
        l1 = bound_l1(fig1)
        v = improve_l1_additive(fig1, l1)
        assert l1 <= v <= rcmax_optimal(fig1)

    def test_single(self, single):
        assert improve_l1_additive(single, 7) == 7

    def test_never_decreases(self):
        for seed in range(100):
            inst = random_instance(seed)
            l1 = bound_l1(inst)
            v = improve_l1_additive(inst, l1)
            assert v >= l1
            assert v <= rcmax_optimal(inst)


class TestDisjunction:
    def test_fig1_bracket(self, fig1):
        opt = rcmax_optimal(fig1)
        base = improve_l1_additive(fig1, bound_l1(fig1))
        assert base <= disjunction_improve(fig1, base) <= opt

    def test_single(self, single):
        assert disjunction_improve(single, 7) == 7

    def test_never_decreases(self):
        for seed in range(100):
            inst = random_instance(seed)
            base = bound_l2(inst)
            v = disjunction_improve(inst, base)
            assert base <= v <= rcmax_optimal(inst)


class TestL2:
    def test_fig1_bracket(self, fig1):
        assert 1 <= bound_l2(fig1, 20) <= rcmax_optimal(fig1)

    def test_single(self, single):
        assert bound_l2(single, 3) == 7

    def test_deterministic(self, fig1):
        assert bound_l2(fig1, 20) == bound_l2(fig1, 20)


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
        for seed in range(100):
            inst = random_instance(seed)
            l1 = bound_l1(inst)
            l1a = improve_l1_additive(inst, l1)
            l2 = bound_l2(inst)
            expected = {
                "LC1": lc1(inst),
                "LC2": lc2(inst),
                "LC3": lc3(inst),
                "L1": l1,
                "L1a": l1a,
                "L1a_bar": disjunction_improve(inst, l1a),
                "L2": l2,
                "L2_bar": disjunction_improve(inst, l2),
            }
            for include in (ALL_BOUNDS, ALL_BOUNDS[::-1]):
                report = all_bounds(inst, include)
                assert {e.name: e.value for e in report.entries} == expected, f"seed {seed}"


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
