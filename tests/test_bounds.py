import hashlib
import itertools
import math
from pathlib import Path

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
    parse_instance,
)
from alwabp.bounds import ALL_BOUNDS, DEFAULT_L1_ITERS, DEFAULT_L2_ITERS, NATIVE_BOUNDS
from conftest import count_calls, rcmax_optimal, random_instance, scale_instance, star_sums


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
    """The station window of a task at cycle time c, from the instance's
    heads and tails: [ceil(head / c), m + 1 - ceil(tail / c)]."""

    @staticmethod
    def window(inst, task, c):
        heads, tails = inst.heads_tails
        return math.ceil(heads[task] / c), inst.n_workers + 1 - math.ceil(tails[task] / c)

    def test_fig1_c6_task6(self, fig1):
        assert self.window(fig1, 5, 6) == (3, 3)
        assert bounds._lc3_search(*fig1.heads_tails, fig1.n_workers, 6, 6) == 6

    def test_fig1_c4_task6_empty(self, fig1):
        assert self.window(fig1, 5, 4) == (4, 3)
        # the empty window at 4 pushes the search past it
        assert bounds._lc3_search(*fig1.heads_tails, fig1.n_workers, 4, 6) == 5


def reference_windows(inst, p, c):
    """Station windows at cycle time c from star sums taken over the
    pred_star and succ_star masks, task by task."""
    m = inst.n_workers
    heads, tails = star_sums(inst, p)
    return [math.ceil(h / c) for h in heads], [m + 1 - math.ceil(t / c) for t in tails]


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

    def test_window_search_clamps_the_full_value(self):
        rng = np.random.default_rng(17)
        for inst in self.cases():
            assert lc3(inst) == reference_lc3(inst, inst.min_times)
            for _ in range(10):
                p = [int(x) for x in rng.integers(1, 30, inst.n_tasks)]
                full = reference_lc3(inst, p)
                heads, tails = star_sums(inst, p)
                for _ in range(5):
                    lo = int(rng.integers(max(p), sum(p) + 3))
                    hi = lo + int(rng.integers(0, 2 * (full - lo) + 4 if full > lo else 4))
                    assert bounds._lc3_search(heads, tails, inst.n_workers, lo, hi) == min(max(full, lo), hi)


class TestLC3:
    def test_fig1(self, fig1):
        assert lc3(fig1) == 5
        # at C = 4 the last task's window [4, 3] is empty; at 5 every window
        # holds a station, and at 6 the last task's is [3, 3]
        win4, win5, win6 = (reference_windows(fig1, fig1.min_times, c) for c in (4, 5, 6))
        assert any(e > l for e, l in zip(*win4))
        assert all(e <= l for e, l in zip(*win5))
        assert (win4[0][5], win4[1][5]) == (4, 3)
        assert (win6[0][5], win6[1][5]) == (3, 3)

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


def reference_knapsack(weights, capacity, profits, took=None):
    """The gather kernel that `_knapsack` replaced: capacity j of a row
    lives in table column j + pad, the pad columns hold -inf, and a step
    reads its sources through a sliding window at each cell's start column.
    Returns the (rows, capacity + 1) best profits; `took[k, r, c]`, if
    given, is set to whether step k's item strictly improved row r at c."""
    present = weights <= capacity
    w = np.where(present, weights, 0).astype(np.int32)
    pad, width = int(w.max(initial=0)), capacity + 1
    steps, rows = weights.shape
    gains = np.where(present, np.broadcast_to(profits, (steps, rows)), -np.inf)[:, :, None]
    table = np.zeros((rows, pad + width))
    table[:, :pad] = -np.inf
    best = table[:, pad:]
    sources = np.lib.stride_tricks.sliding_window_view(table, width, axis=1)
    row_ids = np.arange(rows)
    for k, (starts, gain) in enumerate(zip(pad - w, gains)):
        taken = sources[row_ids, starts]
        taken += gain
        if took is not None:
            np.greater(taken, best, out=took[k])
        np.maximum(best, taken, out=best)
    return best


def reference_l2_cover(times, capacity, mu_plus, target):
    """`_l2_cover` on the gather kernel's tables and traceback."""
    n_tasks, m = times.shape
    width = capacity + 1
    took = np.zeros((n_tasks, m, width), dtype=bool)
    best = reference_knapsack(times, capacity, mu_plus[:, None], took)
    g = np.zeros(width)
    for row in best:
        g += row
    reached = np.flatnonzero(g >= target - 1e-9)
    c_star = int(reached[0]) if reached.size else width
    packs = [[] for _ in mu_plus]
    for w in range(m):
        c = min(c_star, width - 1)
        for t in range(n_tasks - 1, -1, -1):
            if times[t, w] <= capacity and took[t, w, c]:
                packs[t].append(w)
                c -= int(times[t, w])
    return c_star, packs


def kernel_tables(layers):
    """The best profits of `_knapsack`'s layers, shape (rows, width), and
    whether each step's item strictly improved each (row, capacity)."""
    return layers[-1, :, 1:], layers[1:, :, 1:] > layers[:-1, :, 1:]


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
            best, took = kernel_tables(bounds._knapsack(bounds._knapsack_plan(weights, capacity), profits))
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

    @staticmethod
    def random_plans():
        # absent cells, weights above the capacity, zero steps, capacity 0,
        # and profits that tie: small integers, or one profit per step
        # shared by every row, as L2 passes them
        rng = np.random.Generator(np.random.PCG64(6))
        for case in range(120):
            steps, rows = int(rng.integers(0, 9)), int(rng.integers(1, 7))
            capacity = 0 if case % 10 == 0 else int(rng.integers(0, 40))
            weights = rng.integers(1, capacity + 12, (steps, rows)).astype(float)
            weights[rng.random((steps, rows)) < 0.3] = np.inf
            shape = (steps, 1) if case % 3 == 0 else (steps, rows)
            profits = rng.integers(0, 5, shape).astype(float) if case % 2 else rng.random(shape)
            yield weights, capacity, profits

    def test_matches_the_gather_kernel(self):
        # the same best tables and the same strict improvements, bit for bit,
        # whether or not the gather kernel fills its traceback table
        for weights, capacity, profits in self.random_plans():
            steps, rows = weights.shape
            took = np.zeros((steps, rows, capacity + 1), dtype=bool)
            expected = reference_knapsack(weights, capacity, profits, took)
            assert np.array_equal(reference_knapsack(weights, capacity, profits), expected)
            best, strict = kernel_tables(bounds._knapsack(bounds._knapsack_plan(weights, capacity), profits))
            assert np.array_equal(best, expected)
            assert np.array_equal(strict, took)

    def test_plan_reuse(self):
        # a plan's layers are refilled by each call, as L2 reuses its tables
        for weights, capacity, profits in itertools.islice(self.random_plans(), 30):
            plan = bounds._knapsack_plan(weights, capacity)
            bounds._knapsack(plan, profits + 1.5)
            best, _ = kernel_tables(bounds._knapsack(plan, profits))
            assert np.array_equal(best, reference_knapsack(weights, capacity, profits))

    def test_l2_cover_matches_the_gather_kernel(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for case in range(60):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            times = rng.integers(1, 12, (n, m)).astype(float)
            times[rng.random((n, m)) < 0.25] = np.inf
            times[np.isinf(times).all(axis=1), 0] = 3.0
            capacity = 0 if case % 10 == 0 else int(rng.integers(0, 30))
            mu_plus = rng.integers(0, 4, n).astype(float) if case % 2 else rng.random(n) * 5
            tables = bounds._l2_tables(times, capacity)
            for target in (0.0, float(mu_plus.sum()), float(mu_plus.sum()) * m, math.inf):
                assert bounds._l2_cover(tables, mu_plus, target) == reference_l2_cover(times, capacity, mu_plus, target)


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


class TestL1aCap:
    @staticmethod
    def cases():
        golden = Path(__file__).parent / "golden"
        paper = [parse_instance(path.read_text()) for path in sorted(golden.glob("paper_*_91.alwabp"))]
        assert len(paper) == 3
        return TestL2Cap.cases() + paper

    @staticmethod
    def l1a_inputs(times):
        """L1, its multipliers and U as _relaxation_bounds hands them to L1a."""
        upper = bounds._precedence_free_makespan(times)
        _, upper = bounds._l2_value(times, DEFAULT_L2_ITERS, upper)
        return bounds._l1_ascent(times, DEFAULT_L1_ITERS, upper)

    @staticmethod
    def record_widths(monkeypatch):
        widths = []
        plan = bounds._knapsack_plan

        def recorded(weights, capacity):
            widths.append(capacity)
            return plan(weights, capacity)

        monkeypatch.setattr(bounds, "_knapsack_plan", recorded)
        return widths

    def test_capped_at_u_same_values(self, monkeypatch):
        widths = self.record_widths(monkeypatch)
        below_u, narrower = 0, 0
        for inst in self.cases():
            times = inst.times_array
            l1, lam, upper = self.l1a_inputs(times)
            if l1 >= upper:
                continue
            below_u += 1
            widths.clear()
            capped = bounds._l1_additive(times, l1, lam, upper)
            [cap] = widths  # no rebuild at the full range
            assert capped == bounds._l1_additive(times, l1, lam, math.inf)
            assert cap <= upper
            narrower += cap < widths[1]
        assert narrower == below_u > 0

    def test_forced_fallback_same_values(self, monkeypatch):
        # L1a handed U = 1, below L1: no capacity of the knapsacks at 1
        # passes the test, so they are rebuilt over the full range, with the
        # same values
        expected = [bound_values(inst, ALL_BOUNDS) for inst in self.cases()]
        l1_additive = bounds._l1_additive
        widths = self.record_widths(monkeypatch)
        knapsacks = []

        def at_one(times, l1, lam, upper):
            knapsacks.append(l1)
            return l1_additive(times, l1, lam, 1)

        monkeypatch.setattr(bounds, "_l1_additive", at_one)
        assert [bound_values(inst, ALL_BOUNDS) for inst in self.cases()] == expected
        # besides L2's one plan per instance, each L1a call built two: at 1,
        # then over the full range
        assert knapsacks and widths.count(1) == len(knapsacks)
        assert len(widths) == len(expected) + 2 * len(knapsacks)


def reference_l1a(times, l1, lam):
    """L1a by its definition, one capacity at a time: the smallest c from
    max(L1, 1) up to the load of every task on its cheapest machine at which
    the additive test passes, with each machine's knapsack solved at c
    alone by a 1-D DP over its movable tasks in task order; L1 or that load
    plus one, whichever is larger, when no such c passes."""
    n_tasks, m = times.shape
    finite = np.isfinite(times)
    weighted = np.where(finite, np.where(finite, times, 0.0) * lam, np.inf)
    ranked = np.sort(weighted, axis=1)
    phi = weighted.min(axis=1).sum()
    forced = [0] * m
    movable = [[] for _ in range(m)]
    for t in range(n_tasks):
        w = int(weighted[t].argmin())
        gap = ranked[t, 1] - ranked[t, 0] if m > 1 else math.inf
        if math.isinf(gap):
            forced[w] += int(times[t, w])
        else:
            movable[w].append((int(times[t, w]), float(gap)))
    hi = max(1, sum(forced) + sum(p for items in movable for p, _ in items))
    totals = [float(np.array([g for _, g in items]).sum()) for items in movable]

    def kept(items, capacity):
        # the largest gap total of a subset of items that fits capacity
        best = [0.0] * (capacity + 1)
        for p, g in items:
            for c in range(capacity, p - 1, -1):
                best[c] = max(best[c], best[c - p] + g)
        return best[capacity]

    for c in range(max(l1, 1), hi + 1):
        if c < max(forced):
            continue
        penalty = 0.0
        for w in range(m):
            penalty += totals[w] - kept(movable[w], c - forced[w])
        if phi + penalty <= c + 1e-9:
            return c
    return max(l1, hi + 1)


class TestL1aScan:
    def test_first_passing_capacity(self):
        # random instances and multipliers (one machine on every tenth, a
        # simplex vertex, the ascent's), with L1 at 1, at the answer itself,
        # from the ascent and past the load of every task (lo > hi); U at
        # S, at 1 (a rebuild over the full range) and unbounded
        rng = np.random.default_rng(5)
        at_start = 0
        for seed in range(60):
            one = seed % 10 == 0
            inst = random_instance(seed, n_workers=1 if one else None, infeasibility=0.0 if one else None)
            times = inst.times_array
            m = inst.n_workers
            past = int(times.sum(where=np.isfinite(times))) + 1
            ascent_l1, ascent_lam, _ = bounds._l1_ascent(times, DEFAULT_L1_ITERS, math.inf)
            for lam in (rng.dirichlet(np.ones(m)), np.eye(m)[seed % m], ascent_lam):
                for l1 in sorted({1, reference_l1a(times, 1, lam), ascent_l1, past}):
                    expected = reference_l1a(times, l1, lam)
                    for upper in (bounds._precedence_free_makespan(times), 1, math.inf):
                        assert bounds._l1_additive(times, l1, lam, upper) == expected
                    # below the past-every-load L1, the first capacity scanned is the answer
                    at_start += l1 < past and expected != reference_l1a(times, l1 + 1, lam)
        assert at_start > 100


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
    L1a always from its knapsack over the full range."""
    n_tasks, m = times.shape
    finite = np.isfinite(times)
    filled = np.where(finite, times, 0.0)
    rows = np.arange(n_tasks)
    lam = np.full(m, 1.0 / m)
    best_val, best_lam = -math.inf, lam
    for k in range(1, max_iters + 1):
        weighted = np.where(finite, filled * lam, np.inf)
        choice = weighted.argmin(axis=1)
        value = weighted[rows, choice].sum()
        if value > best_val:
            best_val, best_lam = value, lam.copy()
        loads = np.bincount(choice, weights=filled[rows, choice], minlength=m)
        direction = loads - loads.sum() / m
        norm = np.abs(direction).max()
        if norm < 1e-12:
            break
        lam = np.maximum(lam + (0.5 / (m * k)) * direction / norm, 0.0)
        lam /= lam.sum()
    l1 = max(math.ceil(best_val - 1e-9), int(times.min(axis=1).max()))
    l1a = bounds._l1_additive(times, l1, best_lam, math.inf)
    return [l1, l1a, max(l1a, bounds._disjunction_value(times))]


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
            times = inst.times_array
            expected = reference_l2_value(times)
            covers.clear()
            l2, _ = bounds._l2_value(times, DEFAULT_L2_ITERS, bounds._precedence_free_makespan(times))
            assert l2 == expected
            counts.append(len(covers))
        assert max(counts) == DEFAULT_L2_ITERS
        assert min(counts) < DEFAULT_L2_ITERS  # the stop skipped iterations

    def test_ascent_stop_same_values(self, monkeypatch):
        # an ascent iteration, here or in the reference, makes one bincount
        # call, so counting those calls counts its iterations; U starts at
        # S, with no L2 before it
        iterations = count_calls(monkeypatch, np, "bincount")
        counts, full_counts = [], []
        for inst in self.cases():
            times = inst.times_array
            iterations.clear()
            expected = reference_l1_chain(times)
            full_counts.append(len(iterations))
            iterations.clear()
            upper = bounds._precedence_free_makespan(times)
            l1, lam, upper = bounds._l1_ascent(times, DEFAULT_L1_ITERS, upper)
            counts.append(len(iterations))
            l1a = l1 if l1 >= upper else bounds._l1_additive(times, l1, lam, upper)
            assert [l1, l1a, max(l1a, bounds._disjunction_value(times))] == expected
        assert max(counts) == DEFAULT_L1_ITERS
        # the stop at U skipped iterations that the reference ran (the
        # reference itself ends early when the subgradient vanishes)
        assert any(n < full for n, full in zip(counts, full_counts))

    def test_l1a_knapsack_only_below_u(self, monkeypatch):
        # L1a = L1 without its knapsack once L1 has reached U; the pinned
        # digests show that the values stay those of the knapsack
        knapsacks = count_calls(monkeypatch, bounds, "_l1_additive")
        cases = self.cases()
        for inst in cases:
            all_bounds(inst, ALL_BOUNDS)
        assert 0 < len(knapsacks) < len(cases)

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
            schedules.clear()
            s = bounds._precedence_free_makespan(times)
            _, upper = bounds._l2_value(times, DEFAULT_L2_ITERS, s)
            for where, makespan in schedules:
                assert len(where) == inst.n_tasks
                loads = [0] * inst.n_workers
                for t, w in enumerate(where):
                    assert 0 <= w < inst.n_workers and inst.times[t][w] != INFEASIBLE
                    loads[w] += inst.times[t][w]
                assert makespan == max(loads)
            assert upper == min(makespan for _, makespan in schedules)
            assert rcmax_optimal(inst) <= upper <= s
            lowered += upper < s
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
        # an LC-only call runs none of the relaxation; any relaxation name
        # runs all of it once
        schedules = count_calls(monkeypatch, bounds, "_precedence_free_makespan")
        ascents = count_calls(monkeypatch, bounds, "_l1_ascent")
        knapsacks = count_calls(monkeypatch, bounds, "_l1_additive")
        l2_runs = count_calls(monkeypatch, bounds, "_l2_value")
        all_bounds(fig1, ("LC1", "LC2", "LC3"))
        assert (len(schedules), len(ascents), len(knapsacks), len(l2_runs)) == (0, 0, 0, 0)
        for name in ("L1", "L1a", "L1a_bar", "L2", "L2_bar"):
            schedules.clear()
            ascents.clear()
            l2_runs.clear()
            all_bounds(fig1, ("LC1", name, name))
            assert (len(schedules), len(ascents), len(l2_runs)) == (1, 1, 1)

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
