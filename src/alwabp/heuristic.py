"""Feasibility-driven heuristic search for small cycle times.

A probabilistic beam search builds stations forward, drawing tasks with
probability proportional to their minimum positional weight and ranking
partial line configurations by a restricted lower bound over the unassigned
tasks and workers. An interval search sweeps candidate cycle times below the
incumbent, and a critical-station local search polishes the final solution.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import bounds as lb
from .instance import INFEASIBLE, Solution, iter_bits

FAILED = None  # beam-search failure is a normal outcome, not an error

DEFAULT_GAMMA = 125
DEFAULT_BEAM_FACTOR = 5
DEFAULT_INTERVAL_FACTOR = 0.95
DEFAULT_T_MIN = 6.0
DEFAULT_T_MAX = 900.0
DEFAULT_REPETITIONS = 20

_UNIFORM_BLOCK = 256  # rng.random() values drawn at once by a beam call


@dataclass(frozen=True)
class BeamParams:
    cycle_time: int
    gamma: int = DEFAULT_GAMMA
    beam_factor: int = DEFAULT_BEAM_FACTOR
    seed: object = 0  # int or numpy SeedSequence

    def __post_init__(self):
        if self.gamma < 1 or self.beam_factor < 1 or self.cycle_time < 1:
            raise ValueError("beam width, beam factor and cycle time must be >= 1")


@dataclass(frozen=True)
class IpbsParams:
    """Settings of ipbs. hand_over is the warm-start policy that only
    branch_and_bound sets, since it wants an incumbent fast: polish the
    initial construction, and stop after the first sweep that finds no
    better cycle time. Left off, ipbs runs the paper's sweep budget."""

    gamma: int = DEFAULT_GAMMA
    beam_factor: int = DEFAULT_BEAM_FACTOR
    interval_factor: float = DEFAULT_INTERVAL_FACTOR
    t_min: float = DEFAULT_T_MIN
    t_max: float = DEFAULT_T_MAX
    repetitions: int = DEFAULT_REPETITIONS
    seed: int = 42
    hand_over: bool = False

    def __post_init__(self):
        if not 0.0 < self.interval_factor < 1.0:
            raise ValueError("interval factor must lie in (0, 1)")
        # chained, so nan fails it: no deadline comparison with nan is true
        if not 0.0 <= self.t_min <= self.t_max:
            raise ValueError("t_min and t_max must satisfy 0 <= t_min <= t_max")
        if self.repetitions < 1 or self.gamma < 1 or self.beam_factor < 1:
            raise ValueError("repetitions, beam width and beam factor must be >= 1")


class PartialAssignment:
    """State of a partially built line: stations closed so far, as
    (worker, task mask, load) triples, the assigned and available (all
    predecessors assigned) tasks, and the workers that have no station yet,
    as bit masks."""

    __slots__ = ("stations", "assigned_mask", "avail_mask", "workers_mask")

    def __init__(self, inst, stations=(), assigned_mask=0, avail_mask=None, workers_mask=None):
        self.stations = stations
        self.assigned_mask = assigned_mask
        if avail_mask is None:
            avail_mask = sum(1 << t for t in range(inst.n_tasks) if not inst.pred_mask[t])
        self.avail_mask = avail_mask
        if workers_mask is None:
            workers_mask = (1 << inst.n_workers) - 1
        self.workers_mask = workers_mask


def _rlb_sum(inst, assigned_mask, workers_mask):
    """Numerator of the restricted lower bound for forward-built partials:
    the total minimum time of the unassigned tasks over the unassigned
    workers, or None when some unassigned task has no such worker.

    On such states the continuity rules (bnb.apply_reduction_rules) never
    force a task, and their infeasibility marks land only in columns of
    already-consumed workers. The min over the remaining workers is thus
    unaffected, a state they find dead already scores None, and the
    instance's own times can be used directly."""
    unassigned = ((1 << inst.n_tasks) - 1) ^ assigned_mask
    row, dead = inst.beam_tables.row_minima(workers_mask)
    if unassigned & dead:
        return None
    total = 0
    while unassigned:
        low = unassigned & -unassigned
        total += row[low.bit_length() - 1]
        unassigned ^= low
    return total


def _draw(cands, u, pw, pw_chunks):
    """The task drawn from candidate mask cands (two or more tasks) for the
    uniform u in [0, 1): walking the candidates in ascending order, the first
    whose cumulative weight exceeds u times the total, or the last candidate
    when none does. Whole bytes of cands are summed and skipped by one
    pw_chunks lookup each; only the byte that holds the pick is walked bit
    by bit. Sums are Python ints, so the comparisons are exact."""
    total = 0
    k = 0
    rest = cands
    while rest:
        total += pw_chunks[k][rest & 255]
        rest >>= 8
        k += 1
    x = u * total
    acc = 0
    k = 0
    rest = cands
    while rest:
        byte = rest & 255
        s = pw_chunks[k][byte]
        if acc + s > x:  # the pick is in this byte
            base = k << 3
            while True:
                low = byte & -byte
                t = base + low.bit_length() - 1
                acc += pw[t]
                if acc > x:
                    return t
                byte ^= low
        acc += s
        rest >>= 8
        k += 1
    return cands.bit_length() - 1


def _fill_station(inst, node, w, capacity, rng, uniforms, tables):
    """Greedy probabilistic fill of one station for worker w; tasks are drawn
    with probability proportional to their positional weight until nothing
    available fits the residual capacity. A draw walks the candidates in
    ascending task order and takes the first whose cumulative weight exceeds
    u times the total, the pick of bisect_right over the cumulative weights
    (_draw finds it by byte-chunk lookups); a lone candidate is taken
    without a draw. u is the next rng.random() value: uniforms holds a block
    of them, drawn _UNIFORM_BLOCK at a time and popped from the end, so the
    values are those of one scalar call per draw. Returns the assigned and
    available masks after the fill, its load and the mask of the tasks it
    placed."""
    fit_times = tables.fit_times[w]
    fit_masks = tables.fit_masks[w]
    pw = tables.pw
    pw_chunks = tables.pw_chunks
    column = tables.columns[w]
    pred_mask = inst.pred_mask
    successors = tables.successors
    avail = node.avail_mask
    assigned = node.assigned_mask
    load = 0
    while True:
        cands = avail & fit_masks[bisect_right(fit_times, capacity - load)]
        if not cands:
            break
        if cands & (cands - 1):
            if not uniforms:
                uniforms.extend(rng.random(_UNIFORM_BLOCK)[::-1].tolist())
            t = _draw(cands, uniforms.pop(), pw, pw_chunks)
        else:
            t = cands.bit_length() - 1
        load += column[t]
        bit = 1 << t
        avail ^= bit
        assigned |= bit
        for u in successors[t]:  # unassigned, as t was until now
            if pred_mask[u] & assigned == pred_mask[u]:
                avail |= 1 << u
    return assigned, avail, load, assigned ^ node.assigned_mask


def beam_search_feasible(inst, params, *, deadline=None):
    """Probabilistic beam search for a full assignment with cycle time at
    most params.cycle_time. Returns the first complete solution, or FAILED
    (None) once no partial can complete or, checked before each level, once
    the time.monotonic() deadline has passed.

    Two exits skip work whose outcome is already fixed, so every result is
    the one of filling every level out:
    - a level whose smallest score exceeds the capacity times the stations
      left fails the call: each unassigned task costs at least its score
      term on any remaining worker, and each remaining station holds at most
      the capacity, so no partial in the beam can complete;
    - each level, the root's included, starts with a closing test
      (_close_line) that draws nothing: a fill of worker w takes every
      remaining task, whatever it draws, if and only if they all fit w
      within the capacity. The first such (partial, worker) pair in beam
      order, workers ascending, is the one whose fill would complete first,
      in the first repeat; the fills before it would only feed a heap that
      the return discards. With one worker left, that test decides the
      partial, so the last level runs no fill."""
    rng = np.random.default_rng(params.seed)
    uniforms = []
    capacity = params.cycle_time
    tables = inst.beam_tables
    beam = [PartialAssignment(inst)]
    counter = 0
    for stations_left in range(inst.n_workers - 1, -1, -1):  # workers a child of this level has left
        if deadline is not None and time.monotonic() >= deadline:
            return FAILED
        closed = _close_line(inst, beam, capacity)
        if closed is not FAILED or not stations_left:
            return closed
        heap = []  # (-rlb_sum, -insertion counter, node); root is the evictee
        for node in beam:
            for _rep in range(params.beam_factor):
                for w in iter_bits(node.workers_mask):
                    assigned, avail, load, placed = _fill_station(inst, node, w, capacity, rng, uniforms, tables)
                    workers = node.workers_mask ^ (1 << w)
                    score = _rlb_sum(inst, assigned, workers)
                    if score is None:
                        continue
                    counter += 1  # every scored child, so ties keep their order
                    if len(heap) == params.gamma and -score <= heap[0][0]:
                        continue  # rejected before its partial is built
                    child = PartialAssignment(inst, node.stations + ((w, placed, load),), assigned, avail, workers)
                    if len(heap) < params.gamma:
                        heapq.heappush(heap, (-score, -counter, child))
                    else:
                        heapq.heapreplace(heap, (-score, -counter, child))
        if not heap or -max(heap)[0] > capacity * stations_left:
            return FAILED
        beam = [item[2] for item in sorted(heap, key=lambda item: -item[1])]


def _close_line(inst, beam, capacity):
    """The solution of the first partial in beam, and of its first remaining
    worker in ascending order, whose remaining tasks all fit that worker
    within capacity, as one last station; the workers still left follow
    with empty stations, in ascending order. FAILED if there is none."""
    full = (1 << inst.n_tasks) - 1
    for node in beam:
        for w in iter_bits(node.workers_mask):
            load = _rlb_sum(inst, node.assigned_mask, 1 << w)
            if load is not None and load <= capacity:
                last = (w, full ^ node.assigned_mask, load)
                idle = [(v, 0, 0) for v in iter_bits(node.workers_mask ^ (1 << w))]
                return Solution.from_stations(inst.n_tasks, [*node.stations, last, *idle])
    return FAILED


def initial_upper_bound(inst, seed=0, gamma=DEFAULT_GAMMA):
    """One beam run with beam factor one at a trivially sufficient capacity;
    the constructed solution carries its true cycle time."""
    capacity = sum(inst.max_finite_times)
    params = BeamParams(cycle_time=capacity, gamma=gamma, beam_factor=1, seed=seed)
    return beam_search_feasible(inst, params)


def ipbs(inst, params=None, *, lower_bound=None, log=None):
    """Interval search over candidate cycle times.

    Starting from the best known lower bound and the initial construction,
    each sweep tries every cycle time from one below the incumbent down to
    max(lower bound, floor(interval_factor * incumbent)), keeping the best
    feasible result. Stops as soon as the incumbent matches the lower bound;
    otherwise runs until the sweep or time budget is exhausted, but never
    shorter than t_min. Each sweep's beam call gives up at the t_max
    deadline; the initial construction has none. The final solution is
    polished by local search. Returns FAILED when the initial construction
    finds no line: a beam prunes partial lines, so that proves nothing
    about the instance.
    A given `log` list receives one (cycle time, feasible, milliseconds)
    tuple per beam call; feasible is None for a call that came back empty
    after the t_max deadline had passed, which may have cut it short.

    With no lower_bound given, the root bound, all_bounds(inst).best, is
    computed only once a comparison could need it. No native bound exceeds
    _bound_reach, so while the cycle times compared stay above that value,
    every comparison reads the same with it in the bound's place.

    With params.hand_over, the initial construction is polished by local
    search first, so the first sweep starts near the frontier instead of
    walking down from a trivial line, and the search stops after the first
    sweep that finds no better cycle time: the calls that remain would
    retry cycle times that the narrow beam has just failed to reach. When
    no sweep beat the polished construction, it is returned as it is, since
    local search would find no move on it.
    """
    if params is None:
        params = IpbsParams()
    t_start = time.monotonic()
    deadline = t_start + params.t_max
    seeds = np.random.SeedSequence(params.seed)

    best = initial_upper_bound(inst, seeds.spawn(1)[0], params.gamma)
    if best is FAILED:
        return FAILED
    polished = None
    if params.hand_over:
        best = polished = local_search(inst, best)
    c_up = best.cycle_time
    reach = _bound_reach(inst) if lower_bound is None else lower_bound

    def bound_at(c):
        # the lower bound as comparisons against c see it: reach while c is
        # above reach, and the root bound, computed once, from then on
        nonlocal lower_bound
        if lower_bound is None and c <= reach:
            lower_bound = lb.all_bounds(inst).best
        return reach if lower_bound is None else lower_bound

    sweeps = 0
    while c_up > bound_at(c_up):
        elapsed = time.monotonic() - t_start
        if (sweeps >= params.repetitions or elapsed >= params.t_max) and elapsed >= params.t_min:
            break
        sweeps += 1
        c_sweep = c_up
        floor = math.floor(params.interval_factor * c_up)
        start = max(bound_at(floor), floor)
        for c in range(c_up - 1, start - 1, -1):
            if c >= c_up:
                continue
            t_c = time.monotonic()
            beam = BeamParams(cycle_time=c, gamma=params.gamma, beam_factor=params.beam_factor, seed=seeds.spawn(1)[0])
            sol = beam_search_feasible(inst, beam, deadline=deadline)
            if log is not None:
                t_end = time.monotonic()
                feasible = None if sol is FAILED and t_end >= deadline else sol is not FAILED
                log.append((c, feasible, int((t_end - t_c) * 1000)))
            if sol is not FAILED:
                best = sol
                c_up = sol.cycle_time
                if c_up <= bound_at(c_up):
                    break
            if time.monotonic() >= deadline:
                break
        if params.hand_over and c_up == c_sweep:
            break
    if best is polished:
        return best  # already a local optimum of local_search's moves
    return local_search(inst, best)


def _bound_reach(inst):
    """A value that no native bound of all_bounds exceeds: the largest of
    LC1, LC2 and LC3, computed exactly, and the makespan S of the descent
    schedule, which bounds the precedence-free optimum and so every bound of
    the relaxation family (see bounds)."""
    return max(lb.lc1(inst), lb.lc2(inst), lb.lc3(inst), lb._precedence_free_makespan(inst.times_array))


def local_search(inst, sol):
    """Reduce the number of critical stations (ties broken by cycle time,
    lexicographically) by first improvement, restarting after each accepted
    move. Move kinds are tried in this order: a shift of one task off a
    critical station; a swap of a task on a critical station with a task on
    another station; a shift off a critical station followed by a shift out
    of the receiving station; and a worker swap between two stations, one of
    them critical."""
    m = inst.n_workers
    times = inst.times
    pred_star, succ_star = inst.pred_star, inst.succ_star
    station_worker = list(sol.worker_order)
    station_tasks = [[] for _ in range(m)]
    for t, w in enumerate(sol.assignment):
        station_tasks[station_worker.index(w)].append(t)

    def load(s, w):
        return sum(times[t][w] for t in station_tasks[s])

    def rank(loads):
        cycle = max(loads)
        return cycle, loads.count(cycle)

    def fits(t, s, override):
        # t can run on station s's worker, with the tasks in override placed
        # at the given stations, without breaking a precedence: no
        # predecessor sits after s and no successor before it
        if times[t][station_worker[s]] == INFEASIBLE:
            return False
        preds, succs = pred_star[t], succ_star[t]
        moved = 0
        for u, su in override.items():
            bit = 1 << u
            moved |= bit
            if preds & bit and su > s or succs & bit and su < s:
                return False
        return not (preds & later[s] & ~moved or succs & earlier[s] & ~moved)

    def shifted(loads, t, a, b):
        # loads after task t moves from station a to station b
        trial = list(loads)
        trial[a] -= times[t][station_worker[a]]
        trial[b] += times[t][station_worker[b]]
        return trial

    def moves(cycle):
        # yields (trial loads, shifts as (task, from, to), swapped stations)
        critical = [s for s in range(m) if loads[s] == cycle]
        for a in critical:
            for t in station_tasks[a]:
                for b in range(m):
                    if b != a and fits(t, b, {}):
                        yield shifted(loads, t, a, b), ((t, a, b),), None
        for a in critical:
            for t1 in station_tasks[a]:
                for b in range(m):
                    if b == a:
                        continue
                    for t2 in station_tasks[b]:
                        override = {t1: b, t2: a}
                        if fits(t1, b, override) and fits(t2, a, override):
                            trial = shifted(shifted(loads, t1, a, b), t2, b, a)
                            yield trial, ((t1, a, b), (t2, b, a)), None
        # two chained shifts; the first may worsen before the second repairs
        for a in critical:
            for t1 in station_tasks[a]:
                for b in range(m):
                    if b == a or not fits(t1, b, {}):
                        continue
                    mid = shifted(loads, t1, a, b)
                    for t2 in station_tasks[b]:
                        for d in range(m):
                            if d != b and fits(t2, d, {t1: b}):
                                yield shifted(mid, t2, b, d), ((t1, a, b), (t2, b, d)), None
        for a in range(m):
            for b in range(a + 1, m):
                if loads[a] != cycle and loads[b] != cycle:
                    continue
                trial = list(loads)
                trial[a], trial[b] = load(a, station_worker[b]), load(b, station_worker[a])
                if not math.isinf(trial[a]) and not math.isinf(trial[b]):
                    yield trial, (), (a, b)

    loads = [load(s, station_worker[s]) for s in range(m)]
    while True:
        # earlier[s] and later[s]: the task masks of the stations before and
        # after s (stations hold disjoint tasks, so a sum is a union)
        on = [sum(1 << t for t in tasks) for tasks in station_tasks]
        earlier = [sum(on[:s]) for s in range(m)]
        later = [sum(on[s + 1 :]) for s in range(m)]
        base = rank(loads)
        found = next((mv for mv in moves(base[0]) if rank(mv[0]) < base), None)
        if found is None:
            break
        loads, shifts, swapped = found
        for t, a, b in shifts:
            station_tasks[a].remove(t)
            station_tasks[b].append(t)
        if swapped:
            a, b = swapped
            station_worker[a], station_worker[b] = station_worker[b], station_worker[a]
    return Solution.from_stations(inst.n_tasks, zip(station_worker, on, loads))
