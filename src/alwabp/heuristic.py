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
from .instance import INFEASIBLE, InfeasibleInstanceError, Solution, iter_bits

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
    gamma: int = DEFAULT_GAMMA
    beam_factor: int = DEFAULT_BEAM_FACTOR
    interval_factor: float = DEFAULT_INTERVAL_FACTOR
    t_min: float = DEFAULT_T_MIN
    t_max: float = DEFAULT_T_MAX
    repetitions: int = DEFAULT_REPETITIONS
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.interval_factor < 1.0:
            raise ValueError("interval factor must lie in (0, 1)")
        if self.t_min > self.t_max:
            raise ValueError("t_min must not exceed t_max")
        if self.repetitions < 1 or self.gamma < 1 or self.beam_factor < 1:
            raise ValueError("repetitions, beam width and beam factor must be >= 1")


class PartialAssignment:
    """State of a partially built line: stations closed so far, the assigned
    and available (all predecessors assigned) tasks, and the workers that
    have no station yet, as bit masks."""

    __slots__ = ("stations", "assigned_mask", "avail_mask", "workers_mask")

    def __init__(self, inst, stations=(), assigned_mask=0, avail_mask=None, workers_mask=None):
        self.stations = stations  # tuple of (worker, task tuple, load)
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
    values are those of one scalar call per draw."""
    fit_times = tables.fit_times[w]
    fit_masks = tables.fit_masks[w]
    pw = tables.pw
    pw_chunks = tables.pw_chunks
    times = inst.times
    pred_mask = inst.pred_mask
    successors = tables.successors
    avail = node.avail_mask
    assigned = node.assigned_mask
    load = 0
    chosen = []
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
        load += times[t][w]
        chosen.append(t)
        bit = 1 << t
        avail ^= bit
        assigned |= bit
        for u in successors[t]:  # unassigned, as t was until now
            if pred_mask[u] & assigned == pred_mask[u]:
                avail |= 1 << u
    return assigned, avail, load, tuple(chosen)


def _to_solution(inst, stations, workers_mask):
    order = [w for w, _, _ in stations] + list(iter_bits(workers_mask))
    assignment = [0] * inst.n_tasks
    cycle = 0
    for w, tasks, load in stations:
        cycle = max(cycle, load)
        for t in tasks:
            assignment[t] = w
    return Solution(order, assignment, cycle)


def beam_search_feasible(inst, params, *, deadline=None):
    """Probabilistic beam search for a full assignment with cycle time at
    most params.cycle_time. Returns the first complete solution, or FAILED
    (None) once no partial can complete or, checked before each level, once
    the time.monotonic() deadline has passed.

    Two exits skip work whose outcome is already fixed, so every result is
    the one of running all levels out:
    - a level whose smallest score exceeds the capacity times the stations
      left fails the call: each unassigned task costs at least its score
      term on any remaining worker, and each remaining station holds at most
      the capacity, so no partial in the beam can complete;
    - the last level is decided in closed form (_last_station): with one
      worker left, a fill takes every remaining task, whatever it draws, if
      and only if they all fit that worker within the capacity. The first
      such partial in beam order is the one the fills would complete first,
      and no random number is drawn for it."""
    rng = np.random.default_rng(params.seed)
    uniforms = []
    capacity = params.cycle_time
    tables = inst.beam_tables
    full = (1 << inst.n_tasks) - 1
    beam = [PartialAssignment(inst)]
    counter = 0
    for stations_left in range(inst.n_workers - 1, 0, -1):  # workers a child of this level has left
        if deadline is not None and time.monotonic() >= deadline:
            return FAILED
        heap = []  # (-rlb_sum, -insertion counter, node); root is the evictee
        for node in beam:
            for _rep in range(params.beam_factor):
                for w in iter_bits(node.workers_mask):
                    assigned, avail, load, chosen = _fill_station(inst, node, w, capacity, rng, uniforms, tables)
                    workers = node.workers_mask ^ (1 << w)
                    if assigned == full:
                        return _to_solution(inst, node.stations + ((w, chosen, load),), workers)
                    score = _rlb_sum(inst, assigned, workers)
                    if score is None:
                        continue
                    counter += 1  # every scored child, so ties keep their order
                    if len(heap) == params.gamma and -score <= heap[0][0]:
                        continue  # rejected before its partial is built
                    child = PartialAssignment(inst, node.stations + ((w, chosen, load),), assigned, avail, workers)
                    if len(heap) < params.gamma:
                        heapq.heappush(heap, (-score, -counter, child))
                    else:
                        heapq.heapreplace(heap, (-score, -counter, child))
        if not heap or -max(heap)[0] > capacity * stations_left:
            return FAILED
        beam = [item[2] for item in sorted(heap, key=lambda item: -item[1])]
    if deadline is not None and time.monotonic() >= deadline:
        return FAILED
    return _last_station(inst, beam, capacity, full)


def _last_station(inst, beam, capacity, full):
    """The solution of the first partial in beam, each with one worker left,
    whose remaining tasks all fit that worker within capacity; FAILED if
    there is none."""
    for node in beam:
        load = _rlb_sum(inst, node.assigned_mask, node.workers_mask)
        if load is not None and load <= capacity:
            w = node.workers_mask.bit_length() - 1
            rest = tuple(iter_bits(full ^ node.assigned_mask))
            return _to_solution(inst, node.stations + ((w, rest, load),), 0)
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
    deadline; the initial construction has none, so there is always a
    solution. The final solution is polished by local search.
    A given `log` list receives one (cycle time, feasible, milliseconds)
    tuple per beam call; feasible is None for a call that came back empty
    after the t_max deadline had passed, which may have cut it short.
    """
    if params is None:
        params = IpbsParams()
    t_start = time.monotonic()
    deadline = t_start + params.t_max
    seeds = np.random.SeedSequence(params.seed)

    if lower_bound is None:
        lower_bound = lb.all_bounds(inst).best
    best = initial_upper_bound(inst, seeds.spawn(1)[0], params.gamma)
    if best is FAILED:
        raise InfeasibleInstanceError("no feasible assignment exists at any cycle time")
    c_up = best.cycle_time

    sweeps = 0
    while c_up > lower_bound:
        elapsed = time.monotonic() - t_start
        if (sweeps >= params.repetitions or elapsed >= params.t_max) and elapsed >= params.t_min:
            break
        sweeps += 1
        start = max(lower_bound, math.floor(params.interval_factor * c_up))
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
                if c_up <= lower_bound:
                    break
            if time.monotonic() >= deadline:
                break
    return local_search(inst, best)


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
    station_worker = list(sol.worker_order)
    station_tasks = [[] for _ in range(m)]
    pos = [0] * inst.n_tasks
    for t, w in enumerate(sol.assignment):
        s = station_worker.index(w)
        station_tasks[s].append(t)
        pos[t] = s

    def load(s, w):
        return sum(times[t][w] for t in station_tasks[s])

    def rank(loads):
        cycle = max(loads)
        return cycle, loads.count(cycle)

    def fits(t, s, override):
        # t can run on station s's worker, with the tasks in override placed
        # at the given stations, without breaking a precedence
        if times[t][station_worker[s]] == INFEASIBLE:
            return False
        for p in iter_bits(inst.pred_star[t]):
            if override.get(p, pos[p]) > s:
                return False
        for q in iter_bits(inst.succ_star[t]):
            if override.get(q, pos[q]) < s:
                return False
        return True

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
        base = rank(loads)
        found = next((mv for mv in moves(base[0]) if rank(mv[0]) < base), None)
        if found is None:
            break
        loads, shifts, swapped = found
        for t, a, b in shifts:
            station_tasks[a].remove(t)
            station_tasks[b].append(t)
            pos[t] = b
        if swapped:
            a, b = swapped
            station_worker[a], station_worker[b] = station_worker[b], station_worker[a]

    assignment = [0] * inst.n_tasks
    for s in range(m):
        for t in station_tasks[s]:
            assignment[t] = station_worker[s]
    return Solution(station_worker, assignment, int(max(loads)))
