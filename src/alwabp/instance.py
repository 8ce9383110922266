"""Instance and solution data model for worker-dependent assembly line balancing.

Tasks and workers are 0-based internally; all file formats and reports are
1-based. A task a worker cannot execute has time INFEASIBLE (float infinity),
never a large finite number.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property

import numpy as np

INFEASIBLE = float("inf")

LOW = "low"
HIGH = "high"


class AlwabpError(Exception):
    """Base class for errors raised by this package."""


class ParseError(AlwabpError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CycleError(AlwabpError):
    pass


class GenerationError(AlwabpError):
    pass


class InfeasibleInstanceError(AlwabpError):
    pass


class EnumerationLimitError(AlwabpError):
    pass


def _check_nodes(edges, n):
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a},{b}) out of range for {n} nodes")


def topological_order(succ, n):
    """Kahn order of nodes 0..n-1 under the successor lists succ, popping
    the lowest ready index first; raises CycleError on a cycle."""
    indeg = [0] * n
    for v in range(n):
        for u in succ[v]:
            indeg[u] += 1
    ready = [v for v in range(n) if indeg[v] == 0]  # sorted, so already a heap
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(ready, u)
    if len(order) != n:
        raise CycleError("graph contains a cycle")
    return order


def iter_bits(mask):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _descendants(edges, n):
    """(star, direct): per node, the bitmask of every node reachable from it
    by one or more edges, and that of its successors under the transitive
    reduction, accumulated in one scan in reverse topological order. A
    successor stays direct unless another successor already reaches it."""
    _check_nodes(edges, n)
    succ = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    star = [0] * n
    direct = [0] * n
    for v in reversed(topological_order(succ, n)):
        reach = covered = 0
        for u in succ[v]:
            reach |= 1 << u | star[u]
            covered |= star[u]
        star[v] = reach
        direct[v] = reach & ~covered
    return star, direct


def _pairs(masks):
    """The pairs (a, b) for the set bits b of masks[a]."""
    return {(a, b) for a, mask in enumerate(masks) for b in iter_bits(mask)}


def _transpose(masks):
    """out[b] has bit a set when masks[a] has bit b set."""
    out = [0] * len(masks)
    for a, mask in enumerate(masks):
        for b in iter_bits(mask):
            out[b] |= 1 << a
    return out


def transitive_closure(edges, n):
    """All pairs (a, b) such that b is reachable from a via one or more edges."""
    return _pairs(_descendants(edges, n)[0])


def transitive_reduction(edges, n):
    """Minimal edge set with the same transitive closure (unique for a DAG)."""
    return _pairs(_descendants(edges, n)[1])


class Instance:
    """An immutable problem instance.

    times[t][w] is the duration of task t for worker w (positive int) or
    INFEASIBLE. `edges` is stored transitively reduced; `closure` is its
    transitive closure. The number of stations equals the number of workers.

    The same relations are held per task as int bitmasks: succ_mask[t] and
    pred_mask[t] have a bit for each direct successor and predecessor of t
    (under `edges`), succ_star[t] and pred_star[t] one for each transitive
    one (under `closure`).
    """

    def __init__(self, times, edges):
        self.n_tasks = len(times)
        if self.n_tasks == 0:
            raise ValueError("instance needs at least one task")
        self.n_workers = len(times[0])
        if self.n_workers < 1:
            raise ValueError("instance needs at least one worker")
        self.times = tuple(tuple(row) for row in times)
        for t, row in enumerate(self.times):
            if len(row) != self.n_workers:
                raise ValueError(f"task {t + 1}: expected {self.n_workers} times")
            for p in row:
                if p != INFEASIBLE and (not isinstance(p, int) or isinstance(p, bool) or p < 1):
                    raise ValueError(f"task {t + 1}: durations must be positive integers or INFEASIBLE")
            if all(p == INFEASIBLE for p in row):
                raise ValueError(f"task {t + 1} has no feasible worker")
        n = self.n_tasks
        star, direct = _descendants(set(edges), n)
        self.closure = frozenset(_pairs(star))
        self.edges = frozenset(_pairs(direct))
        self.succ_star = tuple(star)
        self.pred_star = tuple(_transpose(star))
        self.succ_mask = tuple(direct)
        self.pred_mask = tuple(_transpose(direct))
        self.min_times = tuple(min(p for p in row if p != INFEASIBLE) for row in self.times)
        self.max_finite_times = tuple(max(p for p in row if p != INFEASIBLE) for row in self.times)
        self.feasible_workers = tuple(
            tuple(w for w in range(self.n_workers) if self.times[t][w] != INFEASIBLE)
            for t in range(n)
        )
        self.times_array = np.array(self.times, dtype=np.float64)
        self.times_array.setflags(write=False)

    @cached_property
    def beam_tables(self):
        """The beam search's lookup tables (see BeamTables), built on first use."""
        return BeamTables(self)

    @cached_property
    def reach_matrix(self):
        """int64 (n, n) matrix with 1 at [a, b] when a == b or (a, b) is in
        the closure: p @ it sums each task's time p with its transitive
        predecessors', it @ p with its transitive successors'."""
        reach = np.eye(self.n_tasks, dtype=np.int64)
        if self.closure:
            reach[tuple(zip(*self.closure))] = 1
        reach.setflags(write=False)
        return reach

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self.times == other.times and self.edges == other.edges

    def __hash__(self):
        return hash((self.times, self.edges))

    def __repr__(self):
        return f"Instance(tasks={self.n_tasks}, workers={self.n_workers}, edges={len(self.edges)})"


def _byte_sums(weights):
    """sums[b]: the total of weights[i] over the set bits i of byte b, for a
    tuple of at most 8 weights (bits past its end weigh 0)."""
    weights += (0,) * (8 - len(weights))
    sums = [0]
    for b in range(1, 256):
        low = b & -b
        sums.append(sums[b ^ low] + weights[low.bit_length() - 1])
    return tuple(sums)


class BeamTables:
    """Per-instance lookup tables of the beam search.

    fit_times[w] holds worker w's finite task times in ascending order and
    fit_masks[w][k] the bit mask of the tasks behind its first k entries, so
    the tasks that take at most r on w are
    fit_masks[w][bisect_right(fit_times[w], r)]. pw[t] is task t's minimum
    positional weight: its own minimum time plus that of all successors.
    pw_chunks[k][b] is the pw sum of the tasks 8k + i for the set bits i of
    byte b, so the weight of a task mask is the sum of one lookup per byte;
    it holds 256 ints per 8 tasks, 256 * ceil(n / 8) in all. successors[t]
    is the tuple of t's direct successors, ascending: the fill loop walks it
    once per placed task, faster than the bits of succ_mask[t].

    row_minima memoises, per mask of remaining workers, each task's minimum
    time over those workers. It holds at most one row of n ints per worker
    mask asked for, so at most 2^m rows of n.
    """

    __slots__ = ("fit_times", "fit_masks", "pw", "pw_chunks", "successors", "_times", "_rows")

    def __init__(self, inst):
        self.fit_times = []
        self.fit_masks = []
        for w in range(inst.n_workers):
            pairs = sorted((row[w], t) for t, row in enumerate(inst.times) if row[w] != INFEASIBLE)
            masks = [0]
            for _, t in pairs:
                masks.append(masks[-1] | 1 << t)
            self.fit_times.append(tuple(p for p, _ in pairs))
            self.fit_masks.append(tuple(masks))
        p = inst.min_times
        self.pw = tuple(p[t] + sum(p[j] for j in iter_bits(inst.succ_star[t])) for t in range(inst.n_tasks))
        self.pw_chunks = tuple(_byte_sums(self.pw[k : k + 8]) for k in range(0, inst.n_tasks, 8))
        self.successors = tuple(tuple(iter_bits(mask)) for mask in inst.succ_mask)
        self._times = inst.times
        self._rows = {}

    def row_minima(self, workers_mask):
        """(row, dead): row[t] is task t's minimum time over the workers in
        workers_mask, and dead the mask of tasks none of them can run (their
        row entries are 0)."""
        entry = self._rows.get(workers_mask)
        if entry is None:
            cols = [w for w in range(workers_mask.bit_length()) if (workers_mask >> w) & 1]
            row = []
            dead = 0
            for t, times in enumerate(self._times):
                best = min((times[w] for w in cols), default=INFEASIBLE)
                if best == INFEASIBLE:
                    dead |= 1 << t
                    best = 0
                row.append(best)
            entry = self._rows[workers_mask] = (tuple(row), dead)
        return entry


class Solution:
    """A linear order of workers (one per station) plus a task assignment."""

    def __init__(self, worker_order, assignment, cycle_time):
        self.worker_order = tuple(worker_order)
        self.assignment = tuple(assignment)
        self.cycle_time = cycle_time

    def loads(self, inst):
        loads = [0] * inst.n_workers
        for t, w in enumerate(self.assignment):
            loads[w] += inst.times[t][w]
        return loads

    def __eq__(self, other):
        if not isinstance(other, Solution):
            return NotImplemented
        return (self.worker_order, self.assignment, self.cycle_time) == (
            other.worker_order,
            other.assignment,
            other.cycle_time,
        )

    def __repr__(self):
        return f"Solution(cycle_time={self.cycle_time}, worker_order={self.worker_order})"


def validate_solution(inst, sol):
    """Independent checker; returns a list of violation messages (empty if valid)."""
    problems = []
    if sorted(sol.worker_order) != list(range(inst.n_workers)):
        problems.append("worker_order is not a permutation of the workers")
        return problems
    if len(sol.assignment) != inst.n_tasks:
        problems.append("assignment does not cover all tasks")
        return problems
    station = [0] * inst.n_workers
    for s, w in enumerate(sol.worker_order):
        station[w] = s
    for t, w in enumerate(sol.assignment):
        if inst.times[t][w] == INFEASIBLE:
            problems.append(f"task {t + 1} assigned to infeasible worker {w + 1}")
    for a, b in inst.closure:
        if station[sol.assignment[a]] > station[sol.assignment[b]]:
            problems.append(f"precedence ({a + 1},{b + 1}) violated by station order")
    loads = sol.loads(inst)
    if max(loads) != sol.cycle_time:
        problems.append(f"cycle_time {sol.cycle_time} != max load {max(loads)}")
    return problems


def reverse_instance(inst):
    """Same times, every edge (a, b) replaced by (b, a)."""
    return Instance(inst.times, {(b, a) for a, b in inst.edges})


def _parse_int(tok):
    """int(tok) for an optional '-' and ASCII digits only. int() alone also
    takes '+1', '1_0' and digits of other scripts; it rejects '--1' itself."""
    if tok.isascii() and tok.lstrip("-").isdigit():
        return int(tok)
    raise ValueError(tok)


def parse_instance(text):
    """Parse the canonical line-oriented format into a validated Instance.

    Redundant (but acyclic) precedence arcs are accepted and normalized away;
    exact duplicates are rejected.
    """
    lines = []  # (lineno, tokens)
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            lines.append((i, tokens))
    pos = 0

    def expect(what):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of input, expected {what}")
        lineno, tokens = lines[pos]
        pos += 1
        return lineno, tokens

    def expect_kv(key):
        lineno, tokens = expect(f"'{key} <n>'")
        if len(tokens) != 2 or tokens[0] != key:
            raise ParseError(f"expected '{key} <n>'", lineno)
        try:
            value = _parse_int(tokens[1])
        except ValueError:
            raise ParseError(f"expected integer after '{key}'", lineno) from None
        return lineno, value

    lineno, tokens = expect("header 'alwabp 1'")
    if tokens != ["alwabp", "1"]:
        raise ParseError("expected header 'alwabp 1'", lineno)
    lineno, n_tasks = expect_kv("tasks")
    if n_tasks < 1:
        raise ParseError("need at least one task", lineno)
    lineno, n_workers = expect_kv("workers")
    if n_workers < 1:
        raise ParseError("need at least one worker", lineno)
    lineno, tokens = expect("'times'")
    if tokens != ["times"]:
        raise ParseError("expected 'times'", lineno)

    times = []
    for t in range(n_tasks):
        lineno, tokens = expect(f"times row for task {t + 1}")
        if len(tokens) != n_workers:
            raise ParseError(f"times row for task {t + 1}: expected {n_workers} values", lineno)
        row = []
        for tok in tokens:
            if tok == "inf":
                row.append(INFEASIBLE)
                continue
            try:
                p = _parse_int(tok)
            except ValueError:
                raise ParseError(f"bad duration {tok!r}", lineno) from None
            if p < 1:
                raise ParseError(f"duration must be positive, got {p}", lineno)
            row.append(p)
        if all(p == INFEASIBLE for p in row):
            raise ParseError(f"task {t + 1} has no feasible worker", lineno)
        times.append(row)

    lineno, tokens = expect("'precedences'")
    if tokens != ["precedences"]:
        raise ParseError("expected 'precedences'", lineno)

    edges = set()
    while True:
        lineno, tokens = expect("edge 'a b' or 'end'")
        if tokens == ["end"]:
            break
        if len(tokens) != 2:
            raise ParseError("expected edge 'a b' or 'end'", lineno)
        try:
            a, b = _parse_int(tokens[0]), _parse_int(tokens[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", lineno) from None
        if not (1 <= a <= n_tasks and 1 <= b <= n_tasks):
            raise ParseError(f"edge ({a},{b}) out of range", lineno)
        if (a - 1, b - 1) in edges:
            raise ParseError(f"duplicate edge ({a},{b})", lineno)
        edges.add((a - 1, b - 1))
    if pos < len(lines):
        raise ParseError("unexpected content after 'end'", lines[pos][0])

    try:
        return Instance(times, edges)
    except CycleError:
        raise ParseError("cyclic precedence") from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def write_instance(inst):
    """Canonical writer; parse(write(inst)) reproduces inst bit-exactly."""
    out = ["alwabp 1", f"tasks {inst.n_tasks}", f"workers {inst.n_workers}", "times"]
    for row in inst.times:
        out.append(" ".join("inf" if p == INFEASIBLE else str(p) for p in row))
    out.append("precedences")
    for a, b in sorted(inst.edges):
        out.append(f"{a + 1} {b + 1}")
    out.append("end")
    return "\n".join(out) + "\n"


def generate_instance(base_times, base_edges, n_workers, variability, infeasibility, seed):
    """Random instance: worker 1 executes task t in base_times[t]; every other
    worker draws an integer time uniformly from [1, p] (low variability) or
    [1, 2p] (high). Afterwards round(infeasibility * tasks * workers) distinct
    cells, rounded half-up, are marked INFEASIBLE; draws that would leave a
    task with no feasible worker are rejected and redrawn.

    Deterministic for a fixed seed (PCG64 stream).
    """
    n_tasks = len(base_times)
    if n_tasks < 1:
        raise ValueError("need at least one base time")
    if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in base_times):
        raise ValueError("base times must be positive integers")
    if n_workers < 1:
        raise ValueError("need at least one worker")
    if not 0 <= infeasibility < 1:
        raise ValueError("infeasibility must lie in [0, 1)")
    if variability not in (LOW, HIGH):
        raise ValueError(f"variability must be {LOW!r} or {HIGH!r}")

    rng = np.random.Generator(np.random.PCG64(seed))
    times = []
    for t in range(n_tasks):
        row = [base_times[t]]
        for _ in range(n_workers - 1):
            hi = base_times[t] if variability == LOW else 2 * base_times[t]
            row.append(int(rng.integers(1, hi + 1)))
        times.append(row)

    count = math.floor(infeasibility * n_tasks * n_workers + 0.5)
    chosen = set()
    feasible_left = [n_workers] * n_tasks
    attempts = 0
    max_attempts = 1000 * max(count, 1)
    while len(chosen) < count:
        attempts += 1
        if attempts > max_attempts:
            raise GenerationError(
                f"could not place {count} infeasible cells after {max_attempts} draws"
            )
        t = int(rng.integers(0, n_tasks))
        w = int(rng.integers(0, n_workers))
        if (t, w) in chosen or feasible_left[t] == 1:
            continue
        chosen.add((t, w))
        feasible_left[t] -= 1
    for t, w in chosen:
        times[t][w] = INFEASIBLE
    return Instance(times, base_edges)
