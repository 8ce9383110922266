"""The benchmark's workloads: which command each op runs, on which corpus,
and why.

Layers are the package's modules: `cli`, `instance`, `bounds`,
`heuristic`, `bnb` and `export`. Each op is one instance file run through
one command with `alwabp.cli.run(argv)`. `export` is on no timed path; the
output checks use it.

Per-instance cost varies a lot within a family (branch-and-bound node
counts, beam calls that fail or succeed), while the cross-seed spread of a
pass shrinks only with the square root of the number of instances in it.
So each corpus mixes its families equally and holds as many instances as
one pass of the time a run is given allows; sizes are picked for that, not
for the largest instances the paper treats.

Times quoted below were measured on a shared 2-vCPU 2.0 GHz Xeon.
"""

from __future__ import annotations

from dataclasses import dataclass

LOW, HIGH = "low", "high"


@dataclass(frozen=True)
class Family:
    n_tasks: int
    n_workers: int
    variability: str  # "low" or "high"
    infeasibility: float  # share of task-worker cells marked infeasible
    base_max: int  # base times are drawn from 1..base_max
    density: float  # probability of each forward precedence arc

    @property
    def label(self):
        return f"{self.n_tasks}x{self.n_workers}-{self.variability}-inf{round(100 * self.infeasibility)}"


@dataclass(frozen=True)
class Workload:
    command: tuple  # subcommand and flags; the op appends the instance path and --json
    families: tuple
    reps: int  # instances per family
    tiny: tuple  # families of the self-test corpus, one instance each


WORKLOADS = {
    # Time to a proven optimum. Search (select_branch_task,
    # apply_reduction_rules), the node bound (_node_bound with two L1 ascents
    # per node) and the warm-start heuristic (ipbs inside branch_and_bound)
    # all do real work, and the MILP optimum is a fixed reference for the
    # output. Should move: wall_s and op_p50_s through any of bnb, the node
    # bound or the warm start. Should not move: bound_sum (root bounds only).
    # Starting expectation, from a 24-instance probe at 20x5 and 25x5 with
    # arc density 0.1: 3683 nodes, identical across passes, 42-51 s a pass,
    # about 40 % of the time in the node bound and 45 % in warm-start beam
    # calls.
    # The instances here are much smaller, 12x3 at arc density 0.3, because
    # the spread between seeds falls only with the square root of the number
    # of instances in a pass (per-instance times vary by a factor of 0.5 to
    # 0.7 of their mean at every size tried). At 16x4 and density 0.1 an op
    # took 0.2-3.2 s: the root bound closed about half the instances (no
    # search, short warm start) and node counts ran to 433, so 20 instances
    # gave pass times of 15-22 s across five seeds. At density 0.3 nearly
    # every instance needs search; at 12x3 an op takes 0.05-0.4 s with up to
    # about 50 nodes, so 96 instances fit one pass, and the MILP reference
    # costs about 0.1 s each.
    "exact": Workload(
        command=("solve", "--seed", "42"),
        families=tuple(Family(12, 3, var, inf, 10, 0.3) for var in (LOW, HIGH) for inf in (0.0, 0.2)),
        reps=24,
        tiny=(Family(8, 3, LOW, 0.2, 10, 0.3), Family(8, 3, HIGH, 0.0, 10, 0.3)),
    ),
    # Heuristic quality and time at a budget counted in sweeps, not seconds:
    # a clock budget does not repeat (at 70x10 one sweep ended at 144 and
    # two at 191). --t-max is never reached and --t-min is 0, so the run is
    # bounded by the default 20 sweeps alone. Beam search and local search
    # do almost all the work; bnb does none and bounds one root call per op.
    # Should move: wall_s and gap_pct through beam_search_feasible,
    # local_search or the interval search. Should not move: bnb metrics.
    # Instances are built like acceptance criterion 9 (base times 1-99,
    # arc density 0.04) at low variability / 10 % infeasibility and high /
    # 20 %. Starting expectation, from 4 instances at 50x7 and 70x10 with 3
    # sweeps and the default beam: 21.7 s, 111 beam calls (all feasible),
    # gaps of 56-213 %. With 3 sweeps an op either is still descending from
    # the poor initial solution (cheap calls that succeed) or has reached
    # cycle times where calls fail (each a full beam), so op times varied
    # 40-fold; with 20 sweeps every op reaches that frontier. The beam is
    # narrowed to width 10 and factor 1 so that 20 sweeps cost about 0.3 s
    # at 30x5 and 1 s at 40x6 (about 9 s at 70x10), and 40 ops fit a pass.
    "heur": Workload(
        command=("heur", "--seed", "42", "--t-min", "0", "--t-max", "1e9", "--repetitions", "20",
                 "--gamma", "10", "--beam-factor", "1"),
        families=tuple(
            Family(n, m, var, inf, 99, 0.04) for n, m in ((30, 5), (40, 6)) for var, inf in ((LOW, 0.1), (HIGH, 0.2))
        ),
        reps=10,
        tiny=(Family(12, 3, LOW, 0.1, 99, 0.04), Family(12, 3, HIGH, 0.2, 99, 0.04)),
    ),
    # All eight bounds on the full matrices: L2 knapsack tables and the
    # repeated L1 ascents, with no search and no heuristic (exact uses the
    # same layer on reduced node matrices). Ops are short (0.17 s at 50x7,
    # 0.36 s at 70x10 in the probe), so fixed per-op costs in cli and
    # instance parsing show here. Should move: wall_s and peak_rss_mb
    # through the bounds layer, op_p50_s through cli and parsing.
    # Should not move: anything through heuristic or bnb. The sizes are
    # n in {20, 30, 50, 70} plus 40x6, so that the median op falls inside a
    # size class rather than in the gap between two.
    "bounds": Workload(
        command=("bounds",),
        families=tuple(
            Family(n, m, var, inf, base, density)
            for n, m, base, density in (
                (20, 5, 10, 0.1), (30, 5, 10, 0.1), (40, 6, 99, 0.04), (50, 7, 99, 0.04), (70, 10, 99, 0.04)
            )
            for var, inf in ((LOW, 0.1), (HIGH, 0.2))
        ),
        reps=5,
        tiny=(Family(10, 3, LOW, 0.1, 10, 0.1), Family(12, 3, HIGH, 0.2, 99, 0.04)),
    ),
}
