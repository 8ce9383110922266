"""The lower bound families and what each one sees.

The homogeneous-line bounds (LC1, LC2, LC3) relax every task to its fastest
worker; the machine-relaxation bounds (L1, L1a, L2 and their disjunctive
strengthenings) drop the precedence constraints instead.
"""

import math

from alwabp import all_bounds, parse_instance
from alwabp.bounds import ALL_BOUNDS

TEXT = """\
alwabp 1
tasks 6
workers 3
times
4 inf 3
4 5 4
3 6 2
1 5 inf
1 2 3
6 4 inf
precedences
1 2
1 3
3 4
3 5
2 5
5 6
end
"""

inst = parse_instance(TEXT)
# the five relaxation bounds all come from one L2 and one subgradient
# ascent, so the first of them (L1 here) carries that shared work and the
# other four read about 0
report = all_bounds(inst, ALL_BOUNDS)
print(f"{'bound':<10} {'value':>5} {'time':>10}")
for entry in report.entries:
    print(f"{entry.name:<10} {entry.value:>5} {entry.elapsed_s * 1000:>8.2f}ms")
print(f"{'best':<10} {report.best:>5}")

# LC3 is the smallest cycle time at which every task still has a station
# window: earliest ceil(head / C), latest m + 1 - ceil(tail / C), where a
# task's head (tail) sums the minimum times of it and all its transitive
# predecessors (successors); at 4 the last task is squeezed out
heads, tails = inst.heads_tails
for c in (4, 5, 6):
    rows = ", ".join(
        f"t{t + 1}:[{math.ceil(h / c)},{inst.n_workers + 1 - math.ceil(tl / c)}]"
        for t, (h, tl) in enumerate(zip(heads, tails))
    )
    print(f"C={c}: {rows}")
