"""Emitting the assignment models as LP files and checking a solution
against every row."""

from alwabp import Solution, check_solution_against_model, emit_model, parse_instance
from alwabp.export import build_model

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

print("base model, first rows:")
print("\n".join(emit_model(inst, "m2").splitlines()[:10]))
m3 = build_model(inst, "m3")
print(f"\nbase model rows: {len(build_model(inst, 'm2').constraints)}")
print(f"with continuity rows: {len(m3.constraints)}")
print(f"binary variables: {len(m3.binaries)}")

# the known-good line: worker 3 first with tasks 1 and 3, then worker 1
# with 2 and 4, then worker 2 with 5 and 6
sol = Solution(worker_order=(2, 0, 1), assignment=(2, 0, 2, 0, 1, 1), cycle_time=6)
print(f"\nviolations at C=6: {check_solution_against_model(inst, 'm3', sol) or 'none'}")

squeezed = Solution(sol.worker_order, sol.assignment, cycle_time=5)
print("claiming C=5 instead violates:")
for violation in check_solution_against_model(inst, "m2", squeezed):
    print(f"  {violation}")
