"""The interval beam search at work: feasibility probes per candidate cycle
time, with the sweep log showing the incumbent walking down to the bound."""

from alwabp import BeamParams, IpbsParams, beam_search_feasible, ipbs, parse_instance, validate_solution

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

# a single feasibility probe: is there a line with cycle time at most 6?
sol = beam_search_feasible(inst, BeamParams(cycle_time=6, seed=1))
print(f"probe at C=6: {sol}")
print(f"probe at C=5: {beam_search_feasible(inst, BeamParams(cycle_time=5, seed=1))}")

# the full interval search, logging every probe as a tuple (candidate cycle
# time, True if the beam found a line within it, False if not, None if the
# t_max deadline cut it short, milliseconds)
log = []
best = ipbs(inst, IpbsParams(seed=42), log=log)
print("\nsweep log (candidate, outcome, milliseconds):")
for c, feasible, ms in log:
    print(f"  C {c} {'deadline' if feasible is None else 'feasible' if feasible else 'failed'} {ms}")
print(f"\nfinal solution: {best}")
print(f"stations: {[(s + 1, w + 1) for s, w in enumerate(best.worker_order)]}")
print(f"assignment (task -> worker): {[(t + 1, w + 1) for t, w in enumerate(best.assignment)]}")
print(f"independent check: {validate_solution(inst, best) or 'valid'}")
