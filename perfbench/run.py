"""Benchmark of the alwabp solver commands, end to end and layer by layer.

    python3 perfbench/run.py --workload exact|heur|bounds --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout; the package is imported from `src/`.
The corpus is generated from `--seed` and written under `.perfbench/`;
the program only sees those instance files. Ops run one at a time in a
closed loop from this process, through `alwabp.cli.run(argv)` with
`--json`, in passes over the whole corpus.

With `--trace 0` the run makes full passes while the next one would end
within `--seconds`, at least one, then repeats ops from the start of the
corpus until the time is up (at least one), and reports the end-to-end
metrics. With
`--trace 1` it makes one untraced pass and two traced ones, reports the
per-layer metrics and the tracing overhead against the untraced pass, and
writes the spans to `.perfbench/trace-<workload>-<seed>.jsonl`.

Every op's output is checked (see checks.py), and every repeated op must
give the output of its first run exactly; a failed check or a mismatch
counts as a failed op.
Report lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
REFERENCE_S = 3.0e-3  # nominal time of reference_loop(); see there
ORACLE_TIMEOUT_S = 150
ORACLE_PROCESSES = 2  # the oracle runs before the passes, so it may use both CPUs

# End-to-end metrics in the result line (trace 0), name -> unit; they are
# the end_to_end entries of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "bound_sum": "time_units",
    "peak_rss_mb": "MB",
}
# Printed as report lines only: fail_frac is 0 whenever the run is correct
# and gap_pct is 0 on exact and undefined on bounds, so neither can be a
# share of a median. The result line carries the failures as `failed`.
REPORTED_ONLY = {"fail_frac": "ratio", "gap_pct": "%"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the alwabp solver commands.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="corpus seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one instance per family of the self-test corpus")
    return parser.parse_args(argv)


def reference_loop():
    """Seconds taken by a fixed pure-Python loop. A shared CPU changes speed
    by up to half within seconds (on the 2-vCPU 2.0 GHz Xeon the benchmark
    was tuned on, this loop took 2.8-4.2 ms and one op 90-180 ms, with CPU
    time equal to wall time), so the loop runs between ops and every time
    is scaled by its median over the same pass or set-up."""
    t0 = time.perf_counter()
    s = 0
    for i in range(40_000):
        s += i * i % 7
    return time.perf_counter() - t0


def scaled(raw, refs):
    """`raw` seconds at the speed where the reference loop takes REFERENCE_S,
    given the reference loop times measured while `raw` elapsed."""
    return raw * REFERENCE_S / statistics.median(refs)


@dataclass
class Pass:
    raw: list = field(default_factory=list)  # op times as measured
    refs: list = field(default_factory=list)  # reference loop before the first op and after each op
    outputs: list = field(default_factory=list)  # (exit code, report text) per op
    elapsed: float = 0.0  # wall time of the whole pass, reference loops included

    @property
    def times(self):
        """Op times scaled by the median reference loop time of the pass."""
        return [scaled(t, self.refs) for t in self.raw]


def run_pass(cli, command, paths, tracer=None, pass_no=0, deadline=None):
    """One op per instance in corpus order; with a deadline, stop at the
    first op that would start after it (but run at least one)."""
    start = time.perf_counter()
    result = Pass(refs=[reference_loop()])
    for i, path in enumerate(paths):
        if deadline is not None and i and time.perf_counter() >= deadline:
            break
        argv = [command[0], path, *command[1:], "--json"]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = cli.run(argv)
            else:
                tracer.op = (pass_no, i)
                with tracer.span("cli.run"):
                    out = cli.run(argv)
        except Exception as exc:  # one failing op must not end the run; it is counted below
            out = (None, f"{type(exc).__name__}: {exc}")
        result.raw.append(time.perf_counter() - t0)
        result.outputs.append(out)
        result.refs.append(reference_loop())
    result.elapsed = time.perf_counter() - start
    return result


def _strip_timings(value):
    if isinstance(value, dict):
        return {k: _strip_timings(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def canonical(output):
    """An op's outcome without its timing fields, for pass-to-pass comparison."""
    code, text = output
    try:
        return code, json.dumps(_strip_timings(json.loads(text)), sort_keys=True)
    except ValueError:
        return code, text


def tail(times):
    """The highest percentile with at least ten samples beyond it, and
    which percentile that is (the maximum when there are too few samples)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, SRC)
    try:
        import alwabp.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the alwabp package from {SRC}: {exc}", file=sys.stderr)
        return 2

    work = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, work):
    import numpy as np
    from alwabp import cli

    import corpus
    import tracing

    def emit(line):
        print(line, flush=True)

    emit(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds:g}"
         f" op: alwabp {' '.join(workload.command)} INSTANCE --json")
    emit(f"env python {platform.python_version()} numpy {np.__version__}"
         f" nproc {len(os.sched_getaffinity(0))} platform {platform.machine()}")
    families = workload.tiny if args.tiny else workload.families
    reps = 1 if args.tiny else workload.reps

    # Set-up: a fresh interpreter importing the package, the corpus
    # generated and written, each several times (medians), and one warm-up
    # op on a small instance.
    import_s, build_s, digests, refs = [], [], set(), [reference_loop()]
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import alwabp.cli"],
                       check=True, timeout=60)
        import_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        items = corpus.generate(families, reps, args.seed)
        paths, digest = corpus.write(items, os.path.join(work, f"corpus{rep}"))
        build_s.append(time.perf_counter() - t0)
        digests.add(digest)
        refs.append(reference_loop())
    if len(digests) != 1:
        raise RuntimeError("the corpus generator gave different files for one seed")
    # the warm-up instance is the same for every seed: it is not measured
    warm = corpus.write(corpus.generate(workload.tiny[:1], 1, 0), os.path.join(work, "warmup"))[0]
    t0 = time.perf_counter()
    run_pass(cli, workload.command, warm)
    warmup_s = time.perf_counter() - t0
    refs.append(reference_loop())
    setup_raw = statistics.median(import_s) + statistics.median(build_s) + warmup_s
    setup_s = scaled(setup_raw, refs)
    labels = sorted({f.label for f in families})
    emit(f"corpus {len(paths)} instances sha256 {digest} families {' '.join(labels)}")
    emit(f"setup import {_fmt_list(import_s)} s corpus {_fmt_list(build_s)} s warmup {warmup_s:.4f} s"
         f" reference {_fmt_list(refs)} s")
    insts = [inst for _, inst in items]

    optima = [None] * len(paths)
    if workload.command[0] == "solve":
        t0 = time.perf_counter()
        optima = reference_optima(paths, work)
        emit(f"oracle {len(optima)} MILP optima in {time.perf_counter() - t0:.2f} s (not timed)")

    # Measurement.
    tracer = None
    start = time.perf_counter()
    passes = [run_pass(cli, workload.command, paths)]
    if args.trace:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            for pass_no in (1, 2):
                passes.append(run_pass(cli, workload.command, paths, tracer, pass_no))
        finally:
            restore()
    else:
        deadline = start + args.seconds
        while time.perf_counter() + passes[0].elapsed <= deadline:
            passes.append(run_pass(cli, workload.command, paths))
        # the rest of the window repeats ops from the start (at least one)
        passes.append(run_pass(cli, workload.command, paths, deadline=deadline))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for k, p in enumerate(passes):
        emit(f"pass {k}{' traced' if tracer and k else ''}: {len(p.raw)} ops {sum(p.raw):.4f} s,"
             f" scaled {sum(p.times):.4f} s, reference loop median {statistics.median(p.refs) * 1e3:.3f} ms")

    # Checks: the first pass against the references, every later pass
    # against the first. Identical outputs are checked once.
    reference_bound = {}
    problems = {}  # (pass, op) -> list of problems
    verdicts = {}
    first = [canonical(o) for o in passes[0].outputs]
    for i, (code, text) in enumerate(passes[0].outputs):
        if first[i] not in verdicts:
            verdicts[first[i]] = check_op(workload, insts[i], code, text, optima[i], reference_bound, i)
        if verdicts[first[i]]:
            problems[(0, i)] = verdicts[first[i]]
    for k, p in enumerate(passes[1:], start=1):
        for i, output in enumerate(p.outputs):
            if canonical(output) != first[i]:
                problems[(k, i)] = ["output differs from pass 0 (a clock budget fired?)"]
    if tracer is not None:
        counts = tracing.op_counts(tracer.spans)
        for i in range(len(paths)):
            if counts.get((1, i)) != counts.get((2, i)):
                problems.setdefault((2, i), []).append(
                    f"work counts differ between traced passes: {counts.get((1, i))} vs {counts.get((2, i))}")

    attempted = sum(len(p.raw) for p in passes)
    failed = len(problems)
    for (k, i), found in sorted(problems.items()):
        emit(f"FAILED pass {k} op {i} {os.path.basename(paths[i])}: {'; '.join(found)}")
    repeated = attempted - len(paths)
    emit(f"checks {attempted} ops, {failed} failed; {repeated} repeated ops agree with pass 0:"
         f" {not any(k for k, _ in problems)}")

    reports = [_report(text) for _, text in passes[0].outputs]
    best = [reference_bound.get(i, 0) if workload.command[0] == "heur" else (r or {}).get("best_bound", 0)
            for i, r in enumerate(reports)]
    if tracer is not None:
        nodes = sum((_report(text) or {}).get("result", {}).get("nodes", 0) for p in passes[1:] for _, text in p.outputs)
        walls = [sum(p.times) for p in passes]
        overhead = 100.0 * (statistics.median(walls[1:]) / walls[0] - 1.0)
        metrics = tracing.layer_metrics(tracer.spans, len(passes) - 1, len(paths), nodes, best, overhead)
        units = tracing.LAYER_METRICS
        spans_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans_path)
        emit(f"spans {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
        for name, value in metrics.items():
            emit(f"metric {name} {value:.6g} {units[name]}")
    else:
        # One time per instance (its median over the passes that ran it), so
        # that the pass time uses every op run and the percentiles do not
        # depend on how many passes fit the window.
        times = [p.times for p in passes]
        per_instance = [statistics.median(t[i] for t in times if i < len(t)) for i in range(len(paths))]
        tail_s, tail_pct = tail(per_instance)
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(per_instance),
            "op_p50_s": statistics.median(per_instance),
            "op_tail_s": tail_s,
            "bound_sum": float(sum(best)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        notes = {"op_tail_s": f" (p{tail_pct:.1f} of {len(per_instance)} instance times)"}
        for name, value in metrics.items():
            emit(f"metric {name} {value:.6g} {units[name]}{notes.get(name, '')}")
        emit(f"metric fail_frac {failed / attempted:.6g} {REPORTED_ONLY['fail_frac']}")
        gap = gap_pct(workload, reports, best)
        if gap is None:
            emit(f"metric gap_pct n/a {REPORTED_ONLY['gap_pct']} (the bounds command reports no solution)")
        else:
            emit(f"metric gap_pct {gap:.6g} {REPORTED_ONLY['gap_pct']}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def _fmt_list(values):
    return " ".join(f"{v:.4f}" for v in values)


def _report(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def reference_optima(paths, work):
    """MILP optima of the instances, from ORACLE_PROCESSES oracle.py
    processes that each take every ORACLE_PROCESSES-th instance."""
    procs = []
    try:
        for k in range(ORACLE_PROCESSES):
            out = os.path.join(work, f"optima{k}.json")
            argv = [sys.executable, os.path.join(HERE, "oracle.py"), out, *paths[k::ORACLE_PROCESSES]]
            procs.append((subprocess.Popen(argv, stdout=subprocess.DEVNULL), out))
        by_name = {}
        for proc, out in procs:
            if proc.wait(timeout=ORACLE_TIMEOUT_S) != 0:
                raise RuntimeError(f"oracle.py exited with code {proc.returncode}")
            with open(out, encoding="ascii") as fh:
                by_name.update(json.load(fh))
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return [by_name[os.path.basename(p)] for p in paths]


def check_op(workload, inst, code, text, optimum, reference_bound, i):
    """Problems with one op's output; an empty list when it is correct.
    On heur, records the best lower bound of instance i in `reference_bound`."""
    from alwabp import bounds, cli, heuristic

    import checks

    command = workload.command[0]
    if command == "solve" and optimum is None:  # the MILP proved the instance infeasible
        status = ((_report(text) or {}).get("result") or {}).get("status")
        ok = code == cli.EXIT_INFEASIBLE and status == "infeasible"
        return [] if ok else [f"exit code {code}, status {status}; the instance is infeasible"]
    if code != cli.EXIT_OK:
        return [f"exit code {code}: {text.strip()[:200]}"]
    try:
        report = json.loads(text)
        if command == "bounds":
            start = heuristic.initial_upper_bound(inst)
            upper = math.inf if start is heuristic.FAILED else heuristic.local_search(inst, start).cycle_time
            return checks.check_bounds(report, upper)
        if command == "heur":
            # the native bounds dominate the other three, so their best is the best of all eight
            reference_bound[i] = bounds.all_bounds(inst).best
            return checks.check_solution(inst, report, reference_bound[i])
        return checks.check_solution(inst, report, report["best_bound"], optimum)
    except Exception as exc:  # a malformed report is a failed op, not a crash
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


def gap_pct(workload, reports, best):
    """Mean of 100 (value - best bound) / best bound; on exact the best
    bound of an op that proved optimality is its value."""
    if workload.command[0] == "bounds":
        return None
    gaps = []
    for report, lb in zip(reports, best):
        result = (report or {}).get("result") or {}
        value = result.get("value")
        if value is None or not lb:
            continue
        if result.get("status") == "optimal":
            lb = value
        gaps.append(100.0 * (value - lb) / lb)
    return statistics.fmean(gaps) if gaps else float("nan")


if __name__ == "__main__":
    raise SystemExit(main())
