"""Command-line front end: solve, heur, bounds, export, gen, oracle."""

from __future__ import annotations

import argparse
import functools
import glob as globmod
import json
import math
import sys

from . import bnb, bounds, export, heuristic
from .instance import (
    INFEASIBLE,
    AlwabpError,
    InfeasibleInstanceError,
    generate_instance,
    parse_instance,
    write_instance,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _ranged(kind, accepts, requirement):
    """An argparse type: `kind` of the text, refused as a usage error unless
    `accepts` holds for it."""

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    return parse


_COUNT = _ranged(int, lambda v: v >= 1, "at least 1")
_SEED = _ranged(int, lambda v: v >= 0, "at least 0")
# nan is refused too: no deadline comparison with it is ever true
_SECONDS = _ranged(float, lambda v: v >= 0, "at least 0")
_OPEN_FRACTION = _ranged(float, lambda v: 0 < v < 1, "in (0, 1)")
_FRACTION = _ranged(float, lambda v: 0 <= v < 1, "in [0, 1)")

# flags that only some subcommands read, added by name
_FLAGS = {
    "--seed": {"type": _SEED, "default": 42},
    "--time-limit": {"type": _SECONDS, "default": None, "help": "seconds"},
    "--verbose": {"action": "store_true"},
    "--no-timings": {"action": "store_true", "help": "omit timing fields from the report"},
}


@functools.cache
def _build_parser():
    # built once per process: parse_args keeps no state between calls
    parser = _Parser(prog="alwabp", description="Assembly line worker assignment and balancing solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        p.add_argument("instance", nargs="?", help="instance file in the canonical format")
        p.add_argument("--glob", dest="glob_pattern", help="process every file matching the pattern")
        p.add_argument("--json", action="store_true", dest="as_json")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])

    def heuristic_flags(p):
        p.add_argument("--gamma", type=_COUNT, default=heuristic.DEFAULT_GAMMA, help="beam width")
        p.add_argument("--beam-factor", type=_COUNT, default=heuristic.DEFAULT_BEAM_FACTOR)
        p.add_argument("--interval-factor", type=_OPEN_FRACTION, default=heuristic.DEFAULT_INTERVAL_FACTOR)
        p.add_argument("--t-min", type=_SECONDS, default=heuristic.DEFAULT_T_MIN)
        p.add_argument("--t-max", type=_SECONDS, default=heuristic.DEFAULT_T_MAX)
        p.add_argument("--repetitions", type=_COUNT, default=heuristic.DEFAULT_REPETITIONS)

    def bound_flags(p):
        p.add_argument("--l1-iters", type=_COUNT, default=bounds.DEFAULT_L1_ITERS)
        p.add_argument("--l2-iters", type=_COUNT, default=bounds.DEFAULT_L2_ITERS)

    p = sub.add_parser("solve", help="branch-and-bound to optimality")
    common(p, "--seed", "--time-limit", "--no-timings")
    bound_flags(p)
    p.add_argument("--no-heuristic", action="store_true", help="skip the heuristic incumbent")
    p.add_argument("--no-reduction-rules", action="store_true")

    p = sub.add_parser("heur", help="interval beam search only")
    common(p, "--seed", "--time-limit", "--verbose", "--no-timings")
    heuristic_flags(p)

    p = sub.add_parser("bounds", help="lower bounds only")
    common(p, "--no-timings")
    bound_flags(p)

    p = sub.add_parser("export", help="emit a MIP model in LP format")
    common(p)
    p.add_argument("--model", choices=(export.M2, export.M3), default=export.M3)
    p.add_argument("-o", "--output", help="output path (default: stdout)")

    p = sub.add_parser("gen", help="generate an instance from a base instance")
    common(p, "--seed")
    p.add_argument("--workers", type=_COUNT, required=True)
    p.add_argument("--var", choices=("low", "high"), default="low")
    p.add_argument("--inf", type=_FRACTION, default=0.0, dest="infeasibility")
    p.add_argument("-o", "--output", help="output path (default: stdout)")

    p = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    common(p)
    return parser


def _config_dict(args):
    skip = {"command", "instance", "glob_pattern"}
    config = {"command": args.command}
    for key, value in sorted(vars(args).items()):
        if key not in skip:
            config[key] = value
    return config


def _instance_paths(args):
    if args.glob_pattern is not None:
        if args.instance is not None:
            raise _UsageError("give either an instance path or --glob, not both")
        paths = sorted(globmod.glob(args.glob_pattern))
        if not paths:
            raise AlwabpError(f"no files match {args.glob_pattern!r}")
        return paths
    if args.instance is None:
        raise _UsageError("an instance path (or --glob) is required")
    return [args.instance]


def _read_instance(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise AlwabpError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise AlwabpError(f"cannot read {path}: non-ASCII byte at offset {exc.start}") from None
    return parse_instance(text)


def _bounds_block(report, no_timings):
    block = []
    for entry in report.entries:
        item = {"name": entry.name, "value": entry.value}
        if not no_timings:
            item["elapsed_s"] = round(entry.elapsed_s, 6)
        block.append(item)
    return block


def _solution_block(sol):
    if sol is None:
        return None
    return {
        "worker_order": [w + 1 for w in sol.worker_order],
        "assignment": {str(t + 1): w + 1 for t, w in enumerate(sol.assignment)},
    }


def _render_text(report, out):
    for key, value in report["config"].items():
        out.append(f"{key} {_fmt(value)}")
    out.append(f"tasks {report['instance']['tasks']}")
    out.append(f"workers {report['instance']['workers']}")
    if "wrote" in report:
        out.append(f"wrote {report['wrote']}")
    for entry in report.get("bounds", []):
        out.append(f"{entry['name']} {entry['value']}")
        if "elapsed_s" in entry:
            out.append(f"{entry['name']}_elapsed_s {entry['elapsed_s']}")
    if "best_bound" in report:
        out.append(f"best_bound {report['best_bound']}")
    result = report.get("result")
    if result:
        for key, value in result.items():
            out.append(f"{key} {_fmt(value)}")
    sol = report.get("solution")
    if sol:
        order = sol["worker_order"]
        by_worker = {}
        for t, w in sol["assignment"].items():
            by_worker.setdefault(w, []).append(int(t))
        for s, w in enumerate(order, start=1):
            tasks = " ".join(str(t) for t in sorted(by_worker.get(w, [])))
            out.append(f"station {s} worker {w} tasks {tasks}".rstrip())


def _fmt(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return str(value)


def _base_report(args, path, inst):
    config = _config_dict(args)
    config["instance"] = path
    return {
        "config": config,
        "instance": {"tasks": inst.n_tasks, "workers": inst.n_workers},
    }


def _run_solve(args, path, out):
    inst = _read_instance(path)
    report = _base_report(args, path, inst)
    config = bnb.BnbConfig(
        time_limit=args.time_limit,
        seed=args.seed,
        heuristic_on=not args.no_heuristic,
        reduction_rules=not args.no_reduction_rules,
        l1_iters=args.l1_iters,
        l2_iters=args.l2_iters,
    )
    result = bnb.branch_and_bound(inst, config)
    report["bounds"] = _bounds_block(result.root_bounds, args.no_timings)
    report["best_bound"] = result.root_bounds.best
    report["result"] = {"value": result.value, "status": result.status, "nodes": result.nodes}
    if not args.no_timings:
        report["result"]["elapsed_s"] = round(result.elapsed_s, 6)
    report["solution"] = _solution_block(result.solution)
    _emit(args, report, out)
    return EXIT_INFEASIBLE if result.status == bnb.INFEASIBLE_STATUS else EXIT_OK


def _sweep_line(entry, no_timings):
    c, feasible, ms = entry
    line = f"C {c} {'deadline' if feasible is None else 'feasible' if feasible else 'failed'}"
    return line if no_timings else f"{line} {ms}"


def _run_heur(args, path, out):
    inst = _read_instance(path)
    report = _base_report(args, path, inst)
    t_max = args.t_max if args.time_limit is None else min(args.t_max, args.time_limit)
    params = heuristic.IpbsParams(
        gamma=args.gamma,
        beam_factor=args.beam_factor,
        interval_factor=args.interval_factor,
        t_min=min(args.t_min, t_max),
        t_max=t_max,
        repetitions=args.repetitions,
        seed=args.seed,
    )
    log = [] if args.verbose else None
    try:
        sol = heuristic.ipbs(inst, params, log=log)
    except InfeasibleInstanceError:
        report["result"] = {"value": None, "status": "infeasible"}
        report["solution"] = None
        _emit(args, report, out)
        return EXIT_INFEASIBLE
    if log:
        sweeps = [_sweep_line(entry, args.no_timings) for entry in log]
        report["sweeps"] = sweeps
        out.extend(sweeps)
    report["result"] = {"value": sol.cycle_time, "status": "feasible"}
    report["solution"] = _solution_block(sol)
    _emit(args, report, out)
    return EXIT_OK


def _run_bounds(args, path, out):
    inst = _read_instance(path)
    report = _base_report(args, path, inst)
    result = bounds.all_bounds(inst, bounds.ALL_BOUNDS, args.l1_iters, args.l2_iters)
    report["bounds"] = _bounds_block(result, args.no_timings)
    report["best_bound"] = result.best
    _emit(args, report, out)
    return EXIT_OK


def _write_text(args, path, inst, text, out):
    """Write text to the -o file and report it, or append it to stdout."""
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        report = _base_report(args, path, inst)
        report["wrote"] = args.output
        _emit(args, report, out)
    else:
        out.append(text.rstrip("\n"))
    return EXIT_OK


def _run_export(args, path, out):
    inst = _read_instance(path)
    return _write_text(args, path, inst, export.emit_model(inst, args.model), out)


def _run_gen(args, path, out):
    base = _read_instance(path)
    base_times = [base.times[t][0] for t in range(base.n_tasks)]
    if any(p == INFEASIBLE for p in base_times):
        raise AlwabpError("worker 1 of the base instance must be able to execute every task")
    inst = generate_instance(base_times, base.edges, args.workers, args.var, args.infeasibility, args.seed)
    return _write_text(args, path, inst, write_instance(inst), out)


def _run_oracle(args, path, out):
    inst = _read_instance(path)
    report = _base_report(args, path, inst)
    value = bnb.brute_force_optimal(inst)
    if value == INFEASIBLE:
        report["result"] = {"value": None, "status": "infeasible"}
        _emit(args, report, out)
        return EXIT_INFEASIBLE
    report["result"] = {"value": value, "status": "optimal"}
    _emit(args, report, out)
    return EXIT_OK


def _emit(args, report, out):
    if args.as_json:
        out.append(json.dumps(report, indent=2))
    else:
        _render_text(report, out)


_HANDLERS = {
    "solve": _run_solve,
    "heur": _run_heur,
    "bounds": _run_bounds,
    "export": _run_export,
    "gen": _run_gen,
    "oracle": _run_oracle,
}


def run(argv):
    """Execute one subcommand; returns (exit code, report text)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    paths = _instance_paths(args)
    out = []
    code = EXIT_OK
    for i, path in enumerate(paths):
        if len(paths) > 1 and i:
            out.append("")
        if len(paths) > 1:
            out.append(f"file {path}")
        code = max(code, _HANDLERS[args.command](args, path, out))
    return code, "\n".join(out) + ("\n" if out else "")


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        code, text = run(argv)
    except (_UsageError, AlwabpError) as exc:
        print(f"alwabp: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(text)
    return code


def console_main():
    raise SystemExit(main())
