"""MIP model emission in LP text format, plus a constraint evaluator.

The base model assigns tasks to workers (x variables), orders workers
through precedence-linking variables (d) made transitive and antisymmetric,
and minimizes the cycle time C. The extended model adds continuity rows:
a task between two tasks of one worker belongs to that worker, and a pair
with an unexecutable intermediate cannot share the worker.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .instance import INFEASIBLE, AlwabpError, iter_bits

M2 = "m2"
M3 = "m3"

LINE_WIDTH = 80


class LpSyntaxError(AlwabpError):
    pass


@dataclass
class Constraint:
    name: str
    terms: list  # (int coefficient, variable name)
    sense: str  # "<=", ">=" or "="
    rhs: int


@dataclass
class ModelSpec:
    variant: str
    n_tasks: int
    n_workers: int
    x_vars: list = field(default_factory=list)
    d_vars: list = field(default_factory=list)
    constraints: list = field(default_factory=list)

    @property
    def binaries(self):
        return self.x_vars + self.d_vars


def _x(w, t):
    return f"x_{w + 1}_{t + 1}"


def _d(v, w):
    return f"d_{v + 1}_{w + 1}"


def build_model(inst, variant):
    """Assemble the constraint system of the requested variant."""
    if variant not in (M2, M3):
        raise ValueError(f"unknown model variant {variant!r}")
    n, m = inst.n_tasks, inst.n_workers
    spec = ModelSpec(variant, n, m)
    able = [set(inst.feasible_workers[t]) for t in range(n)]

    for w in range(m):
        for t in range(n):
            if w in able[t]:
                spec.x_vars.append(_x(w, t))
    for v in range(m):
        for w in range(m):
            if v != w:
                spec.d_vars.append(_d(v, w))

    add = spec.constraints.append
    for w in range(m):
        terms = [(inst.times[t][w], _x(w, t)) for t in range(n) if w in able[t]]
        terms.append((-1, "C"))
        add(Constraint(f"cyc_{w + 1}", terms, "<=", 0))
    for t in range(n):
        add(Constraint(f"asg_{t + 1}", [(1, _x(w, t)) for w in sorted(able[t])], "=", 1))
    for a, b in sorted(inst.edges):
        for v in sorted(able[a]):
            for w in sorted(able[b]):
                if w == v:
                    continue
                add(Constraint(
                    f"lnk_{a + 1}_{b + 1}_{v + 1}_{w + 1}",
                    [(1, _d(v, w)), (-1, _x(v, a)), (-1, _x(w, b))],
                    ">=", -1,
                ))
    for u in range(m):
        for v in range(m):
            for w in range(m):
                if len({u, v, w}) != 3:
                    continue
                add(Constraint(
                    f"trn_{u + 1}_{v + 1}_{w + 1}",
                    [(1, _d(u, w)), (-1, _d(u, v)), (-1, _d(v, w))],
                    ">=", -1,
                ))
    for v in range(m):
        for w in range(v + 1, m):
            add(Constraint(f"asym_{v + 1}_{w + 1}", [(1, _d(v, w)), (1, _d(w, v))], "<=", 1))

    if variant == M3:
        for i in range(n):
            for j in iter_bits(inst.succ_star[i]):
                for k in iter_bits(inst.succ_star[j]):
                    shared = able[i] & able[j] & able[k]
                    for w in sorted(shared):
                        add(Constraint(
                            f"cont1_{i + 1}_{j + 1}_{k + 1}_{w + 1}",
                            [(1, _x(w, j)), (-1, _x(w, i)), (-1, _x(w, k))],
                            ">=", -1,
                        ))
                    for w in sorted((able[i] & able[k]) - able[j]):
                        add(Constraint(
                            f"cont2_{i + 1}_{j + 1}_{k + 1}_{w + 1}",
                            [(1, _x(w, k)), (1, _x(w, i))],
                            "<=", 1,
                        ))
    return spec


def _render_terms(terms):
    parts = []
    for coef, var in terms:
        if not parts:
            if coef == 1:
                parts.append(var)
            elif coef == -1:
                parts.append(f"- {var}")
            else:
                parts.append(f"{coef} {var}" if coef >= 0 else f"- {-coef} {var}")
            continue
        sign = "+" if coef >= 0 else "-"
        mag = abs(coef)
        parts.append(f"{sign} {var}" if mag == 1 else f"{sign} {mag} {var}")
    return " ".join(parts)


def emit_model(inst, variant):
    """Render the model as LP text. The base-variant constraint block is
    emitted first, so the extended output contains it verbatim."""
    spec = build_model(inst, variant)
    lines = [f"\\ alwabp {variant} {inst.n_tasks} {inst.n_workers}", "Minimize", "obj: C", "Subject To"]
    for c in spec.constraints:
        lines.append(f"{c.name}: {_render_terms(c.terms)} {c.sense} {c.rhs}")
    lines.append("Binaries")
    line = ""
    for name in spec.binaries:
        if not line:
            line = name
        elif len(line) + 1 + len(name) <= LINE_WIDTH:
            line += " " + name
        else:
            lines.append(line)
            line = name
    if line:
        lines.append(line)
    lines.append("End")
    return "\n".join(lines) + "\n"


@dataclass
class Violation:
    name: str
    lhs: int
    sense: str
    rhs: int

    def __str__(self):
        return f"{self.name}: {self.lhs} {self.sense} {self.rhs}"


def check_solution_against_model(inst, variant, sol):
    """Evaluate every constraint of the emitted model on a concrete solution;
    returns the violated rows (empty for a valid solution)."""
    spec = build_model(inst, variant)
    station = {w: s for s, w in enumerate(sol.worker_order)}
    values = {"C": sol.cycle_time}
    for name in spec.x_vars:
        values[name] = 0
    for t, w in enumerate(sol.assignment):
        values[_x(w, t)] = 1
    for v in range(inst.n_workers):
        for w in range(inst.n_workers):
            if v != w:
                values[_d(v, w)] = 1 if station[v] < station[w] else 0

    violations = []
    for c in spec.constraints:
        lhs = sum(coef * values[var] for coef, var in c.terms)
        ok = lhs <= c.rhs if c.sense == "<=" else lhs >= c.rhs if c.sense == ">=" else lhs == c.rhs
        if not ok:
            violations.append(Violation(c.name, lhs, c.sense, c.rhs))
    return violations


_ROW_RE = re.compile(r"^[A-Za-z0-9_]+:(\s+-?\s*\d*\s*[A-Za-z_][A-Za-z0-9_]*|\s+[+-])+\s+(<=|>=|=)\s+-?\d+$")


def tokenize_lp(text):
    """Split LP text into its sections and validate their structure.

    Accepts an optional leading comment block, then Minimize, Subject To,
    optional Bounds, optional Binaries, and a final End. Raises LpSyntaxError
    on imbalance or malformed rows.
    """
    sections = {"comments": [], "objective": [], "constraints": [], "bounds": [], "binaries": []}
    current = None
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            sections["comments"].append(line[1:].strip())
            continue
        if ended:
            raise LpSyntaxError(f"line {lineno}: content after End")
        if line == "Minimize":
            if current is not None:
                raise LpSyntaxError(f"line {lineno}: Minimize must open the model")
            current = "objective"
            continue
        if line == "Subject To":
            if current != "objective":
                raise LpSyntaxError(f"line {lineno}: Subject To before Minimize")
            current = "constraints"
            continue
        if line == "Bounds":
            if current != "constraints":
                raise LpSyntaxError(f"line {lineno}: Bounds out of order")
            current = "bounds"
            continue
        if line == "Binaries":
            if current not in ("constraints", "bounds"):
                raise LpSyntaxError(f"line {lineno}: Binaries out of order")
            current = "binaries"
            continue
        if line == "End":
            if current is None:
                raise LpSyntaxError(f"line {lineno}: End without a model")
            ended = True
            continue
        if current is None:
            raise LpSyntaxError(f"line {lineno}: content before Minimize")
        if current == "constraints" and not _ROW_RE.match(line):
            raise LpSyntaxError(f"line {lineno}: malformed constraint row: {line!r}")
        if current == "binaries":
            sections["binaries"].extend(line.split())
        else:
            sections[current].append(line)
    if not ended:
        raise LpSyntaxError("missing End")
    if not sections["objective"] or not sections["constraints"]:
        raise LpSyntaxError("model must contain an objective and constraints")
    return sections
