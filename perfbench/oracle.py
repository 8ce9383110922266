"""Reference optima for the `exact` corpus, from an independent MILP solver.

The M3 model that `alwabp.export.build_model` describes is handed to HiGHS
through `scipy.optimize.milp`; none of the package's own search or bound
code takes part. The optima are written next to the corpus as JSON, one
entry per instance file (null for an infeasible instance).

Run in its own process, so that scipy's memory never counts toward the
benchmark's peak resident memory:

    python3 perfbench/oracle.py OUT.json INSTANCE...
"""

from __future__ import annotations

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_matrix  # noqa: E402

from alwabp import parse_instance  # noqa: E402
from alwabp.export import M3, build_model  # noqa: E402


def milp_optimum(inst):
    spec = build_model(inst, M3)
    names = ["C", *spec.binaries]
    column = {name: j for j, name in enumerate(names)}
    rows, cols, coefs, lower, upper = [], [], [], [], []
    for i, row in enumerate(spec.constraints):
        for coef, var in row.terms:
            rows.append(i)
            cols.append(column[var])
            coefs.append(coef)
        lower.append(row.rhs if row.sense in (">=", "=") else -np.inf)
        upper.append(row.rhs if row.sense in ("<=", "=") else np.inf)
    matrix = coo_matrix((coefs, (rows, cols)), shape=(len(spec.constraints), len(names)))
    cost = np.zeros(len(names))
    cost[0] = 1.0
    integrality = np.ones(len(names))
    integrality[0] = 0  # C is continuous; it equals the largest station load at the optimum
    upper_var = np.ones(len(names))
    upper_var[0] = np.inf
    res = milp(
        cost,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=integrality,
        bounds=Bounds(np.zeros(len(names)), upper_var),
    )
    if res.status == 2:  # infeasible
        return None
    if res.status != 0:
        raise RuntimeError(f"MILP solver stopped without a proven optimum: {res.message}")
    return int(math.floor(res.fun + 0.5))


def main(argv):
    out, paths = argv[0], argv[1:]
    optima = {}
    for path in paths:
        with open(path, encoding="ascii") as fh:
            optima[os.path.basename(path)] = milp_optimum(parse_instance(fh.read()))
    with open(out, "w", encoding="ascii") as fh:
        json.dump(optima, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
