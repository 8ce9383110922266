"""Seeded instance corpora.

A corpus is a list of instance families, each generated `reps` times with
`alwabp.generate_instance`. Base times and precedence arcs are drawn the
same way the test suite draws them: base times uniform in 1..base_max, and
each arc (i, j) with i < j present with probability `density`. Every
instance gets its own generator seed, derived from the corpus seed, the
family and the replicate, so one corpus seed always gives the same files.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from alwabp import generate_instance, write_instance


def generate(families, reps, seed):
    """Instances of the corpus in a fixed order: replicate-major, so every
    prefix of the corpus holds each family about equally often."""
    items = []
    for rep in range(reps):
        for index, family in enumerate(families):
            inst_seed = int(np.random.SeedSequence([seed, index, rep]).generate_state(1)[0])
            rng = np.random.Generator(np.random.PCG64(inst_seed))
            n = family.n_tasks
            base = [int(rng.integers(1, family.base_max + 1)) for _ in range(n)]
            edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < family.density}
            inst = generate_instance(base, edges, family.n_workers, family.variability, family.infeasibility, inst_seed)
            items.append((f"{len(items):03d}_{family.label}.alwabp", inst))
    return items


def write(items, directory):
    """Write the instance files; returns their paths and a digest of names
    and contents, so that results from different corpora are never mixed."""
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256()
    paths = []
    for name, inst in items:
        text = write_instance(inst)
        path = os.path.join(directory, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        digest.update(name.encode())
        digest.update(text.encode())
        paths.append(path)
    return paths, digest.hexdigest()
