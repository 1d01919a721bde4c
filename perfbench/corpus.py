"""Task corpora of the four workloads.

Every corpus is a fixed list of task lines built with the program's own
seeded generators -- ``repro.batch.scenarios``, the families behind
``repro batch gen`` -- plus, for ``count``, bounded-treewidth sources
built with ``make_hom_count_task``.  Every family is drawn with
generator seed 3, the seed of the measurements in ROADMAP.md; the
``cq-witness`` family is exactly ``repro batch gen --kind cq-witness
--count 400 --seed 3``, which answers 7 of its 400 tasks with the known
``LinalgError`` ("no perturbation parameter found").

The *contents* of a corpus are fixed; the workload seed chooses the
order in which the tasks arrive.  Per-task costs are heavy-tailed: a
few witness tasks cost 40x the median, so corpora drawn afresh per seed
would differ in total work by tens of percent, and a run would measure
its corpus rather than the code.  With fixed contents every seed runs the same work in a
different order, and task results -- which depend on the task alone --
must come out byte-identical for every seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

GENERATOR_SEED = 3

# (family, tasks, generator knobs) per workload.  Family id prefixes
# (cq-, dn-, uq-, hc-, tw-, pq-, ct-) keep task ids unique per corpus.
_PLANS: Dict[str, List[Tuple[str, int, Dict]]] = {
    "decide": [("cq", 600, {}), ("dense", 400, {})],
    "witness": [("cq-witness", 400, {}), ("ucq", 600, {})],
    "count": [("hom", 1600, {}), ("treewidth", 400, {})],
    "serve": [("path", 250, {}), ("containment", 250, {}),
              ("hom", 250, {}),
              ("cq", 250, {"n_views": 3, "max_components": 1})],
}
# The self-test corpus keeps this many tasks of each family.
_TINY_TASKS = 20


def _treewidth_tasks(count: int, seed: int) -> List[Dict]:
    """Grid and chain sources (bounded treewidth, 6-20 variables) into
    dense 5-8 element targets: the shapes for which the engine's cost
    model picks the tree-decomposition DP kernel."""
    from repro.batch.tasks import make_hom_count_task
    from repro.structures.generators import (
        grid_structure,
        path_structure,
        random_connected_structure,
    )
    from repro.structures.schema import Schema

    rng = random.Random(seed)
    schema = Schema({"R": 2, "S": 2})
    tasks = []
    for index in range(count):
        if rng.random() < 0.5:
            source = grid_structure(rng.randint(2, 3), rng.randint(3, 5),
                                    horizontal="R", vertical="S")
        else:
            source = path_structure([rng.choice(("R", "S"))
                                     for _ in range(rng.randint(6, 14))])
        target = random_connected_structure(
            schema, size=rng.randint(5, 8), extra_density=0.5, rng=rng)
        tasks.append(make_hom_count_task(f"tw-{index:05d}", source, target))
    return tasks


def _family(name: str, count: int, seed: int, knobs: Dict) -> List[Dict]:
    if name == "treewidth":
        return _treewidth_tasks(count, seed)
    from repro.batch.scenarios import generate_scenario

    return generate_scenario(name, count, seed=seed, **knobs)


def canonical_corpus(workload: str, tiny: bool = False) -> List[str]:
    """The workload's task lines in canonical (seed-independent) order."""
    from repro.batch.tasks import canonical_json

    lines = []
    for family, count, knobs in _PLANS[workload]:
        if tiny:
            count = min(count, _TINY_TASKS)
        lines.extend(canonical_json(record) for record
                     in _family(family, count, GENERATOR_SEED, knobs))
    return lines


def arrival_order(size: int, seed: int) -> List[int]:
    """The seed's permutation of corpus positions (arrival order)."""
    order = list(range(size))
    random.Random(seed).shuffle(order)
    return order
