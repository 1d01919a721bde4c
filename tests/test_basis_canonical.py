"""The canonical-keyed component basis against the pairwise-iso oracle.

:class:`~repro.core.basis.ComponentBasis` and the UCQ disjunct classes
of :mod:`repro.ucq.analysis` identify isomorphism classes by
:func:`~repro.structures.canonical.canonical_key`.  The oracle below is
the construction they replaced: buckets by ``invariant_key`` and a
pairwise ``find_isomorphism`` scan inside each bucket, keeping the
first representative.  On seeded random queries — disconnected bodies
assembled from renamed copies of a few connected pieces, so isomorphic
but unequal components are the rule — both must give the same
components in the same order and the same vectors.  The request paths
must not reach the pairwise test at all.
"""

import cProfile
import pstats
import random

from hypothesis import given, settings, strategies as st

from repro.batch.runner import evaluate_line
from repro.batch.scenarios import generate_scenario
from repro.batch.tasks import canonical_json
from repro.core.basis import ComponentBasis
from repro.queries.cq import Atom, ConjunctiveQuery
from repro.queries.ucq import UnionOfBooleanCQs
from repro.session import SolverSession
from repro.structures.components import connected_components
from repro.structures.generators import random_connected_structure
from repro.structures.isomorphism import find_isomorphism, invariant_key
from repro.structures.schema import Schema
from repro.ucq.analysis import _disjunct_vectors

SCHEMA = Schema({"R": 2, "S": 2, "P": 1, "T": 3})


def _oracle_classes(structures):
    """First-occurrence class index of every structure (pairwise scan)."""
    representatives = []
    buckets = {}
    indices = []
    for structure in structures:
        bucket = buckets.setdefault(invariant_key(structure), [])
        for index in bucket:
            if find_isomorphism(structure, representatives[index]) is not None:
                indices.append(index)
                break
        else:
            bucket.append(len(representatives))
            indices.append(len(representatives))
            representatives.append(structure)
    return representatives, indices


def _pieces(rng):
    return [random_connected_structure(SCHEMA, size=rng.randint(1, 4),
                                       extra_density=0.2, rng=rng)
            for _ in range(rng.randint(1, 5))]


def _random_query(rng, pieces, nullary=False):
    """A disjoint union of freshly renamed copies of random pieces."""
    atoms = []
    for piece in rng.choices(pieces, k=rng.randint(1, 4)):
        constants = sorted(piece.domain(), key=repr)
        images = [f"x{len(atoms)}_{i}" for i in range(len(constants))]
        rng.shuffle(images)
        naming = dict(zip(constants, images))
        atoms.extend(Atom(fact.relation, tuple(naming[t] for t in fact.terms))
                     for fact in piece.facts())
    if nullary and rng.random() < 0.3:
        atoms.append(Atom(rng.choice(("H", "K")), ()))
    return ConjunctiveQuery(atoms)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_component_basis_matches_pairwise_oracle(seed):
    rng = random.Random(seed)
    pieces = _pieces(rng)
    queries = [_random_query(rng, pieces) for _ in range(rng.randint(1, 5))]
    components = [component for query in queries
                  for component in connected_components(query.frozen_body())]
    representatives, _ = _oracle_classes(components)

    basis = ComponentBasis.from_queries(queries)
    assert list(basis.components) == representatives
    for query in queries:
        expected = [0] * len(representatives)
        _, indices = _oracle_classes(
            representatives + connected_components(query.frozen_body()))
        for index in indices[len(representatives):]:
            expected[index] += 1
        assert basis.vector(query) == tuple(expected)
    stranger = _random_query(rng, _pieces(rng))
    for component in connected_components(stranger.frozen_body()):
        matches = [i for i, w in enumerate(representatives)
                   if find_isomorphism(component, w) is not None]
        assert basis.index_of(component) == (matches[0] if matches else None)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_ucq_disjunct_vectors_match_pairwise_oracle(seed):
    rng = random.Random(seed)
    pieces = _pieces(rng)
    ucqs = [UnionOfBooleanCQs([_random_query(rng, pieces, nullary=True)
                               for _ in range(rng.randint(1, 3))])
            for _ in range(rng.randint(1, 5))]
    bodies = [d.frozen_body() for ucq in ucqs for d in ucq.disjuncts]
    representatives, indices = _oracle_classes(bodies)
    expected = []
    cursor = iter(indices)
    for ucq in ucqs:
        counts = [0] * len(representatives)
        for _ in ucq.disjuncts:
            counts[next(cursor)] += 1
        expected.append(tuple(counts))
    assert _disjunct_vectors(ucqs) == expected


def test_request_paths_never_run_the_pairwise_test():
    lines = [canonical_json(task) for task in
             generate_scenario("mixed", 30, seed=5)
             + generate_scenario("cq-witness", 8, seed=3)]
    session = SolverSession()
    profile = cProfile.Profile()
    results = profile.runcall(
        lambda: [evaluate_line(line, session) for line in lines])
    assert all('"ok":true' in result for result in results)
    called = {name for (_, _, name) in pstats.Stats(profile).stats}
    assert "find_isomorphism" not in called
    assert "invariant_key" not in called
