"""UCQ determinacy tools around the undecidable Theorem 2 territory.

Bag-determinacy of boolean UCQs is undecidable, so no complete decider
exists.  This module ships the two useful *semi*-procedures:

* **Refutation** — :func:`search_reduction_counterexample` exhausts the
  profile box of an Appendix-A reduction (equivalently: brute-forces
  the Diophantine instance, Lemma 63) and materializes a concrete
  structure pair when a solution exists;
  :func:`counterexample_from_solution` is the constructive ⇐ direction
  of Lemma 63.
* **Certification** — :func:`linear_certificate` finds coefficients
  ``λ`` with ``q(D) = Σ_j λ_j v_j(D)`` *identically*, by linear algebra
  over the isomorphism classes of disjuncts (two boolean CQs answer
  identically on every database iff their frozen bodies are isomorphic
  — Lemma 43).  This is the "q = v2 − v1" pattern of Example 3.  It is
  sound but *not* complete: failure proves nothing (Theorem 2 says it
  cannot be complete).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DecisionError
from repro.linalg.span import span_coefficients
from repro.queries.evaluation import evaluate_boolean
from repro.queries.ucq import UnionOfBooleanCQs
from repro.structures.canonical import canonical_key
from repro.structures.structure import Structure
from repro.ucq.hilbert import iter_solutions
from repro.ucq.profiles import Profile, view_profile_answers
from repro.ucq.reduction import HilbertReduction


# ----------------------------------------------------------------------
# Refutation via the reduction (Lemma 63)
# ----------------------------------------------------------------------
@dataclass
class ReductionCounterexample:
    """A verified pair refuting determinacy of a reduction instance."""

    solution: Dict[str, int]
    left_profile: Profile
    right_profile: Profile
    left: Structure
    right: Structure
    view_answers: Tuple[Tuple[int, int], ...]
    query_answers: Tuple[int, int]

    @property
    def ok(self) -> bool:
        views_agree = all(a == b for a, b in self.view_answers)
        return views_agree and self.query_answers[0] != self.query_answers[1]


def counterexample_from_solution(
    reduction: HilbertReduction, solution: Dict[str, int]
) -> ReductionCounterexample:
    """Lemma 63 (⇐): a Diophantine solution gives structures ``D, D'``
    with all views equal and ``q = H`` flipped."""
    if not reduction.instance.is_solution(solution):
        raise DecisionError(f"{solution!r} does not solve {reduction.instance}")
    left_profile = Profile(1, 0, solution)
    right_profile = Profile(0, 1, solution)
    left = left_profile.to_structure(reduction)
    right = right_profile.to_structure(reduction)
    view_answers = tuple(
        (evaluate_boolean(view, left), evaluate_boolean(view, right))
        for view in reduction.views()
    )
    query_answers = (
        evaluate_boolean(reduction.query, left),
        evaluate_boolean(reduction.query, right),
    )
    return ReductionCounterexample(
        solution=dict(solution),
        left_profile=left_profile,
        right_profile=right_profile,
        left=left,
        right=right,
        view_answers=view_answers,
        query_answers=query_answers,
    )


def search_reduction_counterexample(
    reduction: HilbertReduction, max_value: int
) -> Optional[ReductionCounterexample]:
    """Exhaust the bounded profile box.  By Lemma 62, any view-agreeing
    distinct pair has swapped flags and equal unknowns, so searching
    solutions of the instance is complete over the box."""
    for solution in iter_solutions(reduction.instance, max_value):
        candidate = counterexample_from_solution(reduction, solution)
        if candidate.ok:
            return candidate
    return None


def profile_pair_agrees(
    reduction: HilbertReduction, left: Profile, right: Profile
) -> bool:
    """Do all views answer identically on the two profiles?"""
    return view_profile_answers(reduction, left) == view_profile_answers(
        reduction, right
    )


def semidecide_reduction_determinacy(
    reduction: HilbertReduction, max_value: int
) -> Tuple[str, Optional[ReductionCounterexample]]:
    """``("not-determined", witness)`` when a bounded counterexample
    exists, ``("unknown", None)`` otherwise (Theorem 2: cannot do
    better in general)."""
    witness = search_reduction_counterexample(reduction, max_value)
    if witness is not None:
        return "not-determined", witness
    return "unknown", None


# ----------------------------------------------------------------------
# Certification: identical linear combinations (Example 3 pattern)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinearUCQRewriting:
    """``q(D) = Σ_j λ_j · v_j(D)`` — an identity over all databases."""

    query: UnionOfBooleanCQs
    views: Tuple[UnionOfBooleanCQs, ...]
    coefficients: Tuple[Fraction, ...]

    def evaluate(self, view_answers: Sequence[int]) -> int:
        if len(view_answers) != len(self.views):
            raise DecisionError(
                f"expected {len(self.views)} view answers, got {len(view_answers)}"
            )
        value = sum(
            (coefficient * answer
             for coefficient, answer in zip(self.coefficients, view_answers)),
            Fraction(0),
        )
        if value.denominator != 1 or value < 0:
            raise DecisionError(
                f"linear rewriting produced {value}; inconsistent view answers"
            )
        return value.numerator

    def answer_on(self, database: Structure) -> int:
        return self.evaluate([evaluate_boolean(v, database) for v in self.views])

    def explain(self) -> str:
        terms = [
            f"({coefficient})·V{j}"
            for j, coefficient in enumerate(self.coefficients)
            if coefficient != 0
        ]
        return "q(D) = " + (" + ".join(terms) if terms else "0")


def _disjunct_vectors(
    queries: Sequence[UnionOfBooleanCQs],
) -> List[Tuple[int, ...]]:
    """Vector of disjunct iso-class multiplicities for each UCQ.

    Frozen bodies are compared up to isomorphism (Lemma 43 makes this
    exactly the right equivalence for counting); a class is keyed by
    its canonical byte key and indexed in order of first occurrence.
    """
    classes: Dict[bytes, int] = {}
    raw: List[List[int]] = []
    for query in queries:
        counts: Dict[int, int] = {}
        for disjunct in query.disjuncts:
            index = classes.setdefault(canonical_key(disjunct.frozen_body()),
                                       len(classes))
            counts[index] = counts.get(index, 0) + 1
        raw.append(counts)

    dimension = len(classes)
    vectors = []
    for counts in raw:
        vectors.append(tuple(counts.get(i, 0) for i in range(dimension)))
    return vectors


def linear_certificate(
    views: Sequence[UnionOfBooleanCQs],
    query: UnionOfBooleanCQs,
) -> Optional[LinearUCQRewriting]:
    """Try to express ``q`` as a rational linear combination of the
    views *as functions of the database*.

    Sound for determinacy (an identity is the strongest possible
    functional dependence); incomplete by Theorem 2.

    >>> from repro.queries.parser import parse_ucq
    >>> v1 = parse_ucq("P(x)")
    >>> v2 = parse_ucq("P(x) or R(x)")
    >>> q = parse_ucq("R(x)")
    >>> cert = linear_certificate([v1, v2], q)
    >>> cert.coefficients
    (Fraction(-1, 1), Fraction(1, 1))
    """
    vectors = _disjunct_vectors(list(views) + [query])
    view_vectors, query_vector = vectors[:-1], vectors[-1]
    coefficients = span_coefficients(view_vectors, query_vector)
    if coefficients is None:
        return None
    return LinearUCQRewriting(
        query=query,
        views=tuple(views),
        coefficients=tuple(coefficients),
    )
