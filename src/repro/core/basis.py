"""The component basis ``W`` and vector representations (Defs. 27–29).

Given the relevant views ``V`` and query ``q``, the paper collects the
connected components of all queries in ``V' = V ∪ {q}`` up to
isomorphism into ``W = {w_1, ..., w_k}`` and represents every query as
the vector of its component multiplicities: ``v = Σ_i a_i·w_i`` gives
``v⃗ = (a_1, ..., a_k)`` (Observation 28; the representation is unique
because components are deduplicated up to isomorphism).  Isomorphism
classes are keyed by the canonical byte key of
:mod:`repro.structures.canonical`; the pairwise
:func:`~repro.structures.isomorphism.find_isomorphism` test is its
test oracle.

Observation 30 then evaluates queries from basis counts::

    v(D) = Π_i  w_i(D) ^ v⃗(i)

with the paper's convention ``0^0 = 1``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import DecisionError, UnsupportedQueryError
from repro.queries.cq import ConjunctiveQuery
from repro.structures.canonical import canonical_key
from repro.structures.components import connected_components
from repro.structures.structure import Structure


class ComponentBasis:
    """The ordered basis ``W`` of connected components.

    Representatives are concrete structures (frozen query components);
    their order is fixed at construction, so vectors are comparable.
    Components are identified by :func:`canonical_key` — equal keys
    exactly when isomorphic — so deduplication and :meth:`index_of`
    are dict operations, with no pairwise isomorphism test.
    """

    __slots__ = ("components", "_index")

    def __init__(self, components: Sequence[Structure]):
        self.components: Tuple[Structure, ...] = tuple(components)
        self._index: Dict[bytes, int] = {}
        for index, component in enumerate(self.components):
            self._index.setdefault(canonical_key(component), index)

    @classmethod
    def from_queries(cls, queries: Sequence[ConjunctiveQuery]) -> "ComponentBasis":
        """Definition 27: components of ``Σ_{v∈V'} v`` up to isomorphism,
        the first occurrence of each class as its representative.

        Queries must be boolean; a 0-ary atom anywhere is rejected
        because the component calculus (Lemma 4(1)/(2)) fails for it.
        """
        representatives: Dict[bytes, Structure] = {}
        for query in queries:
            validate_for_component_basis(query)
            for component in connected_components(query.frozen_body()):
                representatives.setdefault(canonical_key(component), component)
        return cls(list(representatives.values()))

    # ------------------------------------------------------------------
    # Vector representations
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """``k``, the paper's fixed name for ``|W|``."""
        return len(self.components)

    def index_of(self, component: Structure) -> Optional[int]:
        """Index of the basis element isomorphic to ``component``."""
        return self._index.get(canonical_key(component))

    def vector(self, query: ConjunctiveQuery) -> Tuple[int, ...]:
        """Definition 29: component multiplicities of ``query`` over W.

        Raises :class:`DecisionError` when the query has a component
        outside the basis (it then was not part of the generating set).
        """
        validate_for_component_basis(query)
        counts = [0] * self.dimension
        for component in connected_components(query.frozen_body()):
            index = self.index_of(component)
            if index is None:
                raise DecisionError(
                    f"component {component!r} of {query!r} is not in the basis"
                )
            counts[index] += 1
        return tuple(counts)

    def vector_or_none(self, query: ConjunctiveQuery) -> Optional[Tuple[int, ...]]:
        try:
            return self.vector(query)
        except DecisionError:
            return None

    # ------------------------------------------------------------------
    # Observation 30
    # ------------------------------------------------------------------
    @staticmethod
    def evaluate_from_counts(
        basis_counts: Sequence[int], query_vector: Sequence[int]
    ) -> int:
        """``v(D) = Π_i w_i(D)^{v⃗(i)}`` with ``0^0 = 1``."""
        if len(basis_counts) != len(query_vector):
            raise DecisionError("count/vector dimension mismatch")
        result = 1
        for count, exponent in zip(basis_counts, query_vector):
            if exponent == 0:
                continue  # 0^0 = 1 convention: skip entirely
            result *= count ** exponent
        return result

    def __repr__(self) -> str:
        return f"ComponentBasis(k={self.dimension})"


def validate_for_component_basis(query: ConjunctiveQuery) -> None:
    """The Theorem 3 fragment: boolean CQs whose atoms have arity ≥ 1."""
    if not query.is_boolean():
        raise UnsupportedQueryError(
            f"the boolean-CQ decider needs boolean queries; got free "
            f"variables {query.free} (CQ determinacy with free variables "
            f"is the paper's open problem)"
        )
    if query.has_nullary_atom():
        raise UnsupportedQueryError(
            "queries with 0-ary atoms are outside the Theorem 3 fragment "
            "(Lemma 4(1)/(2) fail for nullary components)"
        )
