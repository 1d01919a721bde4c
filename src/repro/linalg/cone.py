"""The simplicial cone ``C = M(R^k_{≥0})`` of Definition 52.

For a nonsingular evaluation matrix ``M``, the cone generated by its
columns contains the answer-vector set ``P = {M s⃗ | s ∈ S}``
(Definition 51) and has non-empty interior (Corollary 8).  The witness
construction of Section 7 needs:

* membership tests (``u ∈ C`` iff ``M^{-1} u ≥ 0``), run as sign
  tests on the integer matrix ``d·M^{-1}`` (``d > 0``),
* a *rational interior point* ``p`` (Corollary 8) — we take
  ``p = M·1``, the image of the strictly positive all-ones vector,
* the Lemma 55 scaling ``c ∈ N+`` with ``c·u ∈ P`` for
  ``u ∈ C ∩ Q^k``,
* the Lemma 57 perturbation search: a rational ``t ≠ 1`` with
  ``t^z ∘ p ∈ C`` (coordinatewise ``p_i ↦ t^{z_i} p_i``), each
  candidate tested on an integer point.

Fractions appear only in what leaves the cone: coefficients, the
interior point and the perturbation parameter.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from repro.errors import LinalgError
from repro.faults.budget import active_budget
from repro.linalg.matrix import QMatrix, QVector, int_dot, scaled_integers, vector
from repro.linalg.span import integerize


class SimplicialCone:
    """The cone spanned (with non-negative coefficients) by the columns
    of a nonsingular square matrix.

    The inverse is kept on integers as ``d·M⁻¹`` with ``d > 0``
    (:meth:`QMatrix.scaled_inverse`), so a membership test scales the
    point to integers and checks the signs of ``k`` integer dot
    products; Fractions are built only for coefficients handed back
    to the caller.
    """

    __slots__ = ("matrix", "_scale", "_scaled_inverse")

    def __init__(self, matrix: QMatrix):
        if not matrix.is_square():
            raise LinalgError("a simplicial cone needs a square matrix")
        if not matrix.is_nonsingular():
            raise LinalgError(
                "evaluation matrix is singular; the set of basis structures "
                "is not good (Definition 38)"
            )
        self.matrix = matrix
        self._scale, self._scaled_inverse = matrix.scaled_inverse()

    @property
    def dimension(self) -> int:
        return self.matrix.nrows

    @property
    def inverse(self) -> QMatrix:
        return self.matrix.inverse()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _scaled_coefficients(self, point: Sequence) -> Tuple[int, Tuple[int, ...]]:
        """``(e, n)`` with ``e > 0`` and ``α = n / e`` solving ``M α = point``."""
        if len(point) != self.dimension:
            raise LinalgError(
                f"a point of length {len(point)} for a cone of "
                f"dimension {self.dimension}")
        scale, ints = scaled_integers(point)
        return self._scale * scale, tuple(
            int_dot(row, ints) for row in self._scaled_inverse)

    def coefficients(self, point: Sequence) -> QVector:
        """The unique ``α`` with ``M α = point``."""
        scale, numerators = self._scaled_coefficients(point)
        return tuple(Fraction(n, scale) for n in numerators)

    def contains(self, point: Sequence) -> bool:
        """``point ∈ C`` (closed cone)."""
        return all(n >= 0 for n in self._scaled_coefficients(point)[1])

    def strictly_contains(self, point: Sequence) -> bool:
        """``point`` in the interior of ``C``."""
        return all(n > 0 for n in self._scaled_coefficients(point)[1])

    # ------------------------------------------------------------------
    # Corollary 8 / Lemma 55 / Lemma 57
    # ------------------------------------------------------------------
    def interior_point(self) -> QVector:
        """A rational interior point: ``M · 1`` (image of the strictly
        positive all-ones vector under the homeomorphism of Fact 6)."""
        return self.matrix.matvec([1] * self.dimension)

    def lattice_scaling(self, point: Sequence) -> Tuple[int, QVector]:
        """Lemma 55: for ``u ∈ C ∩ Q^k`` return ``c ∈ N+`` and ``c·α``
        (integral, ≥ 0) such that ``c·u = M (c·α) ∈ P``."""
        alpha = self.coefficients(point)
        if any(a < 0 for a in alpha):
            raise LinalgError(f"point {point!r} is outside the cone")
        scale, scaled = integerize(alpha)
        return scale, tuple(Fraction(v) for v in scaled)

    def perturbation_parameter(
        self,
        direction: Sequence[int],
        center: Sequence,
    ) -> Fraction:
        """Lemma 57: a rational ``t ≠ 1`` with ``t^z ∘ p ∈ C``.

        ``t ↦ t^z ∘ p`` is continuous and maps 1 to the interior point
        ``p``, so parameters close enough to 1 stay inside; we walk
        ``t = 1 ± 1/2^j`` (``j = 1, 2, …``, ``+`` first) until
        membership holds.  The walk has no cap: the center is checked
        to be interior first, which guarantees termination, but how
        close to 1 the first valid ``t`` lies depends on the slope of
        ``α(t)`` (``1 + 2^-78`` occurs in the seeded witness scenarios).
        Every step is charged to the active budget, so a deadline still
        ends it.

        Each candidate ``t = a/b`` is tested on integers: scaling
        ``t^z ∘ p`` by the positive ``a^(-zmin)·b^zmax`` gives the
        integral point ``p_i·a^(z_i−zmin)·b^(zmax−z_i)``, and positive
        scaling keeps cone membership.
        """
        if not self.strictly_contains(center):
            raise LinalgError("perturbation center must be interior")
        for exponent in direction:
            if not isinstance(exponent, int):
                raise LinalgError(
                    f"direction entries must be ints, got {exponent!r}")
        if len(direction) != self.dimension:
            raise LinalgError(
                f"a direction of length {len(direction)} for a cone of "
                f"dimension {self.dimension}")
        _, base = scaled_integers(center)
        low = min(direction, default=0)
        high = max(direction, default=0)
        inverse = self._scaled_inverse
        budget = active_budget()
        denominator = 2
        while True:
            if budget is not None:
                budget.charge()
            for numerator in (denominator + 1, denominator - 1):
                point = [value * numerator ** (z - low) * denominator ** (high - z)
                         for value, z in zip(base, direction)]
                if all(int_dot(row, point) >= 0
                       for row in inverse):
                    return Fraction(numerator, denominator)
            denominator *= 2


def perturb(t: Fraction, direction: Sequence[int], center: Sequence) -> Optional[QVector]:
    """``t^z ∘ p``: coordinatewise ``p_i · t^{z_i}`` (Definition 48(3)
    composed with 48(1)).  ``z`` must be integral so the result stays
    rational; ``t`` must be positive.  Returns ``None`` for t <= 0."""
    if t <= 0:
        return None
    result = []
    for exponent, value in zip(direction, vector(center)):
        if not isinstance(exponent, int):
            raise LinalgError(f"direction entries must be ints, got {exponent!r}")
        result.append(value * t ** exponent)
    return tuple(result)
