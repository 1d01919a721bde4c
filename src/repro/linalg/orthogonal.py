"""Rational orthogonal witnesses (Fact 5).

Fact 5 of the paper: if ``u ∉ span{u_1, ..., u_n}`` over ``Q^k``, there
is a rational ``z`` orthogonal to every ``u_i`` but not to ``u``.  The
proof of Lemma 56 takes such a ``z`` (scaled to integers) as "the
difference direction" between the counterexample structures.

Constructively: a basis of the orthogonal complement of
``span{u_i}`` is the nullspace of the matrix with rows ``u_i``;
some basis vector must have non-zero dot with ``u`` (else ``u`` would
be in the double complement = the span).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.linalg.matrix import QMatrix, QVector, dot, vector
from repro.linalg.span import integerize


def orthogonal_witness(
    generators: Sequence[Sequence],
    target: Sequence,
) -> Optional[QVector]:
    """A rational ``z`` with ``⟨z, g⟩ = 0`` for all generators and
    ``⟨z, target⟩ ≠ 0`` — or ``None`` when no such ``z`` exists
    (i.e. when the target lies in the span).

    >>> z = orthogonal_witness([[1, 0, 0]], [0, 1, 0])
    >>> z is not None
    True
    """
    target_vec = vector(target)
    width = len(target_vec)
    if any(len(g) != width for g in generators):
        raise ValueError("generator/target dimension mismatch")
    if generators:
        complement = QMatrix(generators).nullspace()
    else:
        complement = list(QMatrix.identity(width).rows)
    for candidate in complement:
        if dot(candidate, target_vec) != 0:
            return candidate
    return None


def integer_orthogonal_witness(
    generators: Sequence[Sequence],
    target: Sequence,
) -> Optional[tuple]:
    """Like :func:`orthogonal_witness` but scaled to ``Z^k`` — the
    proof of Lemma 56 needs ``z ∈ Z^k`` so that ``t^z`` stays rational
    for rational ``t`` (footnote 26)."""
    witness = orthogonal_witness(generators, target)
    if witness is None:
        return None
    _, scaled = integerize(witness)
    return tuple(scaled)
