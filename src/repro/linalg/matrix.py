"""Exact rational matrices on integer arithmetic.

Everything proof-carrying in this library (span membership for Lemma
31, nonsingularity for Lemma 40, cone membership for Lemma 55/56) is
exact — the matrices involved (radix-``T`` Vandermonde matrices) are
catastrophically ill-conditioned for floating point.

:class:`QMatrix` is a small, immutable, dependency-free implementation
of the handful of operations we need: RREF with pivot tracking, rank,
determinant, inverse, linear solve, matrix/vector products, and
nullspace bases.  It is not a general numerics library and does not try
to be one.

Representation and performance (DESIGN.md §6.6): a matrix is stored as
**integer rows with one positive denominator per row** (row ``i`` is
``num[i] / den[i]``, ``den[i]`` the least common denominator), so the
hom-count matrices of the pipeline never build a single ``Fraction``
on the way in.  Elimination runs **once** per matrix: one
fraction-free Gauss–Jordan pass over ``[num | diag(den)]`` is cached
as ``(R', pivots, T', p)`` with ``T'·A = R'`` and ``R' = p·RREF(A)``
(every intermediate division is exact, Bareiss-style, so no gcd
normalization runs inside the loop).  Scaling a row never changes
which entries are zero, so the pivots and row swaps are exactly those
of textbook Gauss–Jordan over the rationals.  ``rref``/``rank``/
``solve``/``nullspace``/``inverse`` all read that cache; a
:class:`~fractions.Fraction` is built only for a value that leaves
the module (an entry, a solution coefficient, a nullspace vector).
Determinants use Bareiss elimination over the same integer rows; the
textbook Fraction-based determinant is kept as :func:`gaussian_det`,
the reference the Bareiss path is property-tested against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import LinalgError

Scalar = Fraction | int
QVector = Tuple[Fraction, ...]
IntRow = Tuple[int, ...]


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise LinalgError(
        f"exact matrices accept int/Fraction entries only, got {type(value).__name__}"
    )


_ZERO = Fraction(0)
_ONE = Fraction(1)


def scaled_integers(values: Sequence[Scalar]) -> Tuple[int, IntRow]:
    """``(d, n)`` with ``values[j] == n[j] / d``: ``d > 0`` is the least
    common denominator, so the form is unique.

    This is the integer form every operation of the module computes
    on.  Raises :class:`LinalgError` for entries other than int or
    Fraction.
    """
    scale = 1
    for value in values:
        if type(value) is int:
            continue
        if isinstance(value, Fraction):
            denominator = value.denominator
            if scale % denominator:
                scale = scale // gcd(scale, denominator) * denominator
        elif not isinstance(value, int):
            raise LinalgError(
                f"exact matrices accept int/Fraction entries only, "
                f"got {type(value).__name__}")
    if scale == 1:
        return 1, tuple(v if type(v) is int else v.numerator for v in values)
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def int_dot(left: Sequence[int], right: Sequence[int]) -> int:
    """``⟨u, v⟩`` of two integer sequences."""
    return sum(map(mul, left, right))


def vector(values: Sequence[Scalar]) -> QVector:
    """Normalize a sequence into a tuple of Fractions."""
    return tuple(_to_fraction(v) for v in values)


def dot(left: Sequence[Scalar], right: Sequence[Scalar]) -> Fraction:
    """Exact dot product ``⟨u, v⟩``."""
    if len(left) != len(right):
        raise LinalgError(f"dot of lengths {len(left)} and {len(right)}")
    left_scale, left_ints = scaled_integers(left)
    right_scale, right_ints = scaled_integers(right)
    return Fraction(int_dot(left_ints, right_ints), left_scale * right_scale)


class QMatrix:
    """An immutable matrix over the rationals.

    >>> m = QMatrix([[1, 2], [3, 4]])
    >>> m.det()
    Fraction(-2, 1)
    >>> m.inverse().matvec([1, 0])
    (Fraction(-2, 1), Fraction(3, 2))
    """

    __slots__ = ("_den", "_num", "_rows", "nrows", "ncols",
                 "_elimination", "_det")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        scaled = [scaled_integers(row) for row in rows]
        widths = {len(num) for _, num in scaled}
        if len(widths) > 1:
            raise LinalgError(f"ragged rows with widths {sorted(widths)}")
        self._set(scaled, next(iter(widths)) if widths else 0)

    def _set(self, scaled: Sequence[Tuple[int, IntRow]], ncols: int) -> None:
        self._den: Tuple[int, ...] = tuple(den for den, _ in scaled)
        self._num: Tuple[IntRow, ...] = tuple(num for _, num in scaled)
        self._rows: Optional[Tuple[QVector, ...]] = None
        self.nrows = len(scaled)
        self.ncols = ncols
        self._elimination = None
        self._det = None

    @classmethod
    def _from_quotients(cls, rows: Iterable[Tuple[int, Sequence[int]]],
                        ncols: int) -> "QMatrix":
        """The matrix whose row ``i`` is ``ints_i / divisor_i`` (each
        divisor non-zero), normalized to the canonical integer form."""
        scaled = []
        for divisor, ints in rows:
            common = gcd(divisor, *ints)
            if divisor < 0:
                common = -common
            scaled.append((divisor // common,
                           tuple(value // common for value in ints)))
        matrix = cls.__new__(cls)
        matrix._set(scaled, ncols)
        return matrix

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def identity(size: int) -> "QMatrix":
        return QMatrix([
            [1 if i == j else 0 for j in range(size)]
            for i in range(size)
        ])

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "QMatrix":
        return QMatrix([[0] * ncols for _ in range(nrows)])

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Scalar]]) -> "QMatrix":
        if not columns:
            return QMatrix([])
        height = len(columns[0])
        if any(len(c) != height for c in columns):
            raise LinalgError("columns of unequal height")
        return QMatrix([[columns[j][i] for j in range(len(columns))]
                        for i in range(height)])

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def rows(self) -> Tuple[QVector, ...]:
        """The entries as Fractions (built on first access)."""
        if self._rows is None:
            self._rows = tuple(
                tuple(Fraction(value, den) for value in num)
                for den, num in zip(self._den, self._num)
            )
        return self._rows

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self._num[i][j], self._den[i])

    def row(self, i: int) -> QVector:
        return self.rows[i]

    def column(self, j: int) -> QVector:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> List[QVector]:
        return [self.column(j) for j in range(self.ncols)]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "QMatrix":
        return QMatrix([[self.rows[i][j] for i in range(self.nrows)]
                        for j in range(self.ncols)])

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def matvec(self, x: Sequence[Scalar]) -> QVector:
        if len(x) != self.ncols:
            raise LinalgError(f"matvec: {self.ncols} columns vs vector of {len(x)}")
        scale, xs = scaled_integers(x)
        return tuple(Fraction(int_dot(num, xs), den * scale)
                     for den, num in zip(self._den, self._num))

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise LinalgError(
                f"matmul: {self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}"
            )
        other_cols = other.columns()
        return QMatrix([
            [dot(row, col) for col in other_cols]
            for row in self.rows
        ])

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            return self.matmul(other)
        return NotImplemented

    def scale(self, factor: Scalar) -> "QMatrix":
        f = _to_fraction(factor)
        return QMatrix([[f * v for v in row] for row in self.rows])

    def add(self, other: "QMatrix") -> "QMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinalgError("matrix addition shape mismatch")
        return QMatrix([
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows)
        ])

    # ------------------------------------------------------------------
    # Elimination
    # ------------------------------------------------------------------
    def _eliminate(self):
        """The cached single elimination pass.

        Runs fraction-free Gauss–Jordan once over ``[num | diag(den)]``
        and stores ``(reduced, pivots, transform, p)``: after each
        pivot the whole working matrix equals ``p`` (the current pivot)
        times the matrix textbook Gauss–Jordan over ``[A | I]`` holds
        at that point.  By Cramer's rule those entries are integers, so
        every division below is exact.  Hence ``reduced / p`` is the
        RREF of ``A`` and ``transform / p`` is its transform
        (``T·A = RREF``), row for row.
        """
        if self._elimination is None:
            width = self.ncols
            height = self.nrows
            rows: List[List[int]] = []
            for i, (den, num) in enumerate(zip(self._den, self._num)):
                augmented = list(num) + [0] * height
                augmented[width + i] = den
                rows.append(augmented)
            pivots: List[int] = []
            previous = 1
            pivot_row = 0
            for col in range(width):
                chosen = None
                for r in range(pivot_row, height):
                    if rows[r][col]:
                        chosen = r
                        break
                if chosen is None:
                    continue
                rows[pivot_row], rows[chosen] = rows[chosen], rows[pivot_row]
                top = rows[pivot_row]
                pivot = top[col]
                for r in range(height):
                    if r == pivot_row:
                        continue
                    row = rows[r]
                    lead = row[col]
                    if lead:
                        rows[r] = [(pivot * a - lead * b) // previous
                                   for a, b in zip(row, top)]
                    elif pivot != previous:
                        rows[r] = [pivot * a // previous for a in row]
                previous = pivot
                pivots.append(col)
                pivot_row += 1
                if pivot_row == height:
                    break
            reduced = tuple(tuple(row[:width]) for row in rows)
            transform = tuple(tuple(row[width:]) for row in rows)
            self._elimination = (reduced, tuple(pivots), transform, previous)
        return self._elimination

    def rref(self) -> Tuple["QMatrix", Tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        reduced, pivots, _, scale = self._eliminate()
        return (QMatrix._from_quotients(((scale, row) for row in reduced),
                                        self.ncols),
                pivots)

    def rank(self) -> int:
        _, pivots, _, _ = self._eliminate()
        return len(pivots)

    def det(self) -> Fraction:
        """Determinant via cached fraction-free Bareiss elimination."""
        if not self.is_square():
            raise LinalgError("determinant of a non-square matrix")
        if self._det is None:
            self._det = self._bareiss_det()
        return self._det

    def _bareiss_det(self) -> Fraction:
        """Bareiss' fraction-free algorithm over the integer rows: every
        intermediate division is exact, so no Fraction normalization
        happens in the inner loop."""
        size = self.nrows
        if size == 0:
            return Fraction(1)
        denominator = 1
        for den in self._den:
            denominator *= den
        mat: List[List[int]] = [list(num) for num in self._num]
        sign = 1
        previous = 1
        for k in range(size - 1):
            if mat[k][k] == 0:
                chosen = None
                for r in range(k + 1, size):
                    if mat[r][k] != 0:
                        chosen = r
                        break
                if chosen is None:
                    return Fraction(0)
                mat[k], mat[chosen] = mat[chosen], mat[k]
                sign = -sign
            pivot = mat[k][k]
            row_k = mat[k]
            for i in range(k + 1, size):
                row_i = mat[i]
                lead = row_i[k]
                for j in range(k + 1, size):
                    row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // previous
                row_i[k] = 0
            previous = pivot
        return Fraction(sign * mat[size - 1][size - 1], denominator)

    def is_nonsingular(self) -> bool:
        """Full rank, read off the cached elimination (which
        :meth:`inverse` and :meth:`scaled_inverse` then reuse)."""
        return self.is_square() and self.rank() == self.nrows

    def scaled_inverse(self) -> Tuple[int, Tuple[IntRow, ...]]:
        """``(d, N)`` with ``d > 0`` and ``N = d·A⁻¹`` integral — the
        inverse kept on integers for repeated sign tests."""
        if not self.is_square():
            raise LinalgError("inverse of a non-square matrix")
        _, pivots, transform, scale = self._eliminate()
        if len(pivots) != self.nrows:
            raise LinalgError("matrix is singular")
        if scale < 0:
            return -scale, tuple(tuple(-v for v in row) for row in transform)
        return scale, transform

    def inverse(self) -> "QMatrix":
        scale, transform = self.scaled_inverse()
        return QMatrix._from_quotients(((scale, row) for row in transform),
                                       self.nrows)

    def solve(self, b: Sequence[Scalar]) -> Optional[QVector]:
        """A particular solution of ``A x = b``, or ``None`` when
        inconsistent.  Free variables are set to zero.

        Uses the cached elimination: with ``T·A = R`` the system is
        consistent iff ``(T·b)_i = 0`` on every zero row of ``R``."""
        if len(b) != self.nrows:
            raise LinalgError(f"solve: {self.nrows} rows vs rhs of {len(b)}")
        rhs_scale, rhs = scaled_integers(b)
        _, pivots, transform, scale = self._eliminate()
        for r in range(len(pivots), self.nrows):
            if int_dot(transform[r], rhs):
                return None  # zero row of R with non-zero rhs: inconsistent
        divisor = scale * rhs_scale
        solution = [_ZERO] * self.ncols
        for row_index, col in enumerate(pivots):
            solution[col] = Fraction(int_dot(transform[row_index], rhs), divisor)
        return tuple(solution)

    def nullspace(self) -> List[QVector]:
        """A basis of ``{x : A x = 0}``."""
        reduced, pivots, _, scale = self._eliminate()
        pivot_set = set(pivots)
        free_columns = [j for j in range(self.ncols) if j not in pivot_set]
        basis: List[QVector] = []
        for free in free_columns:
            candidate = [_ZERO] * self.ncols
            candidate[free] = _ONE
            for row_index, pivot_col in enumerate(pivots):
                candidate[pivot_col] = Fraction(-reduced[row_index][free], scale)
            basis.append(tuple(candidate))
        return basis

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, self._num))

    def __repr__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.rows
        )
        return f"QMatrix({self.nrows}x{self.ncols}: {body})"

    def to_int_rows(self) -> List[List[int]]:
        """Rows as ints; raises when any entry is non-integral."""
        for den, num in zip(self._den, self._num):
            if den != 1:
                value = next(Fraction(v, den) for v in num if v % den)
                raise LinalgError(f"entry {value} is not an integer")
        return [list(num) for num in self._num]


def gaussian_det(matrix: QMatrix) -> Fraction:
    """Textbook Fraction-arithmetic Gaussian determinant.

    This is the pre-Bareiss reference implementation, kept as the
    ground truth the fraction-free path is property-tested against
    (and as the ablation baseline for ``bench_engine.py``).
    """
    if not matrix.is_square():
        raise LinalgError("determinant of a non-square matrix")
    rows = [list(row) for row in matrix.rows]
    size = matrix.nrows
    determinant = Fraction(1)
    for col in range(size):
        chosen = None
        for r in range(col, size):
            if rows[r][col] != 0:
                chosen = r
                break
        if chosen is None:
            return Fraction(0)
        if chosen != col:
            rows[col], rows[chosen] = rows[chosen], rows[col]
            determinant = -determinant
        determinant *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return determinant
