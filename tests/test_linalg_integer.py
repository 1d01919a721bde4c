"""Integer-only linear algebra against a Fraction reference.

:class:`~repro.linalg.matrix.QMatrix` eliminates fraction-free over
integer-scaled rows and :class:`~repro.linalg.cone.SimplicialCone`
tests membership on ``d·M⁻¹`` in integers.  Both must agree *exactly*
with textbook Gauss–Jordan over ``Fraction`` — the same pivots, the
same particular solution, the same nullspace basis, the same inverse
and the same cone verdicts — on random integer and rational matrices,
singular, rank-deficient and empty ones included.  The reference below
is the elimination the library ran before it moved onto integers.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LinalgError
from repro.faults.budget import Budget, BudgetExceeded, use_budget
from repro.linalg.cone import SimplicialCone, perturb
from repro.linalg.matrix import QMatrix, scaled_integers


# ----------------------------------------------------------------------
# The Fraction reference
# ----------------------------------------------------------------------
def _reference_elimination(rows, ncols):
    """Gauss–Jordan over ``[A | I]`` in Fractions: ``(R, pivots, T)``."""
    height = len(rows)
    work = [[Fraction(v) for v in row]
            + [Fraction(int(i == j)) for j in range(height)]
            for i, row in enumerate(rows)]
    pivots = []
    pivot_row = 0
    for col in range(ncols):
        chosen = next((r for r in range(pivot_row, height) if work[r][col]),
                      None)
        if chosen is None:
            continue
        work[pivot_row], work[chosen] = work[chosen], work[pivot_row]
        value = work[pivot_row][col]
        work[pivot_row] = [v / value for v in work[pivot_row]]
        for r in range(height):
            if r != pivot_row and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b
                           for a, b in zip(work[r], work[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == height:
            break
    reduced = [row[:ncols] for row in work]
    transform = [row[ncols:] for row in work]
    return reduced, tuple(pivots), transform


def _reference_solve(rows, ncols, rhs):
    _, pivots, transform = _reference_elimination(rows, ncols)
    transformed = [sum((t * Fraction(b) for t, b in zip(row, rhs)),
                       Fraction(0)) for row in transform]
    if any(transformed[r] for r in range(len(pivots), len(rows))):
        return None
    solution = [Fraction(0)] * ncols
    for index, col in enumerate(pivots):
        solution[col] = transformed[index]
    return tuple(solution)


def _reference_nullspace(rows, ncols):
    reduced, pivots, _ = _reference_elimination(rows, ncols)
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        candidate = [Fraction(0)] * ncols
        candidate[free] = Fraction(1)
        for index, col in enumerate(pivots):
            candidate[col] = -reduced[index][free]
        basis.append(tuple(candidate))
    return basis


def _random_rows(seed: int, rational: bool):
    """Random rows, often singular: zero rows, repeated rows and
    combinations of earlier rows are mixed in."""
    rng = random.Random(seed)
    height = rng.randint(0, 5)
    width = rng.randint(0, 5) if height else 0
    denominators = (1, 1, 2, 3, 7) if rational else (1,)

    def entry():
        return Fraction(rng.randint(-9, 9), rng.choice(denominators))

    rows = []
    for _ in range(height):
        shape = rng.random()
        if rows and shape < 0.2:
            source = rng.choice(rows)
            rows.append([v * rng.randint(-3, 3) for v in source])
        elif len(rows) > 1 and shape < 0.35:
            a, b = rng.sample(rows, 2)
            rows.append([x + y for x, y in zip(a, b)])
        elif shape < 0.45:
            rows.append([Fraction(0)] * width)
        else:
            rows.append([entry() for _ in range(width)])
    if not rational:
        rows = [[int(v) for v in row] for row in rows]
    return rows, width


MATRICES = st.tuples(st.integers(0, 10 ** 6), st.booleans())


class TestAgainstFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(MATRICES)
    def test_rref_pivots_rank_and_nullspace(self, case):
        rows, width = _random_rows(*case)
        matrix = QMatrix(rows)
        reduced, pivots, _ = _reference_elimination(rows, width)
        got_reduced, got_pivots = matrix.rref()
        assert got_pivots == pivots
        assert got_reduced.rows == tuple(tuple(row) for row in reduced)
        assert matrix.rank() == len(pivots)
        assert matrix.nullspace() == _reference_nullspace(rows, width)
        assert matrix.is_nonsingular() == (
            len(rows) == width and len(pivots) == width)

    @settings(max_examples=300, deadline=None)
    @given(MATRICES, st.integers(0, 10 ** 6))
    def test_solve(self, case, rhs_seed):
        rows, width = _random_rows(*case)
        matrix = QMatrix(rows)
        rng = random.Random(rhs_seed)
        if rng.random() < 0.5:
            # A consistent right-hand side: the image of a random x.
            x = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5)))
                 for _ in range(width)]
            rhs = [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0))
                   for row in rows]
        else:
            rhs = [Fraction(rng.randint(-6, 6), rng.choice((1, 3)))
                   for _ in rows]
        expected = _reference_solve(rows, width, rhs)
        assert matrix.solve(rhs) == expected
        if expected is not None:
            assert all(isinstance(v, Fraction) for v in matrix.solve(rhs))

    @settings(max_examples=300, deadline=None)
    @given(MATRICES)
    def test_inverse_or_singular(self, case):
        rows, width = _random_rows(*case)
        matrix = QMatrix(rows)
        if len(rows) != width:
            with pytest.raises(LinalgError):
                matrix.inverse()
            return
        _, pivots, transform = _reference_elimination(rows, width)
        if len(pivots) < width:
            with pytest.raises(LinalgError):
                matrix.inverse()
            with pytest.raises(LinalgError):
                matrix.scaled_inverse()
            return
        inverse = matrix.inverse()
        assert inverse.rows == tuple(tuple(row) for row in transform)
        scale, scaled = matrix.scaled_inverse()
        assert scale > 0
        assert all(isinstance(v, int) for row in scaled for v in row)
        assert [[Fraction(v, scale) for v in row] for row in scaled] \
            == transform

    def test_empty_matrices(self):
        empty = QMatrix([])
        assert empty.rank() == 0 and empty.nullspace() == []
        assert empty.solve([]) == ()
        assert empty.inverse() == QMatrix([])
        no_columns = QMatrix([[], []])
        assert no_columns.rank() == 0
        assert no_columns.solve([0, 0]) == ()
        assert no_columns.solve([0, 1]) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=50), max_size=6))
    def test_scaled_integers_is_the_least_common_denominator(self, values):
        scale, ints = scaled_integers(values)
        assert [Fraction(n, scale) for n in ints] == values
        assert all(scale % Fraction(v).denominator == 0 for v in values)
        if values:
            from math import gcd
            assert gcd(scale, *ints) == 1


class TestConeAgainstFractionReference:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_membership_and_coefficients(self, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-6, 9), rng.choice((1, 1, 2, 3)))
                 for _ in range(size)] for _ in range(size)]
        _, pivots, transform = _reference_elimination(rows, size)
        if len(pivots) < size:
            with pytest.raises(LinalgError):
                SimplicialCone(QMatrix(rows))
            return
        cone = SimplicialCone(QMatrix(rows))
        for _ in range(8):
            point = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5)))
                     for _ in range(size)]
            alpha = tuple(sum((t * p for t, p in zip(row, point)), Fraction(0))
                          for row in transform)
            assert cone.coefficients(point) == alpha
            assert cone.contains(point) == all(a >= 0 for a in alpha)
            assert cone.strictly_contains(point) == all(a > 0 for a in alpha)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_perturbation_matches_fraction_walk(self, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 4)
        rows = [[rng.randint(0, 9) for _ in range(size)] for _ in range(size)]
        matrix = QMatrix(rows)
        if not matrix.is_nonsingular():
            return
        _, _, transform = _reference_elimination(rows, size)
        cone = SimplicialCone(matrix)
        center = cone.interior_point()
        direction = tuple(rng.randint(-3, 3) for _ in range(size))
        expected = None
        denominator = 2
        while expected is None and denominator <= 2 ** 30:
            for t in (Fraction(denominator + 1, denominator),
                      Fraction(denominator - 1, denominator)):
                moved = perturb(t, direction, center)
                if all(sum((a * b for a, b in zip(row, moved)), Fraction(0)) >= 0
                       for row in transform):
                    expected = t
                    break
            denominator *= 2
        assert expected is not None
        assert cone.perturbation_parameter(direction, center) == expected


class TestUncappedPerturbationWalk:
    # A thin wedge around the diagonal: columns (N, N) and (N, N+1).
    # Moving the center (2N, 2N+1) horizontally stays inside only for
    # |t − 1| ≲ 1/(2N), so with N = 2^50 the first valid t is about
    # 1 + 2^-51 — far past the old 2^-40 cap of the walk.
    WEDGE = QMatrix([[2 ** 50, 2 ** 50], [2 ** 50, 2 ** 50 + 1]])

    def test_walk_goes_past_the_old_cap(self):
        cone = SimplicialCone(self.WEDGE)
        center = cone.interior_point()
        t = cone.perturbation_parameter((1, 0), center)
        assert t != 1 and abs(t - 1) < Fraction(1, 2 ** 40)
        assert cone.contains(perturb(t, (1, 0), center))
        coarser = 1 + 2 * (t - 1)
        assert not cone.contains(perturb(coarser, (1, 0), center))

    def test_every_step_is_charged_to_the_budget(self):
        cone = SimplicialCone(self.WEDGE)
        center = cone.interior_point()
        with use_budget(Budget(max_steps=10)):
            with pytest.raises(BudgetExceeded) as caught:
                cone.perturbation_parameter((1, 0), center)
        assert caught.value.reason == "steps"


def _fraction_calls(action):
    """Calls into the ``fractions`` module made while running ``action``."""
    import cProfile
    import pstats

    profile = cProfile.Profile()
    profile.runcall(action)
    return sum(stats[1] for (filename, _, _), stats
               in pstats.Stats(profile).stats.items()
               if filename.endswith("fractions.py"))


def test_elimination_and_membership_build_no_fractions():
    rng = random.Random(7)
    size = 6
    rows = [[rng.randint(0, 50) ** 3 for _ in range(size)]
            for _ in range(size)]
    matrix = QMatrix(rows)
    assert _fraction_calls(matrix.is_nonsingular) == 0
    cone = SimplicialCone(matrix)
    center = [sum(row) for row in rows]
    point = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(size)]
    assert _fraction_calls(lambda: cone.contains(point)) == 0
    assert _fraction_calls(lambda: cone.strictly_contains(center)) == 0
    direction = tuple(rng.randint(-2, 2) for _ in range(size))
    # Only the returned parameter itself is a Fraction.
    assert _fraction_calls(
        lambda: cone.perturbation_parameter(direction, center)) <= 2
