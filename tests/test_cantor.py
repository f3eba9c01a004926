"""Staircase digit map, the recursive approximants (``reference.py``), and
image cells."""

from fractions import Fraction

import pytest

from dustcocycle.cantor import DigitMapError, DyadicValue, cantor_dyadic, image_cell
from dustcocycle.geometry import CANTOR_DUST, SquareGeom, TriadicPoint, enumerate_squares
from reference import cantor_level, dust_image, floats, fractions


class TestDigitMap:
    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_endpoints(self, n):
        assert cantor_dyadic(0, n).as_fraction() == 0
        assert cantor_dyadic(3**n, n).as_fraction() == 1

    def test_middle_plateau(self):
        assert cantor_dyadic(1, 1).as_fraction() == Fraction(1, 2)

    def test_two_ninths(self):
        assert cantor_dyadic(2, 2).as_fraction() == Fraction(1, 4)

    def test_seven_ninths(self):
        assert cantor_dyadic(7, 2).as_fraction() == Fraction(3, 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cantor_dyadic(10, 2)
        with pytest.raises(ValueError):
            cantor_dyadic(-1, 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_monotone_in_numerator(self, n):
        vals = [cantor_dyadic(p, n).as_fraction() for p in range(3**n + 1)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_dyadic_value_range_checked(self):
        with pytest.raises(ValueError):
            DyadicValue(5, 2)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            cantor_dyadic(0, -1)
        with pytest.raises(ValueError):
            cantor_level(0.5, -1)


class TestRecursion:
    def test_level_zero_identity(self):
        for x in (0.0, 0.3, 1.0):
            assert cantor_level(x, 0) == x

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_middle_plateau(self, n):
        assert cantor_level(0.5, n) == 0.5

    def test_plateau_stable_triadic(self):
        assert cantor_level(2.0 / 9.0, 4) == pytest.approx(0.25, abs=1e-15)

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            cantor_level(1.5, 2)

    def test_agrees_with_digit_map_on_stable_points(self):
        # numerators with digits in {0, 2} plus the single-carry vertices
        for n in range(1, 7):
            for sq in enumerate_squares(CANTOR_DUST, n):
                for p in (sq.kx, sq.kx + 1):
                    exact = float(cantor_dyadic(p, n).as_fraction())
                    for m in range(n, n + 4):
                        assert cantor_level(p / 3**n, m) == pytest.approx(exact, abs=1e-12)


class TestDustImage:
    def test_origin(self):
        pt = dust_image(TriadicPoint(0, 0, 1))
        assert floats(pt) == (0.0, 0.0)

    def test_plateau_point(self):
        # (1/3, 2/3) -> (1/2, 1/2): the staircase plateaus at 1/2 on the
        # middle third (recursion middle branch), so no reduction happens here
        u, v = dust_image(TriadicPoint(1, 2, 1))
        assert u.as_fraction() == Fraction(1, 2)
        assert v.as_fraction() == Fraction(1, 2)
        assert cantor_level(2.0 / 3.0, 6) == 0.5

    def test_boundary_identification(self):
        # (1/3, 1) -> (1/2, 1) -> (1/2, 0) on the torus
        u, v = dust_image(TriadicPoint(1, 3, 1))
        assert u.as_fraction() == Fraction(1, 2)
        assert v.as_fraction() == 0

    def test_level_two(self):
        u, v = dust_image(TriadicPoint(2, 2, 2))
        assert (u.as_fraction(), v.as_fraction()) == (Fraction(1, 4), Fraction(1, 4))


class TestImageCell:
    def test_unit_square_maps_to_unit_cell(self):
        (sq,) = enumerate_squares(CANTOR_DUST, 0)
        cell = image_cell(sq)
        assert (cell.i, cell.j, cell.level) == (0, 0, 0)

    def test_level_one_far_corner(self):
        sq = {s.word: s for s in enumerate_squares(CANTOR_DUST, 1)}[(3,)]
        cell = image_cell(sq)
        assert fractions(cell) == (Fraction(1, 2), Fraction(1, 2))

    def test_level_two_mixed_word(self):
        sq = {s.word: s for s in enumerate_squares(CANTOR_DUST, 2)}[(0, 3)]
        cell = image_cell(sq)
        assert fractions(cell) == (Fraction(1, 4), Fraction(1, 4))

    def test_non_dust_square_raises(self):
        with pytest.raises(DigitMapError):
            image_cell(SquareGeom((0,), 1, 0))

    @pytest.mark.parametrize("n", range(7))
    def test_bijection_onto_subdivision(self, n):
        # image corners hit every dyadic cell exactly once, order-preserving
        seen = set()
        for sq in enumerate_squares(CANTOR_DUST, n):
            cell = image_cell(sq)  # raises on any order violation
            seen.add((cell.i, cell.j))
        assert len(seen) == 4**n
        assert seen == {(i, j) for i in range(2**n) for j in range(2**n)}
