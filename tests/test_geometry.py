"""IFS enumeration, exact coordinates, subdivision cells, similarity dimension."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dustcocycle.geometry import (
    CANTOR_DUST,
    FULL_SUBDIVISION_3,
    SIERPINSKI_CARPET,
    BudgetError,
    enumerate_squares,
    get_preset,
    similarity_dimension,
    subdivision_cells,
    vertices,
)


class TestPresets:
    def test_dust_maps(self):
        assert CANTOR_DUST.nmaps == 4
        assert CANTOR_DUST.offsets == ((0, 0), (0, 2), (2, 0), (2, 2))

    def test_carpet_omits_center(self):
        assert SIERPINSKI_CARPET.nmaps == 8
        assert (1, 1) not in SIERPINSKI_CARPET.offsets

    def test_full_subdivision_has_nine(self):
        assert FULL_SUBDIVISION_3.nmaps == 9

    def test_lookup_normalizes_separators(self):
        assert get_preset("cantor_dust") is CANTOR_DUST
        assert get_preset("Sierpinski-Carpet") is SIERPINSKI_CARPET
        with pytest.raises(KeyError):
            get_preset("menger-sponge")


class TestEnumeration:
    def test_level_zero_is_unit_square(self):
        (sq,) = enumerate_squares(CANTOR_DUST, 0)
        assert sq.word == ()
        assert (sq.kx, sq.ky) == (0, 0)
        assert sq.edge == 1

    def test_level_one_corners(self):
        sqs = list(enumerate_squares(CANTOR_DUST, 1))
        assert [(s.kx, s.ky) for s in sqs] == [(0, 0), (0, 2), (2, 0), (2, 2)]
        assert all(s.edge == Fraction(1, 3) for s in sqs)

    def test_level_two_word_composition(self):
        # first map then fourth map: corner lands at (2, 2)/9
        by_word = {s.word: s for s in enumerate_squares(CANTOR_DUST, 2)}
        assert len(by_word) == 16
        assert (by_word[(0, 3)].kx, by_word[(0, 3)].ky) == (2, 2)

    def test_carpet_level_one_misses_center(self):
        sqs = list(enumerate_squares(SIERPINSKI_CARPET, 1))
        assert len(sqs) == 8
        assert (1, 1) not in {(s.kx, s.ky) for s in sqs}

    @pytest.mark.parametrize(
        "preset,n", [(CANTOR_DUST, 6), (CANTOR_DUST, 8), (SIERPINSKI_CARPET, 4)]
    )
    def test_counts_and_uniqueness(self, preset, n):
        corners = [(s.kx, s.ky) for s in enumerate_squares(preset, n)]
        assert len(corners) == preset.nmaps**n
        # same-size squares overlap interiors iff corners coincide
        assert len(set(corners)) == len(corners)

    def test_edge_times_power_is_one(self):
        for sq in enumerate_squares(CANTOR_DUST, 5):
            assert sq.edge * 3**5 == 1

    def test_level_guard(self):
        """The stream obeys the engine's scalar square budget, nmaps**n <= 4**12."""
        assert next(iter(enumerate_squares(CANTOR_DUST, 12))).level == 12
        assert next(iter(enumerate_squares(SIERPINSKI_CARPET, 8))).level == 8
        for preset, n in ((CANTOR_DUST, 13), (SIERPINSKI_CARPET, 9), (CANTOR_DUST, 17)):
            with pytest.raises(BudgetError, match="squares exceed the scalar budget of 16777216"):
                next(iter(enumerate_squares(preset, n)))
        # the stream is lazy: an iterator, whose first squares come at once
        stream = enumerate_squares(CANTOR_DUST, 12)
        assert [next(stream).word for _ in range(2)] == [(0,) * 12, (0,) * 11 + (1,)]

    def test_level_guard_names_no_override(self):
        """The stream takes no override, so its refusal names the count and
        the cap and points to no ``allow_large``."""
        with pytest.raises(BudgetError) as caught:
            next(enumerate_squares(CANTOR_DUST, 13))
        assert str(caught.value) == (
            "67108864 squares exceed the scalar budget of 16777216, "
            "which the reference stream always keeps")
        assert "allow_large" not in str(caught.value)

    def test_dust_digit_invariant(self):
        # every vertex numerator is a {0,2}-digit numeral, possibly + 1
        def digits_ok(q, n):
            for _ in range(n):
                if q % 3 == 1:
                    return False
                q //= 3
            return True

        for n in range(7):
            for sq in enumerate_squares(CANTOR_DUST, n):
                for v in vertices(sq):
                    for q in (v.px, v.py):
                        assert digits_ok(q, n) or digits_ok(q - 1, n)


class TestVertices:
    def test_unit_square(self):
        (sq,) = enumerate_squares(CANTOR_DUST, 0)
        pts = [(v.px, v.py) for v in vertices(sq)]
        assert pts == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_corner_arithmetic_carries(self):
        sqs = {s.word: s for s in enumerate_squares(CANTOR_DUST, 1)}
        v2 = vertices(sqs[(3,)])[2]
        assert (v2.px, v2.py, v2.level) == (3, 3, 1)
        assert v2.as_fractions() == (Fraction(1), Fraction(1))

    def test_level_two_up_vertex(self):
        sqs = {(s.kx, s.ky): s for s in enumerate_squares(CANTOR_DUST, 2)}
        v3 = vertices(sqs[(2, 0)])[3]
        assert (v3.px, v3.py) == (2, 1)

    def test_out_of_range_rejected(self):
        from dustcocycle.geometry import TriadicPoint

        with pytest.raises(ValueError):
            TriadicPoint(4, 0, 1)


class TestSubdivision:
    def test_level_zero(self):
        (cell,) = subdivision_cells(0)
        assert (cell.i, cell.j, cell.level) == (0, 0, 0)

    def test_level_one_row_major(self):
        cells = list(subdivision_cells(1))
        assert [(c.i, c.j) for c in cells] == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert [c.corner_fractions() for c in cells] == [
            (0, 0),
            (Fraction(1, 2), 0),
            (0, Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
        ]

    def test_level_three_count_and_edges(self):
        cells = list(subdivision_cells(3))
        assert len(cells) == 64
        assert all(c.edge == Fraction(1, 8) for c in cells)


class TestSimilarityDimension:
    """Every map scales by 1/3, so Moran's equation nmaps * 3**-d = 1 has
    the closed form d = log(nmaps) / log(3)."""

    @pytest.mark.parametrize("preset", [CANTOR_DUST, SIERPINSKI_CARPET, FULL_SUBDIVISION_3],
                             ids=lambda p: p.name)
    def test_closed_form_to_the_bit(self, preset):
        got = similarity_dimension(preset)
        assert got.hex() == (math.log(preset.nmaps) / math.log(3)).hex()
        assert preset.nmaps * 3.0**-got == pytest.approx(1.0, abs=1e-15)

    def test_dust(self):
        want = np.log(4.0) / np.log(3.0)
        assert similarity_dimension(CANTOR_DUST) == pytest.approx(want, abs=1e-12)

    def test_carpet(self):
        want = np.log(8.0) / np.log(3.0)
        assert similarity_dimension(SIERPINSKI_CARPET) == pytest.approx(want, abs=1e-12)

    def test_full_subdivision_is_planar(self):
        assert similarity_dimension(FULL_SUBDIVISION_3) == 2.0
