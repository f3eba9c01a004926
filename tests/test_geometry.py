"""IFS enumeration, exact coordinates, subdivision cells, dimension solver."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
        # the stream is lazy: past the budget, its first square comes at once
        stream = enumerate_squares(CANTOR_DUST, 17, allow_large=True)
        assert next(iter(stream)).word == (0,) * 17

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
    def test_two_halves_give_dimension_one(self):
        assert similarity_dimension([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_dust(self):
        want = np.log(4.0) / np.log(3.0)
        assert similarity_dimension(CANTOR_DUST) == pytest.approx(want, abs=1e-12)

    def test_carpet(self):
        want = np.log(8.0) / np.log(3.0)
        assert similarity_dimension(SIERPINSKI_CARPET) == pytest.approx(want, abs=1e-12)

    def test_full_subdivision_is_planar(self):
        assert similarity_dimension(FULL_SUBDIVISION_3) == pytest.approx(2.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            similarity_dimension([])

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            similarity_dimension([1.5])

    def test_tolerance_below_the_float_spacing_ends(self):
        """A tol of 0, or below the spacing of floats near the root, ends
        once the bracket is two adjacent floats, and a negative or NaN tol
        is refused; run in a fresh interpreter under a timeout, so a
        bisection that never ends fails the test instead of hanging the
        suite."""
        src = Path(__file__).resolve().parent.parent / "src"
        probe = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                 "from dustcocycle.geometry import CANTOR_DUST, similarity_dimension\n"
                 "for t in (0.0, 1e-300, -1.0, float('nan')):\n"
                 "    try: print(similarity_dimension(CANTOR_DUST, t).hex())\n"
                 "    except ValueError as e: print(str(e).replace(' ', '_'))\n")
        out = subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True,
                             text=True, check=True, timeout=30).stdout.split()
        assert [float.fromhex(x) for x in out[:2]] == [
            pytest.approx(np.log(4.0) / np.log(3.0), abs=1e-15)] * 2
        assert out[2:] == ["tol_must_be_a_number_>=_0,_got_-1.0", "tol_must_be_a_number_>=_0,_got_nan"]
