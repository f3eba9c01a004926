"""Operator constants, the multiplication action, and the trace kernel."""

import numpy as np
import pytest

from dustcocycle import fredholm
from dustcocycle.fredholm import (
    EPSILON,
    F,
    F_CARRIER,
    M,
    N,
    VertexValues,
    build_rho,
    check_constants,
    commutator,
    kernel_trace,
    kernel_trace_oracle,
)

RNG_SEED = 20240202


def random_scalar_values(rng):
    return VertexValues(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))


def random_matrix_values(rng, dim=2):
    mats = rng.standard_normal((4, dim, dim)) + 1j * rng.standard_normal((4, dim, dim))
    return VertexValues(*mats)


class TestConstants:
    def test_all_identities_exact(self):
        rep = check_constants()
        assert rep.ok
        assert all(dev == 0 for _, dev in rep.checks)
        assert rep.first_violation is None

    def test_float_matrices_match_carrier(self):
        assert np.allclose(F * np.sqrt(2.0), F_CARRIER)
        assert np.array_equal(EPSILON, np.diag([1.0, 1.0, -1.0, -1.0]))
        mm = np.zeros((4, 4))
        mm[:2, :2] = N
        mm[2:, 2:] = N
        assert np.array_equal(M, mm)

    def test_perturbed_carrier_reports_violation(self, monkeypatch):
        bad = F_CARRIER.copy()
        bad[0, 2] = 2
        monkeypatch.setattr(fredholm, "F_CARRIER", bad)
        rep = check_constants()
        assert not rep.ok
        name, dev = rep.first_violation
        assert dev != 0

    def test_perturbed_symmetric_carrier_fails_square_identity(self, monkeypatch):
        bad = F_CARRIER.copy()
        bad[0, 2] = bad[2, 0] = -1  # still symmetric, but F^2 != I
        monkeypatch.setattr(fredholm, "F_CARRIER", bad)
        rep = check_constants()
        assert not rep.ok
        assert rep.first_violation[0] == "F squared = identity"


class TestRho:
    def test_constant_one_gives_identity(self):
        rho = build_rho(VertexValues(1.0, 1.0, 1.0, 1.0))
        assert np.array_equal(rho, np.eye(4))

    def test_basis_order_permutes_vertex_values(self):
        rho = build_rho(VertexValues(0.0, 1.0, 2.0, 3.0))
        assert np.array_equal(np.diag(rho), [0.0, 2.0, 1.0, 3.0])

    def test_x_coordinate_on_unit_square(self):
        # x(v0)=0, x(v1)=1, x(v2)=1, x(v3)=0 -> diag(0, 1, 1, 0) in basis order
        rho = build_rho(VertexValues(0.0, 1.0, 1.0, 0.0))
        assert np.array_equal(np.diag(rho), [0.0, 1.0, 1.0, 0.0])

    def test_matrix_blocks(self):
        blocks = [np.eye(2) * k for k in range(4)]
        rho = build_rho(VertexValues(*blocks))
        assert rho.shape == (8, 8)
        assert np.array_equal(np.diag(rho), [0, 0, 2, 2, 1, 1, 3, 3])

    def test_mixed_kind_rejected(self):
        with pytest.raises(ValueError, match="mixed-kind"):
            VertexValues(1.0, np.eye(2), 1.0, 1.0)

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError, match="mixed shapes"):
            VertexValues(np.eye(2), np.eye(3), np.eye(2), np.eye(2))


class TestCommutator:
    def test_constant_commutes(self):
        c = commutator(VertexValues(3.0, 3.0, 3.0, 3.0))
        assert np.abs(c).max() == 0.0

    def test_matches_vertex_difference_display(self):
        # one nonzero vertex value f(v1) = 1: upper-right block is
        # [[f(1)-f(0), f(3)-f(0)], [f(2)-f(1), f(3)-f(2)]] / sqrt(2),
        # lower-left is [[f(0)-f(1), f(1)-f(2)], [f(0)-f(3), f(2)-f(3)]] / sqrt(2)
        c = commutator(VertexValues(0.0, 1.0, 0.0, 0.0))
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(c[:2, 2:], s * np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.allclose(c[2:, :2], s * np.array([[-1.0, 1.0], [0.0, 0.0]]))
        assert np.abs(c[:2, :2]).max() == 0.0
        assert np.abs(c[2:, 2:]).max() == 0.0

    def test_reproduces_area_matrix_at_unit_edge(self):
        x = VertexValues(0.0, 1.0, 1.0, 0.0)
        y = VertexValues(0.0, 0.0, 1.0, 1.0)
        got = -2.0 * commutator(x) @ commutator(y)
        assert np.allclose(got, M, atol=2e-16)

    def test_scaled_edges_cancel(self):
        for e in (1.0 / 3.0, 1.0 / 9.0):
            x = VertexValues(0.0, e, e, 0.0)
            y = VertexValues(0.0, 0.0, e, e)
            got = -(2.0 / e**2) * commutator(x) @ commutator(y)
            assert np.allclose(got, M, atol=1e-14)


class TestKernelTrace:
    def test_constant_g_vanishes(self):
        rng = np.random.default_rng(RNG_SEED)
        f, h = random_scalar_values(rng), random_scalar_values(rng)
        g = VertexValues(2.5, 2.5, 2.5, 2.5)
        assert kernel_trace(f, g, h) == 0.0

    @pytest.mark.parametrize("edge", [1.0, 1.0 / 3.0, 1.0 / 9.0])
    def test_coordinate_pair_gives_riemann_weight(self, edge):
        # g = x, h = y on an edge-e square: (e^2 / 2) * sum of f vertex values
        rng = np.random.default_rng(RNG_SEED + 1)
        f = random_scalar_values(rng)
        g = VertexValues(0.0, edge, edge, 0.0)
        h = VertexValues(0.0, 0.0, edge, edge)
        want = 0.5 * edge**2 * sum(f.values)
        assert kernel_trace(f, g, h) == pytest.approx(want, abs=1e-15)

    def test_unit_f_unit_square_equals_two(self):
        one = VertexValues(1.0, 1.0, 1.0, 1.0)
        g = VertexValues(0.0, 1.0, 1.0, 0.0)
        h = VertexValues(0.0, 0.0, 1.0, 1.0)
        assert kernel_trace(one, g, h) == pytest.approx(2.0, abs=0)

    def test_single_corner_substitution(self):
        f = VertexValues(1.0, 0.0, 0.0, 0.0)
        g = VertexValues(0.0, 1.0, 0.0, 0.0)
        h = VertexValues(0.0, 0.0, 1.0, 0.0)
        assert kernel_trace(f, g, h) == pytest.approx(0.5, abs=0)
        assert kernel_trace_oracle(f, g, h) == pytest.approx(0.5, abs=1e-15)

    def test_kind_mismatch_rejected(self):
        rng = np.random.default_rng(RNG_SEED)
        with pytest.raises(ValueError):
            kernel_trace(
                random_scalar_values(rng),
                random_matrix_values(rng),
                random_scalar_values(rng),
            )


class TestOracleEquivalence:
    def test_scalar_random(self):
        rng = np.random.default_rng(RNG_SEED)
        worst = 0.0
        for _ in range(300):
            f, g, h = (random_scalar_values(rng) for _ in range(3))
            worst = max(worst, abs(kernel_trace(f, g, h) - kernel_trace_oracle(f, g, h)))
        assert worst < 1e-12

    def test_matrix_random(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        worst = 0.0
        for _ in range(100):
            f, g, h = (random_matrix_values(rng) for _ in range(3))
            worst = max(worst, abs(kernel_trace(f, g, h) - kernel_trace_oracle(f, g, h)))
        assert worst < 1e-12

    def test_scalar_is_the_one_by_one_case(self):
        """A scalar triple and the same values as 1 x 1 matrices give the
        same bits, in the closed form and in the oracle."""
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(500):
            triple = [random_scalar_values(rng) for _ in range(3)]
            wrapped = [VertexValues(*(np.array([[v]]) for v in vv.values)) for vv in triple]
            assert wrapped[0].kind == "matrix"
            for trace in (kernel_trace, kernel_trace_oracle):
                bits = np.array([trace(*triple), trace(*wrapped)]).view(np.int64)
                assert bits[:2].tolist() == bits[2:].tolist()

    def test_identity_triple_vanishes(self):
        one = VertexValues(1.0, 1.0, 1.0, 1.0)
        assert kernel_trace_oracle(one, one, one) == pytest.approx(0.0, abs=1e-15)

    def test_trilinearity(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        f, g, h, f2 = (random_scalar_values(rng) for _ in range(4))
        alpha = 0.7 - 1.3j
        lhs = kernel_trace(
            VertexValues(*(alpha * np.array(f.values) + np.array(f2.values))), g, h
        )
        rhs = alpha * kernel_trace(f, g, h) + kernel_trace(f2, g, h)
        assert lhs == pytest.approx(rhs, rel=1e-13)
        lhs_g = kernel_trace(f, VertexValues(*(alpha * np.array(g.values))), h)
        assert lhs_g == pytest.approx(alpha * kernel_trace(f, g, h), rel=1e-13)
