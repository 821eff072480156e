"""Realization data, the matrix kernel, and its integrated forms."""

import numpy as np
import pytest

from dkinv.kernels import DiagonalStructure, Realization, RealizationIdentityError
from dkinv.linalg import DimensionError

from conftest import (
    random_realization,
    scalar_realization,
    zero_realization,
)


class TestDiagonalStructure:
    def test_levels_and_multiplicities(self):
        d = DiagonalStructure.from_values([2.0, 1.0, 1.0])
        assert d.p == 3
        assert d.num_levels == 2

    def test_projector_repeated_values(self):
        # d = [2, 1, 1]: the level-2 projector keeps only the first
        # component; the top index gives the full identity.
        d = DiagonalStructure.from_values([2.0, 1.0, 1.0])
        assert np.allclose(d.projector(2), np.diag([1.0, 0.0, 0.0]), atol=0)
        assert np.allclose(d.projector(3), np.eye(3), atol=0)

    def test_projector_single_level_collapses(self):
        d = DiagonalStructure.from_values([3.0])
        assert np.allclose(d.projector(2), np.eye(1), atol=0)

    def test_projector_index_range(self):
        d = DiagonalStructure.from_values([2.0, 1.0])
        with pytest.raises(ValueError):
            d.projector(1)
        with pytest.raises(ValueError):
            d.projector(4)

    def test_matrix_and_inverse(self):
        d = DiagonalStructure.from_values([4.0, 0.5])
        assert np.allclose(d.matrix @ d.inv_matrix, np.eye(2), atol=1e-15)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DiagonalStructure.from_values([1.0, 2.0])  # increasing
        with pytest.raises(ValueError):
            DiagonalStructure.from_values([1.0, 0.0])
        with pytest.raises(DimensionError):
            DiagonalStructure.from_values([])


class TestRealizationBuild:
    def test_shape_validation(self):
        z22 = np.zeros((2, 2))
        with pytest.raises(DimensionError):
            Realization.build(np.zeros((2, 1)), z22, z22, [2.0, 1.0], 1.0)
        with pytest.raises(DimensionError):
            Realization.build(z22, z22, np.zeros((2, 3)), [2.0, 1.0], 1.0)
        with pytest.raises(DimensionError):
            Realization.build(z22, z22, z22, [1.0], 1.0)

    def test_rejects_nonpositive_length(self):
        z = np.zeros((1, 1))
        with pytest.raises(ValueError):
            Realization.build(z, z, z, [1.0], 0.0)

    def test_with_length_preserves_data(self, scalar):
        short = scalar.with_length(0.25)
        assert short.length == 0.25
        assert np.allclose(short.beta, scalar.beta, atol=0)


class TestKernel:
    def test_scalar_closed_form(self, scalar):
        # theta = 1, beta = -1: k(x) = exp(i x beta^H) = exp(-i x), and the
        # Hermitian continuation keeps the same formula for x < 0.
        for x in (-0.9, -0.3, 0.0, 0.2, 0.75, 1.0):
            assert scalar.kernel(x) == pytest.approx(np.exp(-1j * x), abs=1e-14)

    def test_vanishes_without_theta1(self):
        z = np.zeros((2, 2))
        r = Realization.build(z, np.ones((2, 2)), np.eye(2), [2.0, 1.0], 1.0)
        for x in (-1.5, 0.4, 2.0):
            assert np.allclose(r.kernel(x), 0.0, atol=0)

    def test_hermitian_symmetry(self):
        r = random_realization(21, 2, 3, [2.0, 1.0])
        xs = np.linspace(-1.9, 1.9, 20)
        for x in xs:
            gap = np.abs(r.kernel(-x) - r.kernel(x).conj().T).max()
            assert gap <= 1e-13

    def test_argument_gate(self):
        r = random_realization(22, 2, 2, [2.0, 1.0])
        r.kernel(2.0)  # |x| = d_1 l is allowed
        with pytest.raises(ValueError):
            r.kernel(2.1)
        with pytest.raises(ValueError):  # not a recursion through k(-x)
            r.kernel(np.nan)


class TestIntegratedKernel:
    def test_value_at_zero_is_half_identity(self):
        r = random_realization(23, 3, 2, [2.0, 1.5, 1.0])
        assert np.allclose(r.integrated_kernel(0.0), np.eye(3) / 2, atol=0)

    def test_scalar_closed_form(self, scalar):
        # s(x) = 1/2 + int_0^x exp(-i u) du = 1/2 - i (1 - exp(-i x)).
        for x in (0.1, 0.5, 1.0):
            want = 0.5 - 1j * (1 - np.exp(-1j * x))
            assert scalar.integrated_kernel(x) == pytest.approx(want, abs=1e-12)

    def test_constant_without_theta1(self):
        z = np.zeros((3, 2))
        r = Realization.build(z, np.ones((3, 2)), np.eye(3), [2.0, 1.0], 1.0)
        assert np.allclose(r.integrated_kernel(1.3), np.eye(2) / 2, atol=0)

    def test_rejects_negative_argument(self, scalar):
        with pytest.raises(ValueError):
            scalar.integrated_kernel(-0.1)
        with pytest.raises(ValueError):
            scalar.integrated_kernel(np.nan)

    def test_derivative_recovers_kernel(self):
        # Central differences of the integrated kernel converge to the
        # kernel at second order: halving h must shrink the error by at
        # least a factor of three.
        r = random_realization(24, 2, 3, [2.0, 1.0])
        x = 0.37
        kx = r.kernel(x)

        def fd_err(h):
            approx = (r.integrated_kernel(x + h) - r.integrated_kernel(x - h))
            approx = approx / (2 * h) * np.diag(r.diag.matrix).real[:, None]
            # rows of s are d_i-scaled antiderivatives of rows of k
            return np.abs(approx - kx).max()

        e1, e2 = fd_err(2e-3), fd_err(1e-3)
        assert e1 / e2 >= 3.0


class TestEdgeProfile:
    def test_value_at_zero(self):
        r = random_realization(28, 2, 2, [2.0, 1.0])
        assert np.allclose(r.edge_profile(0.0), r.diag.matrix / 2, atol=0)

    def test_scalar_closed_form(self, scalar):
        for x in (0.2, 0.9):
            want = 0.5 - 1j * (1 - np.exp(-1j * x))
            assert scalar.edge_profile(x) == pytest.approx(want, abs=1e-12)

    def test_constant_without_theta1(self):
        z = np.zeros((2, 2))
        r = Realization.build(z, np.ones((2, 2)), np.eye(2), [2.0, 1.0], 1.0)
        assert np.allclose(r.edge_profile(0.8), r.diag.matrix / 2, atol=0)

    @pytest.mark.parametrize("seed, d", [(5, (3.0, 2.0, 0.5)),
                                         (4, (2.0, 1.0, 1.0))])
    def test_rows_match_integrated_kernel(self, seed, d):
        # The definition, as edge_profile was first written: row i is d_i
        # times row i of integrated_kernel(d_i x).
        r = random_realization(seed, 3, 2, d)
        for x in (0.0, 0.3, 1.0):
            want = np.array([d_i * r.integrated_kernel(d_i * x)[i]
                             for i, d_i in enumerate(r.diag.d)])
            got = r.edge_profile(x)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_domain_gate(self, scalar):
        with pytest.raises(ValueError):
            scalar.edge_profile(-0.01)
        with pytest.raises(ValueError):
            scalar.edge_profile(1.01)
        with pytest.raises(ValueError):
            scalar.edge_profile([0.5, np.nan])


class TestStructureIdentity:
    def test_generated_realizations_satisfy_identity(self):
        for seed in (31, 32, 33):
            r = random_realization(seed, 2, 3, [2.0, 1.0])
            assert r.identity_residual() <= 1e-12
            r.require_identity()  # must not raise

    def test_violation_is_flagged_with_residual(self):
        one = np.array([[1.0]])
        # beta Hermitian but theta1 != theta2: identity cannot hold.
        r = Realization.build(one, -one, -one, [1.0], 1.0)
        assert r.identity_residual() == pytest.approx(4.0, abs=1e-12)
        with pytest.raises(RealizationIdentityError) as info:
            r.require_identity()
        assert info.value.residual == pytest.approx(4.0, abs=1e-12)

    def test_zero_data_is_valid(self, zero_data):
        assert zero_data.identity_residual() == 0.0

