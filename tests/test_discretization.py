"""Midpoint discretization, positivity, and the independent ODE checks."""

import numpy as np
import pytest

from dkinv import discretization, inversion
from dkinv.discretization import (
    Rk4Fundamental,
    discrete_matrizant,
    discretize_inverse,
    discretize_operator,
    fourier_transform_residual,
    identity_residual,
    node_gram,
    positivity_spectrum,
    profile_samples,
    reverse_cholesky,
)
from dkinv.inversion import FundamentalSolution, InverseKernel

from conftest import (
    random_realization,
    scalar_realization,
    singular_scalar_realization,
    zero_realization,
)


def _nested_where_operator(r, count):
    """S_N built with the nested np.where of the original implementation."""
    from scipy.linalg import expm
    xs, h = discretization._midpoint_nodes(r.length, count)
    n, p, d = r.n, r.p, r.diag.d
    beta_h = r.beta.conj().T
    row_block = np.empty((p * count, n), dtype=complex)
    col_block = np.empty((n, p * count), dtype=complex)
    for i in range(p):
        args = 1j * (d[i] * xs)[:, None, None] * beta_h[None, :, :]
        row_block[i * count:(i + 1) * count, :] = np.einsum(
            "v,avw->aw", np.conj(r.theta2[:, i]), expm(args))
        col_block[:, i * count:(i + 1) * count] = np.einsum(
            "avw,w->va", expm(-args), r.theta1[:, i])
    upper = row_block @ col_block
    mirror = upper.conj().T
    coords = np.kron(d, xs)
    diff = coords[:, None] - coords[None, :]
    tol = 1e-13 * d[0] * max(r.length, 1.0)
    kernel = np.where(diff > tol, upper,
                      np.where(diff < -tol, mirror, 0.5 * (upper + mirror)))
    return np.eye(p * count, dtype=complex) + h * kernel, diff, tol


class TestDiscretizeOperator:
    @pytest.mark.parametrize("case", ["scalar", "seed10", "repeated"])
    def test_matches_nested_where_formula(self, case, request):
        # The in-place masked build must reproduce the reference bit for bit;
        # the repeated dilation (d_2 = d_3) puts exact collisions d_i x_a =
        # d_j x_b off the diagonal, so the averaged branch is exercised.
        if case == "repeated":
            r = random_realization(4, 3, 2, (2.0, 1.0, 1.0))
        else:
            r = request.getfixturevalue(case)
        count = 24
        want, diff, tol = _nested_where_operator(r, count)
        if case == "repeated":
            assert np.count_nonzero(np.abs(diff) <= tol) > r.p * count
        assert np.array_equal(discretize_operator(r, count).matrix, want)

    def test_zero_data_is_identity(self, zero_data):
        op = discretize_operator(zero_data, 32)
        assert op.size == 2 * 32
        assert np.allclose(op.matrix, np.eye(op.size), atol=1e-14)

    def test_matrix_is_hermitian(self, seed10):
        op = discretize_operator(seed10, 64)
        assert np.abs(op.matrix - op.matrix.conj().T).max() <= 1e-10

    def test_scalar_spectrum_is_one_and_two(self, scalar):
        # The scalar kernel is rank one with unit inner product, so S has
        # eigenvalue 2 on a single direction and 1 on its complement; the
        # midpoint rule reproduces both to O(1/N^2).
        op = discretize_operator(scalar, 200)
        evals = np.linalg.eigvalsh(0.5 * (op.matrix + op.matrix.conj().T))
        assert evals[0] == pytest.approx(1.0, rel=0.02)
        assert evals[-1] == pytest.approx(2.0, rel=0.02)
        # all but the top eigenvalue collapse onto 1
        assert evals[-2] == pytest.approx(1.0, rel=0.02)

    def test_nodes_and_weight(self, scalar):
        op = discretize_operator(scalar, 50)
        assert op.weight == pytest.approx(1.0 / 50)
        assert op.nodes[0] == pytest.approx(0.5 / 50)
        assert op.nodes[-1] == pytest.approx(1.0 - 0.5 / 50)
        assert op.components == 1

    def test_minimum_node_count(self, scalar):
        with pytest.raises(ValueError):
            discretize_operator(scalar, 7)


class TestComposition:
    def test_scalar_inverse_composes_to_identity(self, scalar):
        # The scalar kernel is rank one with a constant inner integrand,
        # which the midpoint rule integrates exactly: the composition is
        # exact up to roundoff at any node count.
        kern = InverseKernel.from_realization(scalar)
        for count in (100, 200):
            s_op = discretize_operator(scalar, count)
            t_op = discretize_inverse(kern, count)
            gap = np.linalg.norm(
                t_op.matrix @ s_op.matrix - np.eye(s_op.size), 2)
            assert gap <= 1e-12

    def test_matrix_case_composes_to_identity(self, seed10):
        kern = InverseKernel.from_realization(seed10)
        res = {}
        for count in (100, 200):
            s_op = discretize_operator(seed10, count)
            t_op = discretize_inverse(kern, count)
            gap = np.linalg.norm(
                t_op.matrix @ s_op.matrix - np.eye(s_op.size), 2)
            res[count] = gap
        assert res[200] <= 2.5e-2
        assert res[100] / res[200] >= 1.5


class TestPositivity:
    def test_identity_operator(self, zero_data):
        low, high = positivity_spectrum(discretize_operator(zero_data, 16))
        assert low == pytest.approx(1.0, abs=1e-12)
        assert high == pytest.approx(1.0, abs=1e-12)

    def test_scalar_extremes(self, scalar):
        low, high = positivity_spectrum(discretize_operator(scalar, 200))
        assert low == pytest.approx(1.0, rel=0.02)
        assert high == pytest.approx(2.0, rel=0.02)

    def test_valid_realization_is_positive(self, seed10):
        low, _ = positivity_spectrum(discretize_operator(seed10, 200))
        assert low > 0.0

    def test_singular_scaling_loses_positivity(self):
        # The c = -1 rescaled scalar problem annihilates exp(-i x), so the
        # discretized operator's smallest eigenvalue collapses to zero.
        low, _ = positivity_spectrum(
            discretize_operator(singular_scalar_realization(), 200))
        assert abs(low) <= 1e-10

    def test_rejects_non_hermitian(self):
        op = discretization.DiscreteOperator(
            nodes=np.array([0.5]), weight=1.0,
            matrix=np.array([[0.0, 1.0], [0.0, 0.0]]),
            components=np.array([0, 0]))
        with pytest.raises(ValueError):
            positivity_spectrum(op)


class TestIdentityResidual:
    def test_scalar_second_order(self, scalar):
        # Smooth scalar data: the discrete commutator identity converges
        # at second order, so halving h cuts the residual by ~4.
        r50 = identity_residual(scalar, 50)
        r100 = identity_residual(scalar, 100)
        assert r100 <= 5e-3
        assert r50 / r100 >= 3.0

    def test_matrix_case_converges(self, seed10):
        r100 = identity_residual(seed10, 100)
        r200 = identity_residual(seed10, 200)
        assert r200 <= 5e-3
        assert r100 / r200 >= 1.5

    def test_zero_data_is_exact(self, zero_data):
        assert identity_residual(zero_data, 64) <= 1e-13


class TestRk4Fundamental:
    def test_zero_data_identity(self, zero_data):
        rk = Rk4Fundamental(zero_data, steps=200)
        assert np.allclose(rk.value(0.7), np.eye(4), atol=1e-12)

    def test_scalar_closed_form(self, scalar):
        rk = Rk4Fundamental(scalar, steps=2000)
        for y in (0.25, 0.6, 1.0):
            want = np.array([[1 - y, -y], [y, 1 + y]], dtype=complex)
            assert np.abs(rk.value(y) - want).max() <= 1e-8

    def test_agrees_with_closed_form_solution(self, seed10):
        fund = FundamentalSolution(seed10)
        rk = Rk4Fundamental(seed10, steps=2000)
        for y in np.linspace(0.0, fund.interval, 7):
            gap = np.abs(rk.value(float(y)) - fund.value(float(y))).max()
            assert gap <= 1e-6

    def test_minimum_steps(self, scalar):
        with pytest.raises(ValueError):
            Rk4Fundamental(scalar, steps=50)

    def test_domain_gate(self, scalar):
        rk = Rk4Fundamental(scalar, steps=200)
        with pytest.raises(ValueError):
            rk.value(1.2)


class TestFourierResidual:
    def test_vanishes_without_theta1(self):
        r = zero_realization(p=2, n=2)
        assert fourier_transform_residual(r, 0.5 + 1.0j) <= 1e-8

    def test_scalar_at_i(self, scalar):
        assert fourier_transform_residual(scalar, 1j) <= 1e-6

    def test_matrix_case(self, seed10):
        assert fourier_transform_residual(seed10, 0.3 + 0.6j) <= 1e-5

    def test_requires_upper_half_plane(self, scalar):
        with pytest.raises(ValueError):
            fourier_transform_residual(scalar, 1.0 + 0.01j)


class TestDiscreteMatrizant:
    def test_lambda_zero_is_identity(self, seed10):
        w = discrete_matrizant(seed10, discretize_operator(seed10, 64), [0.0])[0]
        assert np.allclose(w, np.eye(2 * seed10.p), atol=1e-12)

    def test_scalar_against_independent_ode(self, scalar):
        # For the scalar problem H(x) = gamma(x)^H gamma(x) is available
        # through recovery; here just pin the J-relation the transfer
        # matrix must satisfy: W(l, conj(lam))^H J W(l, lam) = J.
        from dkinv.linalg import exchange_j
        lam = 0.4 + 0.8j
        j = exchange_j(1)
        w1, w2 = discrete_matrizant(scalar, discretize_operator(scalar, 400),
                                    [lam, np.conj(lam)])
        assert np.abs(w2.conj().T @ j @ w1 - j).max() <= 1e-3

    @pytest.mark.parametrize("name", ["scalar", "seed10"])
    def test_matches_dense_solves(self, name, request):
        # Oracle: the defining formula with two dense solves per lambda,
        # against the one LU factor and the per-component triangular solves.
        from dkinv.linalg import exchange_j
        r = request.getfixturevalue(name)
        count = 64
        op = discretize_operator(r, count)
        lams = [0.0, 0.3 + 0.6j, -0.9 + 0.7j]
        got = discrete_matrizant(r, op, lams)
        assert got.shape == (len(lams), 2 * r.p, 2 * r.p)
        pi = profile_samples(r, op.nodes)
        a_mat = discretization._volterra_matrix(r, count, op.weight)
        for lam, w in zip(lams, got):
            weighted = np.linalg.solve(op.matrix, np.linalg.solve(
                np.eye(op.size) - lam * a_mat, pi))
            want = np.eye(2 * r.p) + 1j * lam * op.weight * (
                exchange_j(r.p) @ pi.conj().T @ weighted)
            assert np.linalg.norm(w - want) <= 1e-12 * np.linalg.norm(want)


class TestNodeGram:
    def test_shape_and_hermiticity(self, seed10):
        g = node_gram(seed10, 0.6, 200)
        assert g.shape == (2 * seed10.p, 2 * seed10.p)
        assert np.abs(g - g.conj().T).max() <= 1e-10

    def test_monotone_in_x(self, scalar):
        # The restricted quadratic form grows with the interval.
        g1 = node_gram(scalar, 0.3, 200)
        g2 = node_gram(scalar, 0.9, 200)
        evals = np.linalg.eigvalsh(g2 - g1)
        assert evals[0] >= -1e-8

    def test_domain_gate(self, scalar):
        with pytest.raises(ValueError):
            node_gram(scalar, 1.5, 100)


class TestReverseCholesky:
    def test_reconstructs_and_is_upper(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = a @ a.conj().T + 6 * np.eye(6)
        rmat = reverse_cholesky(m)
        assert np.allclose(rmat @ rmat.conj().T, m, atol=1e-10)
        assert np.abs(np.tril(rmat, -1)).max() <= 1e-12

    def test_identity(self):
        assert np.allclose(reverse_cholesky(np.eye(4)), np.eye(4), atol=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            reverse_cholesky(np.diag([1.0, -1.0]))


class TestProfileSamples:
    def test_shape_and_indicator_block(self, seed10):
        xs = np.linspace(0.1, 1.0, 5)
        prof = profile_samples(seed10, xs)
        p = seed10.p
        assert prof.shape == (p * 5, 2 * p)
        # right block is the component indicator
        for i in range(p):
            for a in range(5):
                row = prof[i * 5 + a]
                want = np.zeros(p)
                want[i] = 1.0
                assert np.allclose(row[p:], want, atol=0)

    def test_left_block_matches_edge_profile(self, seed10):
        xs = np.array([0.35])
        prof = profile_samples(seed10, xs)
        ep = seed10.edge_profile(0.35)
        for i in range(seed10.p):
            assert np.allclose(prof[i, :seed10.p], ep[i], atol=1e-14)
