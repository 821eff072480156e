"""Closed-form inversion: fundamental solution, projector, kernel entries."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from dkinv import inversion
from dkinv.inversion import (
    FundamentalSolution,
    InverseKernel,
    SingularCornerReport,
    SingularOperatorError,
)

from conftest import (
    random_realization,
    scalar_realization,
    singular_scalar_realization,
    zero_realization,
)


# The scalar problem's U(y): the generator is nilpotent, so the solution
# is affine in y.
def scalar_u(y):
    return np.array([[1.0 - y, -y], [y, 1.0 + y]], dtype=complex)


class TestFundamentalSolution:
    def test_zero_data_is_identity(self, zero_data):
        f = FundamentalSolution(zero_data)
        for y in np.linspace(0.0, f.interval, 7):
            assert np.allclose(f.value(float(y)), np.eye(4), atol=1e-14)

    def test_scalar_closed_form(self, scalar):
        f = FundamentalSolution(scalar)
        for y in np.linspace(0.0, 1.0, 11):
            assert np.abs(f.value(float(y)) - scalar_u(y)).max() <= 1e-12

    def test_derivative_matches_generator(self):
        # dU/dy = B(y) C(y) U(y), checked by central differences, with
        # B(y) C(y) = e^{-yA} [-theta1; theta2] D^{-1} P(y) [theta2^H, theta1^H]
        # e^{yA} and P(y) = diag(d_i * l > y) built here from the definition.
        r = random_realization(41, 2, 3, [2.0, 1.0])
        f = FundamentalSolution(r)
        h = 1e-6
        for y in (0.3, 0.7, 1.5):
            alive = np.diag((r.diag.d * r.length > y).astype(float))
            coupling = expm(-y * f.generator) @ f.stack @ r.diag.inv_matrix \
                @ alive @ f.adj_row @ expm(y * f.generator)
            num = (f.value(y + h) - f.value(y - h)) / (2 * h)
            want = coupling @ f.value(y)
            assert np.abs(num - want).max() <= 1e-5 * (1 + np.abs(want).max())

    def test_j_unitarity(self):
        # U(y)^H J U(y) = J along the interval (relative to ||U||^2).
        r = random_realization(42, 3, 2, [2.0, 1.0, 1.0])
        f = FundamentalSolution(r)
        j = f.j_matrix
        for y in np.linspace(0.0, f.interval, 9):
            u = f.value(float(y))
            gap = np.abs(u.conj().T @ j @ u - j).max()
            assert gap <= 1e-9 * (1 + np.linalg.norm(u) ** 2)

    def test_inverse_multiplies_to_identity(self):
        r = random_realization(43, 2, 4, [1.5, 1.0])
        f = FundamentalSolution(r)
        for y in (0.0, 0.6, 1.2):
            prod = f.inverse(y) @ f.value(y)
            assert np.abs(prod - np.eye(f.state_dim)).max() <= 1e-9

    def test_interval_is_largest_dilation_times_length(self):
        r = random_realization(44, 2, 2, [2.5, 1.0], length=0.8)
        f = FundamentalSolution(r)
        assert f.interval == pytest.approx(2.0)

    def test_segment_levels(self):
        # d = [1.7, 1.0]: level 3 (full projector) on [0, 1.0), level 2 on
        # [1.0, 1.7]; breakpoints belong to the segment on their right.
        r = random_realization(10, 2, 2, [1.7, 1.0], scale=0.6)
        f = FundamentalSolution(r)
        assert f.segment_level(0.0) == 3
        assert f.segment_level(0.99) == 3
        assert f.segment_level(1.0) == 2
        assert f.segment_level(1.7) == 2

    def test_continuity_across_breakpoints(self):
        # The generator switches at d-breakpoints, but U itself must be
        # continuous there.
        r = random_realization(45, 3, 3, [2.0, 1.5, 1.0])
        f = FundamentalSolution(r)
        for b in (1.0, 1.5):
            eps = 1e-9
            gap = np.abs(f.value(b + eps) - f.value(b - eps)).max()
            assert gap <= 1e-6


class TestBranchProjector:
    def test_zero_data(self, zero_data):
        proj = inversion.branch_projector(FundamentalSolution(zero_data))
        n = zero_data.n
        want = np.zeros((2 * n, 2 * n))
        want[n:, n:] = np.eye(n)
        assert np.allclose(proj, want, atol=1e-14)

    def test_scalar_closed_form(self, scalar):
        # U(a) = [[0, -1], [1, 2]]: P = [[0, 0], [1/2, 1]].
        proj = inversion.branch_projector(FundamentalSolution(scalar))
        assert np.allclose(proj, [[0.0, 0.0], [0.5, 1.0]], atol=1e-12)

    def test_idempotent(self):
        for seed in (46, 47):
            r = random_realization(seed, 2, 3, [2.0, 1.0])
            proj = inversion.branch_projector(FundamentalSolution(r))
            assert isinstance(proj, np.ndarray)
            assert np.abs(proj @ proj - proj).max() <= 1e-12

    def test_singular_corner_reported(self):
        f = FundamentalSolution(singular_scalar_realization())
        report = inversion.branch_projector(f)
        assert isinstance(report, SingularCornerReport)
        assert report.rcond <= 1e-12
        assert report.null_basis.shape == (1, 1)


class TestInverseKernelScalar:
    def test_sherman_morrison_oracle(self, scalar):
        # The scalar kernel k(x - t) = exp(-i x) exp(i t) is rank one, so
        # (I + K)^{-1} = I - a <b, .> / (1 + int b a) with a(x) = exp(-ix),
        # b(t) = exp(it).  The denominator integral is evaluated here by
        # quadrature rather than by hand.
        inner = quad(lambda t: (np.exp(1j * t) * np.exp(-1j * t)).real,
                     0.0, 1.0)[0]
        kern = InverseKernel.from_realization(scalar)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x, t = rng.uniform(0.0, 1.0, 2)
            want = -np.exp(-1j * x) * np.exp(1j * t) / (1.0 + inner)
            assert kern.entry(0, 0, x, t) == pytest.approx(want, abs=1e-9)

    def test_both_branches_same_formula(self, scalar):
        kern = InverseKernel.from_realization(scalar)
        for x, t in ((0.8, 0.2), (0.2, 0.8)):
            want = -np.exp(1j * (t - x)) / 2
            assert kern.entry(0, 0, x, t) == pytest.approx(want, abs=1e-12)

    def test_invertible_flag(self, scalar):
        kern = InverseKernel.from_realization(scalar)
        assert kern.invertible
        assert kern.singular_report is None


class TestInverseKernelStructure:
    def test_zero_data_vanishes(self, zero_data):
        kern = InverseKernel.from_realization(zero_data)
        for x, t in ((0.3, 0.6), (0.9, 0.1)):
            for i in range(2):
                for j in range(2):
                    assert kern.entry(i, j, x, t) == pytest.approx(0.0, abs=1e-14)

    def test_block_values_match_entries(self, seed10):
        kern = InverseKernel.from_realization(seed10)
        xs = np.array([0.21, 0.55, 0.83])
        ts = np.array([0.34, 0.67])
        block = kern.block_values(xs, ts)
        p = seed10.p
        assert block.shape == (p * len(xs), p * len(ts))
        for i in range(p):
            for j in range(p):
                for a, x in enumerate(xs):
                    for b, t in enumerate(ts):
                        want = kern.entry(i, j, float(x), float(t))
                        assert block[i * len(xs) + a, j * len(ts) + b] == \
                            pytest.approx(want, abs=1e-10)

    def test_branch_jump_equals_theta_commutator(self, seed10):
        # Across the line d_i x = d_j t the kernel entry jumps by the
        # constant (theta1^H theta2 - theta2^H theta1)_{ij}, independent of
        # the position along the line.
        kern = InverseKernel.from_realization(seed10)
        r = seed10
        comm = r.theta1.conj().T @ r.theta2 - r.theta2.conj().T @ r.theta1
        d = np.diag(r.diag.matrix).real
        eps = 1e-8
        i, j = 0, 1
        for x in (0.3, 0.5):
            t = d[i] * x / d[j]
            jump = kern.entry(i, j, x + eps, t) - kern.entry(i, j, x - eps, t)
            assert jump == pytest.approx(comm[i, j], abs=1e-6)

    def test_on_line_uses_upper_branch(self, seed10):
        kern = InverseKernel.from_realization(seed10)
        d = np.diag(seed10.diag.matrix).real
        i, j, x = 0, 1, 0.4
        t = d[i] * x / d[j]
        on = kern.entry(i, j, x, t)
        above = kern.entry(i, j, x + 1e-10, t)
        assert on == pytest.approx(above, abs=1e-8)

    def test_hermitian_conjugate_symmetry(self, seed10):
        # S = S^* under the structure identity forces T(x, t)^H = T(t, x)
        # blockwise.
        kern = InverseKernel.from_realization(seed10)
        p = seed10.p
        x, t = 0.7, 0.25
        a = np.array([[kern.entry(i, j, x, t) for j in range(p)]
                      for i in range(p)])
        b = np.array([[kern.entry(i, j, t, x) for j in range(p)]
                      for i in range(p)])
        assert np.abs(a.conj().T - b).max() <= 1e-9


class TestSingularOperator:
    def test_entry_raises_with_report(self):
        kern = InverseKernel.from_realization(singular_scalar_realization())
        assert not kern.invertible
        assert isinstance(kern.singular_report, SingularCornerReport)
        with pytest.raises(SingularOperatorError) as info:
            kern.entry(0, 0, 0.3, 0.4)
        assert isinstance(info.value.report, SingularCornerReport)
        with pytest.raises(SingularOperatorError):
            kern.block_values(np.array([0.5]), np.array([0.5]))

    def test_null_basis_is_exponential(self):
        # For the c = -1 scaling the annihilated direction is spanned by
        # h(x) = exp(-i x); compare after normalizing the arbitrary scale.
        r = singular_scalar_realization()
        fund = FundamentalSolution(r)
        report = inversion.branch_projector(fund)
        basis = inversion.null_basis_functions(fund, report)
        assert len(basis) == 1
        h = basis[0]
        h0 = h(0.0)[0]
        assert abs(h0) > 1e-12
        for x in np.linspace(0.0, 1.0, 9):
            got = h(float(x))[0] / h0
            assert got == pytest.approx(np.exp(-1j * x), abs=1e-9)

    def test_null_function_annihilated_by_discretization(self):
        from dkinv import discretization
        r = singular_scalar_realization()
        fund = FundamentalSolution(r)
        basis = inversion.null_basis_functions(
            fund, inversion.branch_projector(fund))
        op = discretization.discretize_operator(r, 400)
        h = np.array([basis[0](float(x))[0] for x in op.nodes])
        ratio = np.linalg.norm(op.matrix @ h) / np.linalg.norm(h)
        assert ratio <= 1e-6

