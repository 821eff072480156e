"""Closed-form inversion: fundamental solution, projector, kernel entries."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from dkinv import inversion, kernels, linalg
from dkinv.inversion import (
    FundamentalSolution,
    InverseKernel,
    SingularCornerReport,
    SingularOperatorError,
)

from conftest import (
    bench_shape_realization,
    random_realization,
    scalar_realization,
    singular_scalar_realization,
    two_level_singular_realization,
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
        # U^{-1} = J^H U^H J against an LU solve of U.
        r = random_realization(43, 2, 4, [1.5, 1.0])
        f = FundamentalSolution(r)
        eye = np.eye(f.state_dim)
        for y in (0.0, 0.6, 1.2):
            u = f.value(y)
            got = inversion.j_inverse(u)
            assert np.abs(got @ u - eye).max() <= 1e-9
            assert np.abs(got - np.linalg.solve(u, eye)).max() <= 1e-9

    def test_interval_is_largest_dilation_times_length(self):
        r = random_realization(44, 2, 2, [2.5, 1.0], length=0.8)
        f = FundamentalSolution(r)
        assert f.interval == pytest.approx(2.0)

    def test_segment_levels(self):
        # d = [1.7, 1.0]: level 3 (full projector) on [0, 1.0), level 2 on
        # [1.0, 1.7]; breakpoints belong to the segment on their right.
        r = random_realization(10, 2, 2, [1.7, 1.0], scale=0.6)
        f = FundamentalSolution(r)

        def level(y):
            [k], [exp] = f._segment_lookup([y])
            seg = f.segments[k]
            assert np.array_equal(
                exp, linalg.exp_samples(seg.gen_cross, [y - seg.left])[0])
            return seg.level

        assert level(0.0) == 3
        assert level(0.99) == 3
        assert level(1.0) == 2
        assert level(1.7) == 2

    def test_continuity_across_breakpoints(self):
        # The generator switches at d-breakpoints, but U itself must be
        # continuous there.
        r = random_realization(45, 3, 3, [2.0, 1.5, 1.0])
        f = FundamentalSolution(r)
        for b in (1.0, 1.5):
            eps = 1e-9
            gap = np.abs(f.value(b + eps) - f.value(b - eps)).max()
            assert gap <= 1e-6


def _four_exponential_segments(f):
    """Segment caches and corner rebuilt with an exponential per factor.

    This is the original construction: e^{L A} is computed afresh for
    every segment, including L = 0, instead of coming from one call.
    """
    gen = f.generator
    u_left = np.eye(f.state_dim, dtype=complex)
    out = []
    for seg in f.segments:
        right_cache = linalg.mat_exp(seg.left * gen) @ u_left
        out.append(right_cache)
        u_left = linalg.mat_exp(-seg.right * gen) \
            @ linalg.mat_exp((seg.right - seg.left) * seg.gen_cross) \
            @ right_cache
    return out, u_left


class TestSegmentCaches:
    @pytest.mark.parametrize("shape", ["bench_shape", "seed10", "scalar"])
    def test_chain_reuses_exponentials(self, shape, request, expm_slices,
                                       expm_calls):
        r = bench_shape_realization() if shape == "bench_shape" \
            else request.getfixturevalue(shape)
        f = FundamentalSolution(r)
        k = len(f.segments)
        # Two per chain step, one e^{L A} per inner breakpoint (12 -> 8 on
        # the benchmark shape, where k = 3), each one Pade slice, and all
        # of them one Pade call (one per exponential made 8).
        assert expm_slices[0] == 3 * k - 1
        assert expm_calls[0] == 1
        want, corner = _four_exponential_segments(f)
        for seg, right_cache in zip(f.segments, want):
            assert np.array_equal(seg.right_cache, right_cache)
        assert np.array_equal(f.corner(), corner)


    @pytest.mark.parametrize("shape", ["bench_shape", "seed10", "repeated"])
    def test_chain_matches_per_length_builds(self, shape, request):
        # One chain over many lengths against a FundamentalSolution built
        # for each length.  Up to 14 lengths every exponential is its own
        # Pade slice, so the caches agree bit for bit; beyond that they come
        # from anchors and Taylor polynomials, and agree to rounding.
        if shape == "bench_shape":
            r = bench_shape_realization()
        elif shape == "repeated":
            r = random_realization(4, 3, 2, (2.0, 1.0, 1.0))
        else:
            r = request.getfixturevalue(shape)
        names = ("right_cache", "exp_span")
        for count, tol in ((7, 0.0), (40, 1e-13)):
            xs = np.linspace(r.length / count, r.length, count)
            segments, corners = FundamentalSolution(r).chain(xs)
            for k, x in enumerate(xs):
                f = FundamentalSolution(r.with_length(x))
                scale = 1.0 + np.abs(f.corner()).max()
                assert np.abs(corners[k] - f.corner()).max() <= tol * scale
                for got, want in zip(segments, f.segments):
                    got = got.at(k)
                    assert (got.left, got.right) == (want.left, want.right)
                    for name in names:
                        gap = np.abs(getattr(got, name)
                                     - getattr(want, name)).max()
                        assert gap <= tol * scale

    def test_guard_refuses_one_ruined_matrix(self, seed10):
        # A stack of values of U passes; one matrix off the J-relation
        # makes the whole stack refused, naming its point and its norm.
        f = FundamentalSolution(seed10)
        points = np.array([0.3, 0.9, 1.4])
        us = f.value(points)
        inversion._require_j_unitary(us, points)
        us[1, 0, 0] += 0.5
        norm = np.linalg.norm(us[1])
        with pytest.raises(ValueError, match="lost J-unitarity") as err:
            inversion._require_j_unitary(us, points)
        assert "y = 0.9 " in str(err.value)
        assert f"||U|| = {norm:.3e}" in str(err.value)

    def test_guard_judges_huge_and_overflowed_matrices(self):
        # diag(s I, I / s) is J-unitary for real s.  At s = 1e200 its
        # squared norm overflows, yet the guard passes it, and it refuses
        # an overflowed U by name, with no RuntimeWarning either way.
        n = 2
        big = np.diag([1e200] * n + [1e-200] * n).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inversion._require_j_unitary(big[None], np.array([5.0]))
            bad = big.copy()
            bad[n, n + 1] = 1e197  # off the relation by 1e-3 relative
            with pytest.raises(ValueError, match="relative residual"):
                inversion._require_j_unitary(bad[None], np.array([5.0]))
            for value in (np.inf, np.nan):
                bad = big.copy()
                bad[0, 0] = value
                with pytest.raises(ValueError, match="y = 7 overflows"):
                    inversion._require_j_unitary(np.stack([big, bad]),
                                                 np.array([5.0, 7.0]))


class TestBatchedFactors:
    @pytest.mark.parametrize("shape", ["scalar", "seed10", "bench_shape",
                                       "repeated"])
    def test_match_docstring_formulas(self, shape, request):
        # left_row: e_i [theta2^H, theta1^H] e^{yA} U(y) at y = d_i x;
        # right_col: U(z)^{-1} e^{-zA} [-theta1; theta2] e_j at z = d_j t,
        # with U(z)^{-1} from an LU solve, not from the J-relation.
        if shape == "bench_shape":
            r = bench_shape_realization()
        elif shape == "repeated":
            r = random_realization(4, 3, 2, (2.0, 1.0, 1.0))
        else:
            r = request.getfixturevalue(shape)
        f = FundamentalSolution(r)
        xs = np.concatenate([np.linspace(0.0, r.length, 41), [0.5 / 3]])
        rows, cols = f.left_rows(xs), f.right_cols(xs)
        assert rows.shape == (r.p * xs.size, f.state_dim)
        assert cols.shape == (f.state_dim, r.p * xs.size)
        for i in range(r.p):
            for a, x in enumerate(xs):
                y = r.diag.d[i] * x
                prop = f.propagated(y)
                u = f.value(y)
                back = np.linalg.solve(u, np.eye(f.state_dim)) \
                    @ linalg.mat_exp(-y * f.generator)
                row_scale = np.linalg.norm(f.adj_row[i]) * np.linalg.norm(prop)
                col_scale = np.linalg.norm(back) * np.linalg.norm(f.stack[:, i])
                # The LU solve itself is accurate to about eps cond(U).
                col_tol = 1e-13 + 10 * np.finfo(float).eps * np.linalg.cond(u)
                for got in (rows[i * xs.size + a], f.left_row(i, x)):
                    assert np.linalg.norm(got - f.adj_row[i] @ prop) \
                        <= 1e-13 * row_scale
                for got in (cols[:, i * xs.size + a], f.right_col(i, x)):
                    assert np.linalg.norm(got - back @ f.stack[:, i]) \
                        <= col_tol * col_scale

    def test_points_outside_the_interval_are_refused(self, seed10):
        f = FundamentalSolution(seed10)
        for bad in (-1e-3, 1.001, np.nan):
            with pytest.raises(ValueError):
                f.left_rows([0.5, bad])
            with pytest.raises(ValueError):
                f.right_cols([bad])
            with pytest.raises(ValueError):
                f.left_row(0, bad)
            for name in ("value", "propagated"):
                with pytest.raises(ValueError):
                    getattr(f, name)([0.5, bad * f.interval])
        assert f.left_rows([]).shape == (0, f.state_dim)
        assert f.right_cols([]).shape == (f.state_dim, 0)
        assert f.propagated([]).shape == (0, f.state_dim, f.state_dim)


@st.composite
def _unstructured_realizations(draw):
    """theta1, theta2 and beta drawn independently, so the structure
    identity fails; p <= 3, n <= 4, d with repeats."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    d = sorted(draw(st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]),
                             min_size=p, max_size=p)), reverse=True)
    scale = draw(st.floats(0.05, 1.0))
    length = draw(st.floats(0.1, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def normal(rows, cols):
        return rng.standard_normal((rows, cols)) \
            + 1j * rng.standard_normal((rows, cols))

    return kernels.Realization.build(scale * normal(n, p),
                                     scale * normal(n, p),
                                     normal(n, n), d, length)


class TestJRelation:
    @settings(max_examples=40, deadline=None)
    @given(_unstructured_realizations())
    def test_holds_without_the_structure_identity(self, r):
        # Every A + Y_j is J-skew-Hermitian for any data, so U is
        # J-unitary and the column factors, taken from the rows, match
        # U(z)^{-1} e^{-zA} [-theta1; theta2] with U(z)^{-1} from an LU
        # solve.
        f = FundamentalSolution(r)
        j = f.j_matrix
        for seg in f.segments:
            g = seg.gen_cross
            assert np.linalg.norm(g.conj().T @ j + j @ g) \
                <= 1e-14 * (1.0 + np.linalg.norm(g))
        xs = np.linspace(0.0, r.length, 7)
        cols = f.right_cols(xs)
        for i in range(r.p):
            for a, x in enumerate(xs):
                y = r.diag.d[i] * x
                u, back = f.value(y), linalg.mat_exp(-y * f.generator)
                # Both routes round on the scale of the factors of
                # U^{-1} e^{-zA} stack, and an LU solve to eps cond(U).
                scale = np.linalg.norm(np.linalg.inv(u)) \
                    * np.linalg.norm(back) * np.linalg.norm(f.stack[:, i])
                tol = 1e-13 + 10 * np.finfo(float).eps * np.linalg.cond(u)
                want = np.linalg.solve(u, back @ f.stack[:, i])
                assert np.linalg.norm(cols[:, i * xs.size + a] - want) \
                    <= tol * scale


class TestBatchedValues:
    @pytest.mark.parametrize("shape", ["scalar", "seed10", "bench_shape",
                                       "repeated"])
    def test_batch_matches_each_point(self, shape, request, expm_slices):
        # value, propagated and U(y)^{-1} on an array of points against
        # the same method point by point, at y = 0, at every breakpoint, at
        # a and in between; 20 points take exp_samples' Taylor path, one
        # point the Pade kernel.
        if shape == "bench_shape":
            r = bench_shape_realization()
        elif shape == "repeated":
            r = random_realization(4, 3, 2, (2.0, 1.0, 1.0))
        else:
            r = request.getfixturevalue(shape)
        f = FundamentalSolution(r)
        ys = np.concatenate([f.lefts, np.linspace(0.0, f.interval, 20)])
        size = f.state_dim
        for method in (f.value, f.propagated,
                       lambda ys: inversion.j_inverse(f.value(ys))):
            batch = method(ys)
            assert batch.shape == (ys.size, size, size)
            for y, got in zip(ys, batch):
                want = method(float(y))
                assert want.shape == (size, size)
                assert np.linalg.norm(got - want) \
                    <= 1e-14 * np.linalg.norm(want)
            grid = method(ys[:6].reshape(2, 3))
            assert grid.shape == (2, 3, size, size)
            assert np.array_equal(grid.reshape(6, size, size),
                                  method(ys[:6]))
        # Unsorted and repeated points, every breakpoint and a, in y and
        # through d_i x: few enough per segment that each exponential is its
        # own Pade slice, so the gathered lookup must give every point the
        # bits of its own call.
        rng = np.random.default_rng(5)
        ys = rng.permutation(np.concatenate(
            [f.lefts, f.lefts, [f.interval, f.interval, 0.3 * f.interval]]))
        xs = (f.lefts[:, None] / r.diag.d).reshape(-1)
        xs = rng.permutation(np.concatenate(
            [xs[xs <= r.length], [r.length, r.length, 0.4 * r.length]]))
        before = expm_slices[0]
        props, rows, cols = f.propagated(ys), f.left_rows(xs), f.right_cols(xs)
        assert expm_slices[0] - before == ys.size + 2 * r.p * xs.size
        for y, got in zip(ys, props):
            assert np.array_equal(got, f.propagated(y))
        for i in range(r.p):
            for a, x in enumerate(xs):
                assert np.array_equal(rows[i * xs.size + a], f.left_row(i, x))
                assert np.array_equal(cols[:, i * xs.size + a],
                                      f.right_col(i, x))

    def test_value_at_zero_is_the_identity(self, seed10):
        f = FundamentalSolution(seed10)
        assert np.array_equal(f.value(0.0), np.eye(f.state_dim))
        assert np.array_equal(f.value([0.0, 0.0])[1], np.eye(f.state_dim))


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

    def test_stacked_corners_match_single(self, seed10):
        # branch_projectors on a stack against branch_projector per corner.
        funds = [FundamentalSolution(seed10.with_length(x))
                 for x in (0.3, 0.7, 1.0)]
        corners = np.array([f.corner() for f in funds])
        got = inversion.branch_projectors(corners)
        for proj, f in zip(got, funds):
            assert np.array_equal(proj, inversion.branch_projector(f))

    def test_stacked_singular_corner_reported(self, scalar):
        # A singular corner in a stack gets the report branch_projector gives.
        singular = FundamentalSolution(singular_scalar_realization())
        regular = FundamentalSolution(scalar)
        got = inversion.branch_projectors(
            np.array([regular.corner(), singular.corner()]))
        want = inversion.branch_projector(singular)
        assert np.array_equal(got[0], inversion.branch_projector(regular))
        assert isinstance(got[1], SingularCornerReport)
        assert got[1].rcond == want.rcond
        assert np.array_equal(got[1].null_basis, want.null_basis)

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

    @pytest.mark.parametrize("line_tol", [0.0, 1e-13])
    @pytest.mark.parametrize("shape", ["seed10", "repeated"])
    def test_block_values_match_where_formula(self, shape, line_tol, request):
        # Reference: point-by-point rows and columns and np.where over the
        # two full branch products, as block_values was first written.  The
        # repeated dilation d_2 = d_3 puts grid points exactly on branch
        # lines, which take the upper branch.
        r = random_realization(4, 3, 2, (2.0, 1.0, 1.0)) \
            if shape == "repeated" else request.getfixturevalue(shape)
        kern = InverseKernel.from_realization(r)
        f, p, d = kern.fund, r.p, r.diag.d
        xs = (np.arange(12) + 0.5) / 12
        ts = np.concatenate([xs, [0.3, 1.0]])
        rows = np.array([f.left_row(i, x) for i in range(p) for x in xs])
        cols = np.array([f.right_col(j, t) for j in range(p) for t in ts]).T
        upper = rows @ (kern.upper_factor @ cols)
        lower = -(rows @ (kern.p_cross @ cols))
        diff = np.repeat(d, xs.size)[:, None] * np.tile(xs, p)[:, None] \
            - (np.repeat(d, ts.size) * np.tile(ts, p))[None, :]
        want = np.where(diff >= -line_tol, upper, lower)
        got = kern.block_values(xs, ts, line_tol=line_tol)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

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
        xs = np.linspace(0.0, 1.0, 9)
        basis = inversion.null_basis_values(fund, report, xs)
        assert len(basis) == 1
        h = basis[0]
        h0 = h[0, 0]
        assert abs(h0) > 1e-12
        for x, row in zip(xs, h):
            got = row[0] / h0
            assert got == pytest.approx(np.exp(-1j * x), abs=1e-9)

    @pytest.mark.parametrize("d", [(2.0, 1.0), (1.5, 1.0)])
    def test_null_basis_of_rank_one_kernel(self, d):
        # With theta2 = c theta1 and beta = -1 the kernel is rank one,
        # c theta1_i theta1_j e^{-i(d_i x - d_j t)}, so S = I + c u u^H with
        # u_i(x) = theta1_i e^{-i d_i x} is singular at c = -1/||u||^2 =
        # -0.8, and u spans its kernel: two components on two levels, up to
        # x = l, where component 2 has left its last segment.
        r = two_level_singular_realization(d)
        fund = FundamentalSolution(r)
        report = inversion.branch_projector(fund)
        assert isinstance(report, SingularCornerReport)
        xs = np.linspace(0.0, 1.0, 9)
        [h] = inversion.null_basis_values(fund, report, xs)
        scale = h[0, 0]
        for x, row in zip(xs, h):
            want = r.theta1[0] * np.exp(-1j * np.array(d) * x)
            assert np.abs(row / scale - want).max() <= 1e-9

    def test_null_function_annihilated_by_discretization(self):
        from dkinv import discretization
        r = singular_scalar_realization()
        fund = FundamentalSolution(r)
        op = discretization.discretize_operator(r, 400)
        basis = inversion.null_basis_values(
            fund, inversion.branch_projector(fund), op.nodes)
        h = basis[0][:, 0]
        ratio = np.linalg.norm(op.matrix @ h) / np.linalg.norm(h)
        assert ratio <= 1e-6

