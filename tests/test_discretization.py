"""Midpoint discretization, positivity, and the independent ODE checks."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, lu_factor, lu_solve, solve_triangular

from dkinv import discretization, inversion, kernels, linalg
from dkinv.discretization import (
    composition_residual,
    discrete_matrizant,
    discretize_inverse,
    discretize_operator,
    positivity_spectrum,
    profile_samples,
)
from dkinv.inversion import FundamentalSolution, InverseKernel

from conftest import (
    ACCEPTANCE_CASES,
    bench_shape_realization,
    hermitian_realization,
    random_realization,
    scalar_realization,
    singular_scalar_realization,
    zero_realization,
)
from oracles import (
    Rk4Fundamental,
    fourier_transform_residual,
    identity_residual,
    midpoint_integrator,
    nested_where_operator,
    node_gram,
    sequential_nystrom_matvec,
    volterra_matrix,
)


def _named_case(name, request):
    """A fixture by name, or "bench_shape": acceptance case 9 (p = 3, n = 4)."""
    if name == "bench_shape":
        return bench_shape_realization()
    return request.getfixturevalue(name)


def _refuse_eigvalsh(*args, **kwargs):
    raise AssertionError("dense eigvalsh called")


def _pade_samples(gen, ys):
    """e^{y gen} for every y, each from scipy's Pade expm."""
    return expm(np.asarray(ys)[:, None, None] * gen)


def _case(name, request):
    """_named_case, plus "repeated": d = (2, 1, 1), whose equal dilations put
    exact collisions d_i x_a = d_j x_b off the diagonal."""
    if name == "repeated":
        return random_realization(4, 3, 2, (2.0, 1.0, 1.0))
    return _named_case(name, request)


def _relative(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _coupled_blocks(diag, rows, cols):
    """A SemiseparableOperator from Hermitian diagonal blocks (B, w, w) and
    rank-n couplings: with weight 1 and zero steps, only neighbouring
    blocks meet, S_{c+1, c} = rows[c + 1] @ cols[c] and its adjoint."""
    blocks, width = diag.shape[:2]
    size, state = blocks * width, rows.shape[2]
    return discretization.SemiseparableOperator(
        nodes=np.arange(size, dtype=float), weight=1.0, components=1,
        slots=np.arange(size), sizes=np.full(blocks, width),
        diag=diag.astype(complex), rows=rows.astype(complex),
        cols=cols.astype(complex),
        steps=np.zeros((blocks, state, state), dtype=complex))


def _dense_operator(matrix):
    """A Hermitian matrix as a SemiseparableOperator of one block."""
    size = matrix.shape[0]
    return _coupled_blocks(matrix[None], np.zeros((1, size, 1)),
                           np.zeros((1, 1, size)))


def _laplacian(size, width=48):
    """The second-difference operator tridiag(-1, 2, -1) on ``size`` points
    in blocks of ``width``, coupled through the blocks' end points; its
    dense matrix for reference."""
    lap = (2.0 * np.eye(size) - np.eye(size, k=1)
           - np.eye(size, k=-1)).astype(complex)
    blocks = size // width
    rows, cols = np.zeros((blocks, width, 1)), np.zeros((blocks, 1, width))
    rows[:, 0, 0], cols[:, 0, -1] = -1.0, 1.0
    diag = np.broadcast_to(lap[:width, :width], (blocks, width, width))
    return _coupled_blocks(diag, rows, cols), lap


def _count_factors(monkeypatch):
    """Record every SemiseparableOperator.factor shift from now on."""
    shifts = []
    factor = discretization.SemiseparableOperator.factor
    monkeypatch.setattr(discretization.SemiseparableOperator, "factor",
                        lambda op, sigma: shifts.append(sigma)
                        or factor(op, sigma))
    return shifts


class TestDiscretizeOperator:
    @pytest.mark.parametrize("case", ["scalar", "seed10", "repeated"])
    def test_matches_nested_where_formula(self, case, request):
        # The blocked build splits each diagonal block at its first node,
        # not at 0, and carries the rest through contraction generators; on
        # l = 1 it agrees with the nested-where matrix to rounding, with
        # exponentials from exp_samples or from one Pade expm per node.  The
        # repeated dilation exercises the averaged branch off the diagonal.
        r = _case(case, request)
        count = 24
        want, diff, tol = nested_where_operator(r, count)
        if case == "repeated":
            assert np.count_nonzero(np.abs(diff) <= tol) > r.p * count
        got = discretize_operator(r, count).matrix
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        pade, _, _ = nested_where_operator(r, count, _pade_samples)
        assert np.abs(got - pade).max() <= 1e-13 * np.abs(pade).max()

    @pytest.mark.parametrize("case", ["scalar", "seed10", "repeated",
                                      "bench_shape", "zero_data"])
    @pytest.mark.parametrize("count", [24, 400])
    def test_matvec_and_matrix_match_dense_oracle(self, case, count,
                                                  request):
        r = _case(case, request)
        op = discretize_operator(r, count)
        want = nested_where_operator(r, count)[0]
        rng = np.random.default_rng(5)
        x = rng.standard_normal((op.size, 3)) + 1j * rng.standard_normal(
            (op.size, 3))
        assert _relative(op.matvec(x), want @ x) <= 1e-12
        assert _relative(op.matvec(x[:, 0]), want @ x[:, 0]) <= 1e-12
        assert _relative(op.matrix, want) <= 1e-12

    @pytest.mark.parametrize("length", [10.0, 20.0, 40.0])
    @pytest.mark.parametrize("count", [100, 400])
    def test_long_interval_matches_sequential_reference(self, length, count):
        # The dense build cancels terms of size e^{l ||beta - beta^H|| / 2}
        # (1e45 of the answer at l = 40); the blocked generators run every
        # exponential forward in time.  At l = 40, N = 100 a fixed cut of
        # 48 nodes per block spans far more than 2 / ||beta - beta^H||.
        seed, p, n, d, scale = ACCEPTANCE_CASES[8]
        r = random_realization(seed, p, n, d, length, scale)
        op = discretize_operator(r, count)
        x = np.random.default_rng(6).standard_normal(op.size) + 0j
        want = sequential_nystrom_matvec(r, count, x)
        assert _relative(op.matvec(x), want) <= 1e-12
        assert _relative(op.matrix @ x, want) <= 1e-12
        growth = 0.5 * np.linalg.norm(r.beta - r.beta.conj().T, 2)
        z = np.sort(np.kron(r.diag.d, op.nodes))
        starts = np.concatenate([[0], np.cumsum(op.sizes)])
        spans = z[starts[1:] - 1] - z[starts[:-1]]
        assert spans.max() * growth <= 1.0
        assert op.sizes.max() <= discretization.BLOCK_SIZE

    @pytest.mark.parametrize("length", [1.0, 10.0, 40.0])
    def test_one_transition_per_block(self, length, monkeypatch):
        # The standard generator form: one exp_samples call holds a row, an
        # off-diagonal column and a diagonal-block column per node and one
        # step per block.  Off-diagonal columns and steps run forward in
        # time, so under the structure identity they are contractions.
        seed, p, n, d, scale = ACCEPTANCE_CASES[8]
        r = random_realization(seed, p, n, d, length, scale)
        calls = []

        def recording(m, s):
            out = linalg.exp_samples(m, s)
            calls.append((np.asarray(s), out))
            return out

        monkeypatch.setattr(discretization, "exp_samples", recording)
        op = discretize_operator(r, 100)
        size, blocks = op.size, op.sizes.size
        assert len(calls) == 1
        times, exps = calls[0]
        assert times.shape == (3 * size + blocks,)
        forward = np.r_[size:2 * size, 3 * size:times.size]
        assert times[forward].min() >= 0.0
        assert op.steps.shape == (blocks, n, n)
        assert np.linalg.norm(op.steps, 2, axis=(1, 2)).max() <= 1 + 1e-12
        assert np.linalg.norm(exps[forward], 2, axis=(1, 2)).max() \
            <= 1 + 1e-12

    def test_ties_stay_in_one_block(self):
        # d = (1, 1): every node has an exact twin, and no cut separates
        # a pair, so blocks hold an even number of nodes.
        r = random_realization(6, 2, 4, (1.0, 1.0))
        op = discretize_operator(r, 100)
        assert np.all(op.sizes % 2 == 0)
        want = nested_where_operator(r, 100)[0]
        assert _relative(op.matrix, want) <= 1e-12

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


def _traced_peak(fn):
    """(result, peak bytes traced while fn runs)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDiscretizeInverse:
    def test_samples_through_few_exponentials(self, expm_slices):
        # 2 * 3 * 400 row and column factors; per segment a few anchors,
        # not one Pade exponential per factor (2,460 calls before).
        kern = InverseKernel.from_realization(bench_shape_realization())
        before = expm_slices[0]
        discretize_inverse(kern, 400)
        assert expm_slices[0] - before <= 100

    def test_builds_in_place(self):
        # The dense T_N is 1200 x 1200 complex (23 MB).  Besides it only
        # the -P branch product is held; the old build also held the
        # np.where result, the float branch-line mask and I + h*block
        # (82 MB in all).  The operator itself holds no such array, so
        # the trace covers the on-demand dense build.
        kern = InverseKernel.from_realization(bench_shape_realization())
        op = discretize_inverse(kern, 400)
        dense, peak = _traced_peak(lambda: op.matrix)
        assert peak <= 2.5 * dense.nbytes

    @pytest.mark.parametrize("count", [24, 100])
    @pytest.mark.parametrize("name", [f"seed{case[0]}" for case in
                                      ACCEPTANCE_CASES]
                             + ["scalar", "hermitian", "zero"])
    def test_matvecs_match_dense(self, name, count, expm_slices):
        # The prefix-sum product and its suffix-sum adjoint against the
        # dense T_N and its conjugate transpose.  Seeds 4, 6 and 7 repeat
        # a dilation, so d_i x_a = d_j x_a exactly for some i != j: those
        # pairs lie on the branch line and must take the upper branch.
        if name.startswith("seed"):
            seed, p, n, d, scale = ACCEPTANCE_CASES[int(name[4:]) - 1]
            r = random_realization(seed, p, n, d, 1.0, scale)
        else:
            r = {"scalar": scalar_realization, "zero": zero_realization,
                 "hermitian": hermitian_realization}[name]()
        kern = InverseKernel.from_realization(r)
        before = expm_slices[0]
        op = discretize_inverse(kern, count)
        # Zero data have the generator 0, whose exponentials are the
        # identity without a Pade slice.
        assert expm_slices[0] - before <= (100 if name != "zero" else 0)
        dense = op.matrix
        rng = np.random.default_rng(count)
        v = rng.standard_normal((len(dense), 2)) \
            + 1j * rng.standard_normal((len(dense), 2))
        assert _relative(op.matvec(v), dense @ v) <= 1e-12
        assert _relative(op.matvec(v, adjoint=True),
                         dense.conj().T @ v) <= 1e-12
        assert _relative(op.matvec(v[:, 0]), dense @ v[:, 0]) <= 1e-12

        d, x, a = r.diag.d, op.nodes[count // 3], count // 3
        ties = [(i, j) for i in range(r.p) for j in range(r.p)
                if i != j and d[i] == d[j]]
        assert bool(ties) == (name in ("seed4", "seed6", "seed7"))
        unit = np.eye(len(dense))
        for i, j in ties:
            xi, tj = i * count + a, j * count + a   # z_xi == z_tj exactly
            got = op.matvec(unit[tj])[xi]
            upper = op.weight * kern.entry(i, j, x, x)
            jump = op.weight * abs(kern.fund.left_row(i, x)
                                   @ kern.fund.right_col(j, x))
            # The lower branch would be off by jump.
            assert jump > 1e-6 and abs(got - upper) <= 1e-12 * jump
            assert abs(op.matvec(unit[xi], adjoint=True)[tj]
                       - np.conj(got)) <= 1e-12 * jump

    @pytest.mark.parametrize("name", ["scalar", "seed10", "bench_shape"])
    def test_matches_identity_plus_scaled_block(self, name, request):
        r = _named_case(name, request)
        kern = InverseKernel.from_realization(r)
        count = 24
        h = r.length / count
        xs = (np.arange(count) + 0.5) * h
        tol = 1e-13 * r.diag.d[0] * max(r.length, 1.0)
        want = np.eye(r.p * count) + h * kern.block_values(xs, xs,
                                                           line_tol=tol)
        assert np.array_equal(discretize_inverse(kern, count).matrix, want)


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

    @pytest.mark.parametrize("name", ["seed10", "bench_shape"])
    def test_residual_matches_dense_product(self, name, request):
        r = _named_case(name, request)
        count = 100
        s_op = discretize_operator(r, count)
        kern = InverseKernel.from_realization(r)
        dense = linalg.spectral_norm(discretize_inverse(kern, count).matrix
                                     @ s_op.matrix - np.eye(s_op.size))
        got = composition_residual(kern, s_op)
        assert abs(got - dense) <= 1e-12 * dense

    def test_exact_composition_reads_zero(self, zero_data, scalar):
        # zero_data has T_N = S_N = I, so the first iterate maps to exactly
        # zero; the scalar problem composes exactly up to roundoff.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert composition_residual(
                InverseKernel.from_realization(zero_data),
                discretize_operator(zero_data, 32)) == 0.0
            assert composition_residual(
                InverseKernel.from_realization(scalar),
                discretize_operator(scalar, 200)) <= 1e-14

    def test_refuses_singular_kernel_before_any_work(self, expm_slices):
        r = singular_scalar_realization()
        kern = InverseKernel.from_realization(r)
        s_op = discretize_operator(r, 32)
        before = expm_slices[0]
        with pytest.raises(inversion.SingularOperatorError,
                           match=r"^operator is not invertible \(corner block "
                                 r"rcond .*\); query the null basis instead$"):
            composition_residual(kern, s_op)
        assert expm_slices[0] == before

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
        low = positivity_spectrum(discretize_operator(zero_data, 16))
        assert low == pytest.approx(1.0, abs=1e-12)

    def test_scalar_extremes(self, scalar):
        low = positivity_spectrum(discretize_operator(scalar, 200))
        assert low == pytest.approx(1.0, rel=0.02)

    def test_valid_realization_is_positive(self, seed10):
        assert positivity_spectrum(discretize_operator(seed10, 200)) > 0.0

    def test_singular_scaling_loses_positivity(self):
        # The c = -1 rescaled scalar problem annihilates exp(-i x), so the
        # discretized operator's smallest eigenvalue collapses to zero.
        # Within the certificate's delta of zero it has no sign, and
        # positivity_spectrum refuses it.
        op = discretize_operator(singular_scalar_realization(), 200)
        assert abs(op.min_eig) <= 1e-10
        with pytest.raises(np.linalg.LinAlgError,
                           match="singular to rounding: lambda_min"):
            positivity_spectrum(op)

    @pytest.mark.parametrize("name",
                             ["scalar", "seed10", "zero_data", "bench_shape"])
    def test_lanczos_matches_eigvalsh(self, name, request, monkeypatch):
        op = discretize_operator(_named_case(name, request), 200)
        want = np.linalg.eigvalsh(0.5 * (op.matrix + op.matrix.conj().T))[0]
        # The common path: one Lanczos run and one factor, at theta - delta.
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse_eigvalsh)
        shifts = _count_factors(monkeypatch)
        got = positivity_spectrum(op)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert shifts == [got - 1e-10 * max(1.0, abs(got))]
        # The value is kept on the operator: a second read costs nothing.
        assert positivity_spectrum(op) == got and len(shifts) == 1

    def test_certificate_catches_eigenvector_missed_by_lanczos(
            self, monkeypatch):
        # The lowest eigenvector u is orthogonal to the Lanczos start vector
        # and H maps the complement of u into itself, so the Krylov space
        # never sees the eigenvalue 0.5 and Lanczos converges to 1.0.  The
        # complement holds only two eigenvalues, so Lanczos stops after two
        # steps, before rounding can grow a component along u.
        size = 60
        start = linalg._start_vector(size)
        rng = np.random.default_rng(3)
        cols = rng.standard_normal((size, size)) \
            + 1j * rng.standard_normal((size, size))
        cols[:, 0] -= np.vdot(start, cols[:, 0]) * start
        basis, _ = np.linalg.qr(cols)
        spectrum = np.concatenate([[0.5], np.ones(size - 2), [3.0]])
        herm = (basis * spectrum) @ basis.conj().T
        herm = 0.5 * (herm + herm.conj().T)
        op = _dense_operator(herm)
        assert discretization.lanczos_minimum(op.matvec, size) \
            == pytest.approx(1.0, abs=1e-9)
        assert op.factor(1.0 - 1e-10) is None
        # Inertia finds 0.5 without a dense spectrum: 34 factors double the
        # gap below 1.0 from delta = 1e-10 past 0.5, and 32 halve the
        # bracket back to delta.
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse_eigvalsh)
        shifts = _count_factors(monkeypatch)
        low = positivity_spectrum(op)
        assert 0.5 - 1e-14 <= low <= 0.5 + 1e-10
        assert len(shifts) == 66

    def test_lanczos_gives_up_at_its_cap(self, monkeypatch):
        # The 1200-point second-difference operator has its two lowest
        # eigenvalues at 6.8e-6 and 2.7e-5, at the bottom of (0, 4): 300
        # steps do not resolve the minimum to 1e-12, and the last Ritz
        # value, still an upper bound, is returned.  Past step 32 the
        # tridiagonal is solved at every 4th step and the last, not at
        # every step.
        size = 1200
        _, lap = _laplacian(size)
        sizes = []
        dense = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: sizes.append(a.shape[0]) or dense(a))
        theta = discretization.lanczos_minimum(lambda v: lap @ v, size)
        assert theta == pytest.approx(8.996e-6, rel=1e-3)
        every = discretization.LANCZOS_EVERY_STEP
        assert sizes == [k + 1 for k in range(discretization.LANCZOS_MAX_DIM)
                         if k < every or k % 4 == 3]

    def test_minimum_past_lanczos_cap_is_certified(self, monkeypatch):
        # The same Laplacian, blocked: Lanczos stops at its cap 2.2e-6
        # above the minimum, and doubling and bisection on factors bring
        # the answer to within delta = 1e-10 above it.
        op, lap = _laplacian(1200)
        x = np.linspace(-1.0, 1.0, op.size) + 0.5j
        assert np.allclose(op.matvec(x), lap @ x, rtol=0, atol=1e-15)
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse_eigvalsh)
        low = positivity_spectrum(op)
        want = 4.0 * np.sin(np.pi / (2 * (op.size + 1))) ** 2
        assert want == pytest.approx(6.8424792e-6, abs=1e-13)
        assert 0.0 <= low - want <= 1e-10

    @pytest.mark.parametrize("case", ["unconverged", "singular"])
    def test_no_dense_fallback(self, case, seed10, monkeypatch):
        # Lanczos stopped by its step cap, and a minimum within the
        # certificate's margin of zero (the singular scalar scaling): both
        # are decided by factors to within delta, with no dense spectrum.
        if case == "unconverged":
            monkeypatch.setattr(discretization, "LANCZOS_MAX_DIM", 2)
            op = discretize_operator(seed10, 100)
        else:
            op = discretize_operator(singular_scalar_realization(), 200)
        want = np.linalg.eigvalsh(0.5 * (op.matrix + op.matrix.conj().T))[0]
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse_eigvalsh)
        assert abs(op.min_eig - want) <= 1e-10

    @pytest.mark.parametrize("case", ["nan", "inf", "no_factor"])
    def test_breakdown_raises_instead_of_looping(self, case, seed10,
                                                 monkeypatch):
        # A non-finite Ritz value, or a factor that never exists, cannot be
        # certified: the search below theta stops at -||S_N|| and raises.
        op = discretize_operator(seed10, 32)
        if case == "no_factor":
            shifts = []
            monkeypatch.setattr(discretization.SemiseparableOperator,
                                "factor", lambda op, sigma: shifts.append(
                                    sigma) and None)
        else:
            monkeypatch.setattr(discretization, "lanczos_minimum",
                                lambda matvec, size: float(case))
        with pytest.raises(np.linalg.LinAlgError):
            positivity_spectrum(op)
        if case == "no_factor":
            assert 30 <= len(shifts) <= 40

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_factor_refuses_non_finite_shift(self, sigma, seed10):
        # LAPACK's Cholesky does not flag a NaN pivot: a NaN or -inf shift
        # returned a factor full of NaN, which reads as a certificate that
        # no eigenvalue lies below the shift, and +inf returned None.
        op = discretize_operator(seed10, 32)
        with pytest.raises(ValueError, match="not finite"):
            op.factor(sigma)

    @pytest.mark.parametrize("name", ["scalar", "seed10", "zero_data",
                                      "bench_shape", "repeated"])
    def test_nystrom_matrix_is_exactly_hermitian(self, name, request):
        # The case positivity_spectrum takes without symmetrizing; d = (2,
        # 1, 1) adds the averaged exact collisions off the diagonal.
        r = random_realization(4, 3, 2, (2.0, 1.0, 1.0)) \
            if name == "repeated" else _named_case(name, request)
        m = discretize_operator(r, 64).matrix
        assert np.array_equal(m, m.conj().T)

    def test_hermitian_input_is_not_copied(self):
        # Lanczos runs on the matvec and the certificate on the block
        # factor: no dense S_N (23 MB here) is assembled, copied or shifted.
        # Lanczos's 300-vector basis takes a quarter of that.
        op = discretize_operator(bench_shape_realization(), 400)
        _, peak = _traced_peak(lambda: positivity_spectrum(op))
        assert peak <= 0.5 * 16 * op.size ** 2
        assert "matrix" not in vars(op)

    @pytest.mark.parametrize("name", ["seed10", "bench_shape", "repeated"])
    @pytest.mark.parametrize("offset", [-1e-8, 1e-8])
    def test_factor_exists_exactly_where_dense_cholesky_does(
            self, name, offset, request):
        op = discretize_operator(_case(name, request), 100)
        sigma = np.linalg.eigvalsh(op.matrix)[0] + offset
        try:
            np.linalg.cholesky(op.matrix - sigma * np.eye(op.size))
            dense = True
        except np.linalg.LinAlgError:
            dense = False
        assert dense is (offset < 0)
        assert (op.factor(sigma) is not None) is dense

    @pytest.mark.parametrize("name", ["scalar", "seed10", "bench_shape",
                                      "repeated"])
    def test_solve_matches_dense_solve(self, name, request):
        op = discretize_operator(_case(name, request), 100)
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal((op.size, 4)) \
            + 1j * rng.standard_normal((op.size, 4))
        for sigma in (0.0, 0.25):
            shifted = op.matrix - sigma * np.eye(op.size)
            got = op.factor(sigma).solve(rhs)
            assert _relative(got, np.linalg.solve(shifted, rhs)) <= 1e-12
            assert _relative(op.factor(sigma).solve(rhs[:, 0]),
                             np.linalg.solve(shifted, rhs[:, 0])) <= 1e-12

    def test_long_interval_minimum_is_certified(self, monkeypatch):
        # Seed 9 at l = 40: the dense build read lambda_min about -5.5e46.
        seed, p, n, d, scale = ACCEPTANCE_CASES[8]
        op = discretize_operator(random_realization(seed, p, n, d, 40.0,
                                                    scale), 400)
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse_eigvalsh)
        assert positivity_spectrum(op) == pytest.approx(0.0110, abs=5e-5)


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


def _dense_resolvents(r, count, h, lams, samples):
    """(I - i lambda d_i T)^{-1} on each component block, by np.linalg.solve."""
    tri = midpoint_integrator(count, h)
    return np.array([np.vstack([
        np.linalg.solve(np.eye(count) - 1j * lam * d_i * tri,
                        samples[i * count:(i + 1) * count])
        for i, d_i in enumerate(r.diag.d)]) for lam in lams])


# verify's five lambdas, then lambda = 0, a real and a lower-half-plane one:
# the scan is forward substitution and needs no sign of Im lambda.
_SCAN_LAMBDAS = [0.3 + 0.6j, -0.4 + 0.9j, 1.1 + 0.5j, 0.2 + 1.4j,
                 -0.9 + 0.7j, 0.0, 2.0, 0.4 - 0.8j]


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

    @pytest.mark.parametrize("name",
                             ["scalar", "seed10", "repeated", "bench_shape"])
    def test_matches_dense_solves(self, name, request):
        # Oracle: the defining formula with two dense solves per lambda,
        # against the one solve of S^H and the scan for the resolvents.
        from dkinv.linalg import exchange_j
        r = random_realization(4, 3, 2, (2.0, 1.0, 1.0)) \
            if name == "repeated" else _named_case(name, request)
        count = 64
        op = discretize_operator(r, count)
        lams = _SCAN_LAMBDAS
        got = discrete_matrizant(r, op, lams)
        assert got.shape == (len(lams), 2 * r.p, 2 * r.p)
        pi = profile_samples(r, op.nodes)
        a_mat = volterra_matrix(r, count, op.weight)
        for lam, w in zip(lams, got):
            weighted = np.linalg.solve(op.matrix, np.linalg.solve(
                np.eye(op.size) - lam * a_mat, pi))
            want = np.eye(2 * r.p) + 1j * lam * op.weight * (
                exchange_j(r.p) @ pi.conj().T @ weighted)
            assert np.linalg.norm(w - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("name", ["scalar", "seed10", "bench_shape"])
    def test_matches_per_lambda_lu_solve(self, name, request):
        # Reference: the earlier evaluation with one LU solve of S per
        # lambda, Pi^H S^{-1} R, against the one solve (S^{-H} Pi)^H R.
        from dkinv.linalg import exchange_j
        r = _named_case(name, request)
        count = 64
        op = discretize_operator(r, count)
        lams = [0.0, 0.3 + 0.6j, -0.9 + 0.7j, 2.0]
        pi = profile_samples(r, op.nodes)
        tri = midpoint_integrator(count, op.weight)
        factor = lu_factor(op.matrix)
        got = discrete_matrizant(r, op, lams)
        for lam, w in zip(lams, got):
            resolvent = np.vstack([
                solve_triangular(np.eye(count) - 1j * lam * d_i * tri,
                                 pi[i * count:(i + 1) * count], lower=True)
                for i, d_i in enumerate(r.diag.d)])
            want = np.eye(2 * r.p) + 1j * lam * op.weight * (
                exchange_j(r.p) @ pi.conj().T @ lu_solve(factor, resolvent))
            assert np.linalg.norm(w - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("length", [1.0, 10.0, 40.0])
    def test_scan_matches_dense_solves_on_long_intervals(self, length):
        # At l = 40 the lower-half-plane lambda grows the resolvent to about
        # 1e27 of its data; the scan keeps forward substitution's relative
        # accuracy there too.
        seed, p, n, d, scale = ACCEPTANCE_CASES[8]
        r = random_realization(seed, p, n, d, length, scale)
        count = 400
        h = length / count
        xs = (np.arange(count) + 0.5) * h
        pi = profile_samples(r, xs)
        lams = np.array(_SCAN_LAMBDAS, dtype=complex)
        got = discretization._midpoint_resolvents(pi, r.diag.d, h, lams)
        want = _dense_resolvents(r, count, h, lams, pi)
        assert got.shape == want.shape == (lams.size, p * count, 2 * p)
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)

    def test_uncertified_operator_is_refused(self):
        # The singular scalar scaling at N = 400: lambda_min(S_N) is zero up
        # to rounding and a factor at 0 exists, yet W_N built on it reached
        # entries of 4.3e15.  The certificate's margin refuses it.
        r = singular_scalar_realization()
        op = discretize_operator(r, 400)
        assert abs(op.min_eig) <= 1e-10
        assert op.factor(0.0) is not None
        with pytest.raises(np.linalg.LinAlgError, match="not certified"):
            discrete_matrizant(r, op, [1j])

    def test_exactly_singular_matrix_raises(self):
        # theta2 = -2 theta1 on the two-level rank-one problem: S_N = I +
        # c u u^H with c ||u||^2 about -2.5, indefinite, so the certified
        # lambda_min is negative and no solve is tried.
        r = kernels.Realization.build([[1.0, 0.5]], [[-2.0, -1.0]],
                                      [[-1.0]], [2.0, 1.0], 1.0)
        op = discretize_operator(r, 16)
        assert np.linalg.eigvalsh(op.matrix)[0] < -1.0
        with pytest.raises(np.linalg.LinAlgError):
            discrete_matrizant(r, op, [0.3 + 0.6j])


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

    @pytest.mark.parametrize("name", ["scalar", "seed10", "bench_shape"])
    def test_matches_per_point_edge_profile(self, name, request):
        # Reference: one edge_profile call per node, as profile_samples
        # was first written, against the single stacked exponential.
        r = _named_case(name, request)
        xs = np.linspace(0.0, r.length, 41)
        want = np.zeros((r.p * xs.size, 2 * r.p), dtype=complex)
        for a, x in enumerate(xs):
            prof = r.edge_profile(float(x))
            for i in range(r.p):
                want[i * xs.size + a, :r.p] = prof[i, :]
                want[i * xs.size + a, r.p + i] = 1.0
        got = profile_samples(r, xs)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_left_block_matches_edge_profile(self, seed10):
        xs = np.array([0.35])
        prof = profile_samples(seed10, xs)
        ep = seed10.edge_profile(0.35)
        for i in range(seed10.p):
            assert np.allclose(prof[i, :seed10.p], ep[i], atol=1e-14)
