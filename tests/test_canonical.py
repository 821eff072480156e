"""Weyl function, spectral data, and Hamiltonian recovery."""

import numpy as np
import pytest

from dkinv import canonical, linalg
from dkinv.canonical import (
    DefectiveEigenvalueError,
    HamiltonianGrid,
    IntervalSingularityError,
    WeylFunction,
    WeylPoleError,
    apply_triangular_adjoint,
    hamiltonian_factor,
    herglotz_data,
    inverse_kernel_for_interval,
    recover_hamiltonian,
    recovery_correction,
    similarity_factor,
    weyl_value,
)
from dkinv.kernels import Realization, RealizationIdentityError
from dkinv.linalg import SingularMatrixError, exchange_j

from conftest import (
    ACCEPTANCE_CASES,
    bench_shape_realization,
    hermitian_realization,
    matrix_im,
    random_realization,
    scalar_realization,
    singular_scalar_realization,
    zero_realization,
)
from oracles import (
    edge_input,
    energy_inequality,
    matrizant,
    quadrature_triangular_adjoint,
    spline_hamiltonian,
)


def scalar_weyl(lam):
    # Worked closed form for the scalar problem: phi(lam) = i/2 - 1/(1+lam).
    return 1j / 2 - 1 / (1 + lam)


def no_theta2_realization():
    """theta2 = 0 with the exact dissipative part the identity requires."""
    rng = np.random.default_rng(3)
    th1 = 0.6 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    rm = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rm = (rm + rm.conj().T) / 2
    dinv = np.diag([0.5, 1.0])
    beta = rm - 0.5j * (th1 @ dinv @ th1.conj().T)
    return Realization.build(th1, np.zeros((2, 2)), beta, [2.0, 1.0], 1.0)


class TestWeylValue:
    def test_constant_without_theta1(self):
        r = zero_realization(p=2, n=2)
        for lam in (1j, 0.4 + 0.2j, -2.0 + 5.0j):
            assert np.allclose(weyl_value(r, lam), 1j * r.diag.matrix / 2,
                               atol=1e-14)

    def test_scalar_closed_form(self, scalar):
        for lam in (1j, 0.5 + 0.5j, -0.3 + 2.0j, 3.0 - 1.0j):
            assert weyl_value(scalar, lam)[0, 0] == pytest.approx(
                scalar_weyl(lam), abs=1e-12)

    def test_imaginary_part_positive_in_upper_half_plane(self):
        for seed in (51, 52):
            r = random_realization(seed, 2, 3, [2.0, 1.0])
            phi = weyl_value(r, 0.7 + 1.0j)
            evals = np.linalg.eigvalsh(matrix_im(phi))
            assert evals[0] > 0.0

    def test_high_frequency_limit(self, seed10):
        w = WeylFunction(seed10)
        want = 1j * seed10.diag.matrix / 2
        assert np.allclose(w.high_frequency_limit(), want, atol=1e-14)
        got = weyl_value(seed10, 1e6j)
        assert np.abs(got - want).max() <= 1e-4

    def test_pole_raises(self, scalar):
        # The scalar state matrix has the real eigenvalue -1, a genuine
        # pole of phi.
        with pytest.raises(WeylPoleError):
            weyl_value(scalar, -1.0 + 0.0j)

    def test_wrapper_class_matches_function(self, seed10):
        w = WeylFunction(seed10)
        lam = 0.2 + 0.9j
        assert np.allclose(w.value(lam), weyl_value(seed10, lam), atol=0)


class TestHerglotzData:
    def test_flat_density_without_theta2(self):
        r = no_theta2_realization()
        data = herglotz_data(WeylFunction(r))
        assert data.points.size == 0
        for t in (-2.0, 0.3, 5.0):
            assert np.allclose(data.density(t), r.diag.matrix / (2 * np.pi),
                               atol=1e-14)

    def test_scalar_jump_at_minus_one(self, scalar):
        # phi(lam) = i/2 - 1/(1 + lam): simple pole at -1 with residue 1.
        data = herglotz_data(WeylFunction(scalar))
        assert data.points.shape == (1,)
        assert data.points[0] == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(data.jumps[0], [[1.0]], atol=1e-12)

    def test_density_is_stieltjes_inversion_of_weyl(self, seed10):
        # The continuous density must equal the boundary matrix-imaginary
        # part of phi divided by pi; both sides are evaluated through
        # entirely different code paths (resolvent of beta vs phi itself).
        data = herglotz_data(WeylFunction(seed10))
        for t in np.linspace(-3.0, 3.0, 7):
            want = matrix_im(weyl_value(seed10, complex(t, 0.0))) / np.pi
            assert np.abs(data.density(float(t)) - want).max() <= 1e-12

    def test_density_refused_at_a_real_eigenvalue(self, scalar):
        # beta = -1: within weyl_value's pole tolerance of t = -1 the
        # density is refused by name; just outside it, it is finite.
        data = herglotz_data(WeylFunction(scalar))
        for t in (-1.0, -1.0 + 5e-13):
            with pytest.raises(WeylPoleError, match=f"t = {t} "):
                data.density(t)
        assert np.isfinite(data.density(-1.0 + 1e-6)).all()

    def test_density_at_an_eigenvalue_theta2_misses(self, seed10):
        # A decoupled state (zero theta rows) with the real eigenvalue 0.4
        # leaves phi unchanged; P theta2 = 0 for its projector P, so the
        # density at t = 0.4 exists and is seed10's own.
        n, p = seed10.n, seed10.p
        beta = np.zeros((n + 1, n + 1), dtype=complex)
        beta[:n, :n] = seed10.beta
        beta[n, n] = 0.4

        def pad(theta):
            return np.vstack([theta, np.zeros((1, p))])

        ext = Realization.build(pad(seed10.theta1), pad(seed10.theta2), beta,
                                seed10.diag.d, seed10.length)
        data = herglotz_data(WeylFunction(ext))
        assert 0.4 in data.points
        want = herglotz_data(WeylFunction(seed10)).density(0.4)
        got = data.density(0.4)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_zero_data_density_at_its_eigenvalue(self, zero_data):
        # beta = 0 and theta = 0: phi = iD/2, so rho(0) = D / 2 pi.
        data = herglotz_data(WeylFunction(zero_data))
        assert np.array_equal(data.points, [0.0])
        assert np.array_equal(data.density(0.0),
                              zero_data.diag.matrix / (2 * np.pi))

    def test_density_positive_semidefinite(self, seed10):
        data = herglotz_data(WeylFunction(seed10))
        for t in np.linspace(-4.0, 4.0, 20):
            evals = np.linalg.eigvalsh(data.density(float(t)))
            assert evals[0] >= -1e-12

    def test_hermitian_state_matrix_jumps_match_eigensolver(self):
        # theta1 == theta2 makes beta Hermitian: the spectrum is real and
        # each jump is theta2^H P_k theta2 with P_k the orthogonal spectral
        # projector — all computable with a plain Hermitian eigensolver.
        r = hermitian_realization()
        evals, vecs = np.linalg.eigh(r.beta)
        data = herglotz_data(WeylFunction(r))
        assert data.points.shape == (3,)
        assert np.allclose(np.sort(data.points), np.sort(evals), atol=1e-9)
        for k, z in enumerate(data.points):
            sel = np.abs(evals - z) <= 1e-8
            pk = vecs[:, sel] @ vecs[:, sel].conj().T
            want = r.theta2.conj().T @ pk @ r.theta2
            assert np.abs(data.jumps[k] - want).max() <= 1e-9

    def test_hermitian_state_matrix_density_is_flat(self):
        r = hermitian_realization()
        data = herglotz_data(WeylFunction(r))
        assert np.allclose(data.density(0.77), r.diag.matrix / (2 * np.pi),
                           atol=1e-12)

    def test_defective_real_eigenvalue_rejected(self):
        beta = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DefectiveEigenvalueError):
            canonical._real_point_spectrum(beta, np.zeros((2, 1)))


class TestIntervalRestriction:
    def test_returns_kernel_for_shorter_interval(self, seed10):
        kern = inverse_kernel_for_interval(seed10, 0.5)
        assert kern.realization.length == pytest.approx(0.5)
        assert kern.invertible

    def test_rejects_points_beyond_interval(self, seed10):
        with pytest.raises(ValueError):
            inverse_kernel_for_interval(seed10, 1.5)

    def test_singular_restriction_is_reported(self):
        with pytest.raises(IntervalSingularityError) as info:
            inverse_kernel_for_interval(singular_scalar_realization(), 1.0)
        assert info.value.critical_x == pytest.approx(1.0)
        assert info.value.rcond <= 1e-12


def singular_hermitian_realization():
    """hermitian_realization with beta shifted by its smallest eigenvalue.

    beta stays Hermitian, so the structure identity still holds exactly,
    and it is now singular: only the profile route can recover gamma.
    """
    r = hermitian_realization()
    shift = np.linalg.eigvalsh(r.beta)[0]
    return Realization.build(r.theta1, r.theta2,
                             r.beta - shift * np.eye(r.n), r.diag, r.length)


def _adjoint_case(name):
    if name == "scalar":
        return scalar_realization()
    if name == "zero_data":
        return zero_realization()
    if name == "singular_hermitian":
        return singular_hermitian_realization()
    seed, p, n, d, scale = ACCEPTANCE_CASES[{"seed10": 9, "case4": 3,
                                             "bench_shape": 8}[name]]
    return random_realization(seed, p, n, d, 1.0, scale)


# case4 has d = (2, 1, 1); bench_shape is the benchmark's p = 3, n = 4 shape.
ADJOINT_CASES = [
    ("constant", "scalar"), ("constant", "seed10"), ("constant", "zero_data"),
    ("constant", "case4"), ("constant", "bench_shape"),
    ("profile", "scalar"), ("profile", "seed10"), ("profile", "zero_data"),
    ("profile", "singular_hermitian"), ("profile", "case4"),
    ("profile", "bench_shape"),
]


class TestTriangularAdjoint:
    def test_zero_data_returns_input(self, zero_data):
        kern = inverse_kernel_for_interval(zero_data, 1.0)
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert np.allclose(apply_triangular_adjoint(kern, m), m, atol=1e-13)

    def test_short_interval_limit_is_identity_action(self, seed10):
        x = 1e-6
        kern = inverse_kernel_for_interval(seed10, x)
        m = np.eye(2, dtype=complex)
        got = apply_triangular_adjoint(kern, m)
        assert np.abs(got - m).max() <= 1e-4

    def test_scalar_constant_input_closed_form(self, scalar):
        # f == 1 on [0, 1]: 1 + int_0^1 (-exp(i(r-1))/2) dr
        #                 = 1 + (i/2)(1 - exp(-i)).
        kern = inverse_kernel_for_interval(scalar, 1.0)
        got = apply_triangular_adjoint(kern, np.eye(1, dtype=complex))
        want = 1.0 + 0.5j * (1.0 - np.exp(-1j))
        assert got[0, 0] == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("kind,name", ADJOINT_CASES)
    def test_matches_quadrature_oracle(self, kind, name):
        # Block-exponential integrals against adaptive quadrature of the
        # same integrand.
        r = _adjoint_case(name)
        for x in (0.35, 1.0):
            kern = inverse_kernel_for_interval(r, x)
            if kind == "constant":
                rng = np.random.default_rng(5)
                const = (rng.standard_normal((r.p, 2 * r.p))
                         + 1j * rng.standard_normal((r.p, 2 * r.p)))
                got = apply_triangular_adjoint(kern, const)
                want = quadrature_triangular_adjoint(kern, const)
            else:
                const = np.hstack([0.5 * r.diag.matrix, np.eye(r.p)])
                got = apply_triangular_adjoint(kern, const, profile=True)
                want = quadrature_triangular_adjoint(kern, edge_input(r))
            assert np.abs(got - want).max() \
                <= 1e-11 * (1.0 + np.abs(want).max())

    def test_row_count_validated(self, seed10):
        kern = inverse_kernel_for_interval(seed10, 1.0)
        with pytest.raises(ValueError):
            apply_triangular_adjoint(kern, np.eye(3, dtype=complex))


class TestRecoveryCorrection:
    def test_vanishes_without_theta1(self):
        r = no_theta2_realization()
        # swap roles: build one with theta1 = 0 instead
        rng = np.random.default_rng(4)
        th2 = 0.6 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rm = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rm = (rm + rm.conj().T) / 2
        beta = rm - 0.5j * (th2 @ np.diag([0.5, 1.0]) @ th2.conj().T)
        r = Realization.build(np.zeros((2, 2)), th2, beta, [2.0, 1.0], 1.0)
        corr = recovery_correction(inverse_kernel_for_interval(r, 0.7))
        assert np.allclose(corr, 0.0, atol=1e-12)

    def test_scalar_against_quadrature_route(self, scalar):
        # The closed-form correction must reconcile the two gamma routes:
        # applying the adjoint factor to the constant row minus i times the
        # correction equals applying it to the x-dependent profile.
        x = 1.0
        kern = inverse_kernel_for_interval(scalar, x)
        const = np.hstack([
            0.5 * scalar.diag.matrix
            + 1j * scalar.theta2.conj().T @ np.linalg.solve(
                scalar.beta.conj().T, scalar.theta1),
            np.eye(1),
        ])
        base = apply_triangular_adjoint(kern, const)
        quad = quadrature_triangular_adjoint(kern, edge_input(scalar))
        implied = (base - quad)[:, :1] / 1j
        got = recovery_correction(kern)
        assert np.abs(got - implied).max() <= 1e-8


def _correction_rebuilding_inverses(kernel):
    """recovery_correction with U(d_s x)^{-1} rebuilt for every row.

    The formula as first written: fund.inverse(y) evaluates U(y) afresh,
    including at y = d_1 x, where U is the cached corner U(a).
    """
    r = kernel.realization
    fund, proj = kernel.fund, kernel.p_cross
    x, n, d = r.length, r.n, r.diag.d
    embed = np.vstack([np.eye(n), np.zeros((n, n))])
    corner_inv = fund.inverse(d[0] * x)
    right_factor = np.linalg.solve(r.beta.conj().T, r.theta1)
    out = np.empty((r.p, r.p), dtype=complex)
    for s in range(r.p):
        y = d[s] * x
        middle = proj @ corner_inv - fund.inverse(y) + np.eye(2 * n) - proj
        direct = r.theta2.conj().T[s, :] @ linalg.mat_exp(
            1j * y * r.beta.conj().T)
        bracket = fund.adj_row[s, :] @ fund.propagated(y) @ middle @ embed
        out[s, :] = (direct + bracket) @ right_factor
    return out


class TestRecoveryCorrectionReuse:
    # Case 9 has d = (2, 1.5, 1), case 7 has d = (2.5, 2.5, 1).
    @pytest.mark.parametrize("case", [8, 6])
    def test_corner_inverse_built_once(self, case, expm_slices):
        seed, p, n, d, scale = ACCEPTANCE_CASES[case]
        r = random_realization(seed, p, n, d, 1.0, scale)
        x = 0.8
        kern = inverse_kernel_for_interval(r, x)
        want = _correction_rebuilding_inverses(kern)
        gamma = hamiltonian_factor(r, x)
        before = expm_slices[0]
        got = recovery_correction(kern)
        # Two Pade slices per row: e^{-yA}, whose lower block also gives
        # the direct term, and e^{yA} U(y); U(y)^{-1}, the corner's
        # included, comes from their product without a further
        # exponential.
        assert expm_slices[0] - before == 2 * p
        assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(gamma).max())


class TestHamiltonianFactor:
    def test_edge_value(self, seed10):
        # gamma(0+) = [D/2, I].
        got = hamiltonian_factor(seed10, 1e-6)
        want = np.hstack([seed10.diag.matrix / 2, np.eye(2)])
        assert np.abs(got - want).max() <= 1e-4

    def test_metric_relation(self, seed10):
        # gamma(x) J gamma(x)^H = D at every sampled x.
        ex = exchange_j(seed10.p)
        dmat = seed10.diag.matrix
        for x in (0.2, 0.55, 1.0):
            gm = hamiltonian_factor(seed10, x)
            assert np.abs(gm @ ex @ gm.conj().T - dmat).max() <= 1e-7

    def test_routes_agree(self, scalar, seed10):
        # recover_hamiltonian's batched profile route against the per-point
        # closed route, on 50 points.
        for r in (scalar, seed10, bench_shape_realization()):
            xs = np.linspace(r.length / 50, r.length, 50)
            gammas = recover_hamiltonian(r, xs).gammas
            for x, gm in zip(xs, gammas):
                closed = hamiltonian_factor(r, x, route="closed")
                assert np.abs(gm - closed).max() \
                    <= 1e-12 * (1.0 + np.abs(gm).max())

    def test_closed_route_needs_invertible_state_matrix(self, zero_data):
        with pytest.raises(SingularMatrixError):
            hamiltonian_factor(zero_data, 0.5, route="closed")
        # auto takes the profile route, which needs no inverse of beta
        got = hamiltonian_factor(zero_data, 0.5, route="auto")
        want = np.hstack([zero_data.diag.matrix / 2, np.eye(2)])
        assert np.abs(got - want).max() <= 1e-10

    def test_unknown_route_rejected(self, seed10):
        with pytest.raises(ValueError):
            hamiltonian_factor(seed10, 0.5, route="bogus")

    def test_identity_gate(self):
        with pytest.raises(RealizationIdentityError):
            hamiltonian_factor(singular_scalar_realization(), 0.5)


class TestRecoverHamiltonian:
    def test_zero_data_constants(self, zero_data):
        xs = np.linspace(0.05, 1.0, 12)
        grid = recover_hamiltonian(zero_data, xs)
        dmat = zero_data.diag.matrix.real
        want_gamma = np.hstack([dmat / 2, np.eye(2)])
        want_h = want_gamma.conj().T @ want_gamma
        for k in range(len(xs)):
            assert np.abs(grid.gammas[k] - want_gamma).max() <= 1e-10
            assert np.abs(grid.hams[k] - want_h).max() <= 1e-10

    def test_hamiltonian_is_gamma_gram(self, seed10_recovery_grid):
        grid = seed10_recovery_grid
        for k in (0, 70, 199):
            gm = grid.gammas[k]
            assert np.abs(grid.hams[k] - gm.conj().T @ gm).max() <= 1e-12

    def test_hamiltonian_positive_semidefinite(self, seed10_recovery_grid):
        for k in (5, 60, 110):
            evals = np.linalg.eigvalsh(seed10_recovery_grid.hams[k])
            assert evals[0] >= -1e-10

    def test_metric_along_grid(self, seed10, seed10_recovery_grid):
        ex = exchange_j(seed10.p)
        dmat = seed10.diag.matrix
        worst = max(
            np.abs(gm @ ex @ gm.conj().T - dmat).max()
            for gm in seed10_recovery_grid.gammas)
        assert worst <= 1e-7

    def test_interpolation_hits_nodes(self, seed10_recovery_grid):
        grid = seed10_recovery_grid
        k = 30
        hamiltonian = spline_hamiltonian(grid)
        assert np.abs(hamiltonian(float(grid.xs[k])) - grid.hams[k]).max() \
            <= 1e-10

    def test_rejects_unsorted_sample_points(self, scalar):
        with pytest.raises(ValueError):
            recover_hamiltonian(scalar, np.array([0.5, 0.3, 0.8]))

    @pytest.mark.parametrize("count", [8, 40])
    def test_singular_length_raises_like_one_point(self, count):
        # The grid crosses x = 1, where the corner of the singular scalar
        # problem is singular; the batch stops there with the error the
        # per-point restriction raises.  (The problem breaks the structure
        # identity, so the batch is called below recover_hamiltonian.)  Up
        # to 14 points the corners are bit-equal to the per-point ones, so
        # the rcond is too.  A RuntimeWarning would fail the test.
        r = singular_scalar_realization().with_length(2.0)
        xs = np.arange(1, count + 1) * (2.0 / count)
        with pytest.raises(IntervalSingularityError) as batch:
            canonical._profile_factors(r, xs)
        with pytest.raises(IntervalSingularityError) as single:
            inverse_kernel_for_interval(r, 1.0)
        assert batch.value.critical_x == single.value.critical_x == 1.0
        assert batch.value.rcond <= 1e-12
        if count <= 14:
            assert batch.value.rcond == single.value.rcond

    @pytest.mark.parametrize("name", ["zero_data", "singular_hermitian"])
    def test_singular_state_matrix_matches_per_point_route(self, name):
        # Singular beta: the batch against apply_triangular_adjoint on the
        # inverse kernel built for each point.
        r = _adjoint_case(name)
        xs = np.linspace(r.length / 30, r.length, 30)
        gammas = recover_hamiltonian(r, xs).gammas
        const = np.hstack([0.5 * r.diag.matrix, np.eye(r.p)])
        for x, gm in zip(xs, gammas):
            kern = inverse_kernel_for_interval(r, x)
            want = apply_triangular_adjoint(kern, const, profile=True)
            assert np.abs(gm - want).max() \
                <= 1e-12 * (1.0 + np.abs(want).max())

    def test_exponentials_do_not_grow_with_samples(self, expm_slices,
                                                  monkeypatch):
        # No per-point mat_exp, and a Pade slice count that does not depend
        # on the number of samples (the per-point recovery made about 20
        # mat_exp calls per sample on this shape).  No module but linalg
        # holds mat_exp (test_exports), so refusing it there suffices.
        def refuse(m):
            raise AssertionError("per-point mat_exp in recovery")

        monkeypatch.setattr(linalg, "mat_exp", refuse)
        r = bench_shape_realization()
        counts = []
        for samples in (50, 500):
            before = expm_slices[0]
            recover_hamiltonian(r, np.linspace(r.length / samples, r.length,
                                               samples))
            counts.append(expm_slices[0] - before)
        assert counts[0] == counts[1] <= 200


class TestMatrizant:
    def test_identity_at_lambda_zero(self, scalar_recovery_grid):
        w = matrizant(scalar_recovery_grid, 0.0)
        assert np.allclose(w, np.eye(2), atol=1e-12)

    def test_j_relation(self, scalar_recovery_grid):
        # W(l, conj(lam))^H J W(l, lam) = J.
        j = exchange_j(1)
        lam = 0.4 + 0.8j
        w1 = matrizant(scalar_recovery_grid, lam)
        w2 = matrizant(scalar_recovery_grid, np.conj(lam))
        assert np.abs(w2.conj().T @ j @ w1 - j).max() <= 1e-7

    def test_inverse_via_j_conjugation(self, scalar_recovery_grid):
        # Equivalent restatement: W^{-1} = J W(conj(lam))^H J.
        j = exchange_j(1)
        lam = -0.2 + 1.1j
        w1 = matrizant(scalar_recovery_grid, lam)
        w2 = matrizant(scalar_recovery_grid, np.conj(lam))
        assert np.abs(j @ w2.conj().T @ j @ w1 - np.eye(2)).max() <= 1e-7

    def test_matches_discrete_transfer_matrix(self, scalar,
                                              scalar_recovery_grid):
        # Independent route: the transfer matrix assembled directly from
        # the realization's discretized operator, never touching gamma.
        from dkinv.discretization import discrete_matrizant, discretize_operator
        lam = 0.3 + 0.6j
        want = discrete_matrizant(scalar, discretize_operator(scalar, 400), [lam])[0]
        got = matrizant(scalar_recovery_grid, lam)
        assert np.abs(got - want).max() <= 1e-3

    def test_matrix_case_matches_discrete(self, seed10, seed10_recovery_grid):
        from dkinv.discretization import discrete_matrizant, discretize_operator
        lam = 0.3 + 0.6j
        want = discrete_matrizant(seed10, discretize_operator(seed10, 400), [lam])[0]
        got = matrizant(seed10_recovery_grid, lam)
        assert np.abs(got - want).max() <= 1e-3

    def test_trajectory_output(self, scalar_recovery_grid):
        nodes, values = matrizant(
            scalar_recovery_grid, 0.5j, return_trajectory=True)
        values = np.asarray(values)
        assert nodes.ndim == 1
        assert values.shape == (nodes.size, 2, 2)
        assert np.allclose(values[0], np.eye(2), atol=1e-12)
        # the last trajectory entry is the plain return value
        assert np.allclose(values[-1], matrizant(scalar_recovery_grid, 0.5j),
                           atol=1e-12)

    def test_coarse_grid_rejected(self, scalar_recovery_grid):
        g = scalar_recovery_grid
        coarse = HamiltonianGrid(g.xs[:50], g.gammas[:50], g.hams[:50], g.diag)
        with pytest.raises(ValueError):
            matrizant(coarse, 1j)


class TestEnergyInequality:
    def test_scalar_at_i(self, scalar, scalar_recovery_grid):
        # rhs = tr(matrix-Im phi(i)) / Im(i) = Im(i/2 - 1/(1+i)) = 1.
        lhs, rhs = energy_inequality(
            scalar_recovery_grid, WeylFunction(scalar), 1j)
        assert rhs == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < lhs <= rhs

    def test_zero_data_strict_slack(self, zero_data):
        xs = np.linspace(1.0 / 250, 1.0, 250)
        grid = recover_hamiltonian(zero_data, xs)
        lhs, rhs = energy_inequality(grid, WeylFunction(zero_data), 1j)
        assert lhs < rhs

    def test_accumulated_energy_grows_with_length(self, scalar,
                                                  scalar_recovery_grid,
                                                  scalar_recovery_grid_half):
        half_grid, half_r = scalar_recovery_grid_half
        lam = 0.5 + 0.9j
        lhs_half, _ = energy_inequality(half_grid, WeylFunction(half_r), lam)
        lhs_full, rhs = energy_inequality(
            scalar_recovery_grid, WeylFunction(scalar), lam)
        assert lhs_half <= lhs_full + 1e-12
        assert lhs_full <= rhs + 1e-9

    def test_requires_upper_half_plane(self, scalar, scalar_recovery_grid):
        with pytest.raises(ValueError):
            energy_inequality(scalar_recovery_grid, WeylFunction(scalar), 1.0)


class TestSimilarityFactor:
    def test_zero_data(self, zero_data):
        gm = np.hstack([zero_data.diag.matrix / 2, np.eye(2)]).astype(complex)
        fac = similarity_factor(gm, zero_data.diag)
        assert fac.residual <= 1e-8

    def test_scalar_midpoint(self, scalar):
        gm = hamiltonian_factor(scalar, 0.5)
        fac = similarity_factor(gm, scalar.diag)
        assert fac.residual <= 1e-7

    def test_transform_times_inverse_is_identity(self, seed10):
        gm = hamiltonian_factor(seed10, 0.7)
        fac = similarity_factor(gm, seed10.diag)
        dim = fac.transform.shape[0]
        assert np.abs(fac.transform @ fac.inverse - np.eye(dim)).max() <= 1e-9

    def test_conjugates_flat_form_to_hamiltonian(self, seed10):
        # L^{-1} diag(D, 0) L = J H(x) with H = gamma^H gamma: the recovered
        # Hamiltonian is similar to a constant coefficient matrix.
        x = 0.6
        gm = hamiltonian_factor(seed10, x)
        fac = similarity_factor(gm, seed10.diag)
        p = seed10.p
        h0 = np.zeros((2 * p, 2 * p), dtype=complex)
        h0[:p, :p] = seed10.diag.matrix
        want = exchange_j(p) @ (gm.conj().T @ gm)
        got = fac.inverse @ h0 @ fac.transform
        assert np.abs(got - want).max() <= 1e-9

    def test_residual_detects_wrong_inverse(self):
        # A gamma off the recovered one by 3e-7 still passes the metric
        # gate, but its closed-form L^{-1} no longer inverts L; the
        # similarity itself would hold by algebra for any such gamma.
        r = bench_shape_realization()
        gm = hamiltonian_factor(r, 1.0)
        rng = np.random.default_rng(0)
        gm = gm + 3e-7 * (rng.standard_normal(gm.shape)
                          + 1j * rng.standard_normal(gm.shape))
        fac = similarity_factor(gm, r.diag)
        assert fac.residual > 1e-6

    def test_rejects_invalid_factor(self, scalar):
        with pytest.raises(ValueError):
            similarity_factor(np.ones((1, 2), dtype=complex), scalar.diag)
