"""Dense-matrix helpers: exponentials, spectra, guarded solves."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from dkinv import linalg
from dkinv.inversion import FundamentalSolution
from dkinv.linalg import DimensionError, SingularMatrixError

from conftest import bench_shape_realization, random_realization


class TestMatExp:
    def test_zero_matrix_gives_identity(self):
        assert np.allclose(linalg.mat_exp(np.zeros((3, 3))), np.eye(3),
                           rtol=0, atol=1e-15)

    def test_diagonal_phase(self):
        # exp(diag(i pi, 0)) = diag(-1, 1)
        m = np.diag([1j * np.pi, 0.0])
        assert np.allclose(linalg.mat_exp(m), np.diag([-1.0, 1.0]),
                           rtol=0, atol=1e-14)

    def test_nilpotent_generator_is_affine(self):
        # M = [[-1, -1], [1, 1]] squares to zero, so exp(y M) = I + y M.
        m = np.array([[-1.0, -1.0], [1.0, 1.0]])
        assert np.allclose(m @ m, 0.0, atol=1e-15)
        for y in (0.25, 1.0, -3.0, 7.5):
            assert np.allclose(linalg.mat_exp(y * m), np.eye(2) + y * m,
                               rtol=0, atol=1e-12 * (1 + abs(y)))

    def test_inverse_is_exp_of_negation(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        prod = linalg.mat_exp(m) @ linalg.mat_exp(-m)
        assert np.allclose(prod, np.eye(4), atol=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            linalg.mat_exp(np.zeros((2, 3)))


def _segment_generators(r):
    """(A + Y_j, segment length) for every segment of r's fundamental solution."""
    return [(seg.gen_cross, seg.right - seg.left)
            for seg in FundamentalSolution(r).segments]


def _exp_samples_cases():
    rng = np.random.default_rng(17)
    upper = np.triu(rng.standard_normal((8, 8))
                    + 1j * rng.standard_normal((8, 8)), 1)
    skewed = np.diag(rng.standard_normal(8)) + 10.0 * upper  # non-normal
    skewed *= 100.0 / np.linalg.norm(skewed, 1)
    cases = [("random_8x8_norm100", skewed, np.linspace(-0.3, 0.5, 401)),
             ("random_8x8_norm100-away_from_0", skewed,
              np.linspace(0.2, 0.5, 301))]
    l4 = random_realization(9, 3, 4, (2, 1.5, 1), 4.0, 0.6)
    for name, r in (("bench_shape", bench_shape_realization()), ("l4", l4)):
        for k, (gen, h) in enumerate(_segment_generators(r)):
            times = np.linspace(0.0, h, 201)
            cases.append((f"{name}-seg{k}", gen, times))
            cases.append((f"{name}-seg{k}-negative", gen, -times))
    return cases


class TestExpSamples:
    def test_taylor_degree_is_smallest_meeting_the_bound(self):
        def bound(k):
            return 0.5 ** (k + 1) / math.factorial(k + 1) * math.exp(0.5)
        assert bound(linalg.TAYLOR_DEGREE) < 2.0 ** -53
        assert bound(linalg.TAYLOR_DEGREE - 1) >= 2.0 ** -53

    @pytest.mark.parametrize("m,times", [
        pytest.param(m, times, id=name) for name, m, times in _exp_samples_cases()])
    def test_matches_expm(self, m, times, expm_slices):
        got = linalg.exp_samples(m, times)
        # The polynomial path ran, with one anchor per grid point in range.
        assert expm_slices[0] < times.size
        assert expm_slices[0] <= np.ptp(times) * np.linalg.norm(m, 1) + 2
        want = expm(times[:, None, None] * m)
        assert got.shape == want.shape
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)

    def test_zero_matrix_gives_identity(self):
        got = linalg.exp_samples(np.zeros((3, 3)), np.linspace(-2, 2, 50))
        assert np.array_equal(got, np.broadcast_to(np.eye(3), got.shape))

    @pytest.mark.parametrize("times", [[], [0.7], [-0.7], [-1.3, 0.0, 0.4]])
    def test_few_samples_are_their_own_anchors(self, times, expm_slices):
        m = _segment_generators(bench_shape_realization())[0][0]
        before = expm_slices[0]
        got = linalg.exp_samples(m, times)
        assert got.shape == (len(times), 8, 8)
        assert expm_slices[0] - before == len(times)
        for t, g in zip(times, got):
            assert np.array_equal(g, expm(t * m))

    def test_complex_times_are_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.exceptions.ComplexWarning):
                linalg.exp_samples(np.eye(2), np.array([0.5 + 0.1j]))


class TestEigSpectrum:
    def test_diagonal(self):
        vals = linalg.eig_spectrum(np.diag([1.0, 2.0]))
        assert np.allclose(sorted(vals.real), [1.0, 2.0], atol=1e-14)
        assert np.allclose(vals.imag, 0.0, atol=1e-14)

    def test_nilpotent_double_zero(self):
        vals = linalg.eig_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(vals, 0.0, atol=1e-12)

    def test_hermitian_2x2_against_quadratic_formula(self):
        # Spectrum of [[a, b], [conj(b), c]] from the characteristic
        # polynomial: (a + c)/2 +- sqrt(((a - c)/2)^2 + |b|^2).
        rng = np.random.default_rng(11)
        a, c = rng.standard_normal(2)
        b = complex(*rng.standard_normal(2))
        m = np.array([[a, b], [np.conj(b), c]])
        mid = (a + c) / 2
        rad = np.sqrt(((a - c) / 2) ** 2 + abs(b) ** 2)
        got = np.sort(linalg.eig_spectrum(m).real)
        assert np.allclose(got, [mid - rad, mid + rad], atol=1e-12)
        assert np.allclose(linalg.eig_spectrum(m).imag, 0.0, atol=1e-12)


class TestSolve:
    def test_identity(self):
        r = np.arange(6.0).reshape(3, 2)
        assert np.allclose(linalg.solve(np.eye(3), r), r, atol=1e-15)

    def test_diagonal_scaling(self):
        x = linalg.solve(np.array([[2.0]]), np.array([[4.0]]))
        assert np.allclose(x, [[2.0]], atol=1e-15)

    def test_random_backward_error(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = rng.standard_normal((6, 2))
        x = linalg.solve(m, r)
        num = linalg.frob(m @ x - r)
        den = linalg.frob(m) * linalg.frob(x) + linalg.frob(r)
        assert num / den <= linalg.SOLVE_RESIDUAL

    def test_singular_raises_with_rcond(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
        with pytest.raises(SingularMatrixError) as info:
            linalg.solve(m, np.eye(2))
        assert info.value.rcond < linalg.RCOND_MIN

    def test_ill_conditioned_resolvent_still_solves(self):
        # Near-pole resolvent solves give ||x|| >> ||rhs||; the backward
        # error contract must accept them as long as kappa stays above
        # RCOND_MIN.
        beta = np.diag([-1.0, 0.5])
        lam = -1.0 + 1e-8j
        m = lam * np.eye(2) - beta
        x = linalg.solve(m, np.eye(2))
        assert linalg.frob(x) > 1e7  # genuinely near the pole
        num = linalg.frob(m @ x - np.eye(2))
        den = linalg.frob(m) * linalg.frob(x) + linalg.frob(np.eye(2))
        assert num / den <= linalg.SOLVE_RESIDUAL

    def test_zero_rhs_gives_zero(self):
        m = np.array([[2.0, 1.0], [0.0, 1.0]])
        assert np.allclose(linalg.solve(m, np.zeros((2, 2))), 0.0)

    def test_rhs_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.solve(np.eye(2), np.zeros((3, 1)))


class TestStructureMatrices:
    def test_exchange_is_involution(self):
        for p in (1, 2, 3):
            j = linalg.exchange_j(p)
            assert np.allclose(j @ j, np.eye(2 * p), atol=0)
            assert np.allclose(j[:p, p:], np.eye(p), atol=0)
            assert np.allclose(j[:p, :p], 0.0, atol=0)

    def test_symplectic_square_is_minus_identity(self):
        for n in (1, 3):
            j = linalg.symplectic_j(n)
            assert np.allclose(j @ j, -np.eye(2 * n), atol=0)
            assert np.allclose(j.conj().T, -j, atol=0)


class TestNorms:
    def test_frob_matches_numpy(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert linalg.frob(a) == pytest.approx(np.linalg.norm(a), rel=1e-14)

    def test_spectral_norm_matches_svd(self):
        rng = np.random.default_rng(9)
        for shape in ((4, 4), (3, 6), (7, 2)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            want = np.linalg.norm(a, 2)
            assert linalg.spectral_norm(a) == pytest.approx(want, rel=1e-7)

    def test_spectral_norm_zero_matrix(self):
        assert linalg.spectral_norm(np.zeros((3, 3))) == 0.0


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        m = linalg.as_matrix([[1, 2], [3, 4]])
        assert m.dtype == complex and m.shape == (2, 2)

    def test_rejects_ragged(self):
        with pytest.raises((DimensionError, ValueError)):
            linalg.as_matrix([[1, 2], [3]])

    def test_rejects_three_dimensional(self):
        with pytest.raises(DimensionError):
            linalg.as_matrix(np.zeros((2, 2, 2)))
