"""Dense-matrix helpers: exponentials, spectra, guarded solves."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from dkinv import linalg
from dkinv.inversion import FundamentalSolution
from dkinv.linalg import DimensionError, SingularMatrixError

from conftest import (ACCEPTANCE_CASES, bench_shape_realization,
                      random_realization)
from oracles import mp_expm


# Generator of the plane rotations e^{s m}.
_ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


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

    @pytest.mark.parametrize("m", [
        2.0 ** 53 * _ROTATION, 1e200 * _ROTATION, 1e308 * _ROTATION,
        np.full((2, 2), 1e308)], ids=["2^53", "1e200", "1e308", "inf_norm"])
    def test_undetermined_exponential_is_refused(self, m):
        # Finite entries, but ||m||_1 >= 2^53 (the last one's column sums
        # overflow) leaves no digit of e^m determined; scaling and squaring
        # returns zeros or overflows.
        with pytest.raises(ValueError, match="no digit"):
            linalg.mat_exp(m)

    def test_overflowing_exponential_is_refused(self):
        # e^710 is above the largest double.
        with pytest.raises(ValueError, match="overflows"):
            linalg.mat_exp(710.0 * np.eye(2))


def _mpmath_cases():
    """(name, m, s): e^{s m} for the generators of the acceptance cases and
    a few structured matrices.  For a realization the generators are the
    state matrix A and the innermost segment's A + Y, at s = d_1 l."""
    cases = []
    for seed, p, n, d, scale in ACCEPTANCE_CASES:
        for length in (1.0, 4.0):
            fund = FundamentalSolution(
                random_realization(seed, p, n, d, length, scale))
            for gen_name, gen in (("A", fund.generator),
                                  ("A+Y", fund.segments[0].gen_cross)):
                cases.append((f"case{seed}-l{length:g}-{gen_name}", gen,
                              fund.interval))
    rng = np.random.default_rng(17)
    upper = np.triu(rng.standard_normal((8, 8))
                    + 1j * rng.standard_normal((8, 8)), 1)
    skewed = np.diag(rng.standard_normal(8)) + 10.0 * upper
    # 1-norms up to 100, and just under each Pade degree's theta_m, where
    # that degree is least accurate.
    for norm in (0.0149, 0.2539, 0.9504, 2.0978, 5.3719, 100.0):
        cases.append((f"non_normal_8x8_norm{norm:g}",
                      skewed * norm / np.linalg.norm(skewed, 1), 1.0))
    cases.append(("diagonal_phase", np.diag([1j * np.pi, 0.0]), 1.0))
    cases.append(("nilpotent", np.array([[-1.0, -1.0], [1.0, 1.0]]), 7.5))
    return cases


@pytest.mark.parametrize("m,s", [pytest.param(m, s, id=name)
                                 for name, m, s in _mpmath_cases()])
def test_exponentials_match_mpmath(m, s):
    # mat_exp at s, and exp_samples at the last of 201 times up to s, both
    # normwise within 1e-13 of the 40-digit exponential.  When
    # ||s m||_1 <= theta_13 no squaring amplifies the Pade error, which the
    # degree choice keeps at unit roundoff u, so the bound is then
    # 4 u (1 + ||s m||_1), the conditioning of e^{s m} times a few u.
    want = mp_expm(s * m)
    norm = np.linalg.norm(s * m, 1)
    tol = 1e-13
    if norm <= linalg._PADE_THETA[-1]:
        tol = 4 * np.finfo(float).eps / 2 * (1.0 + norm)
    for got in (linalg.mat_exp(s * m),
                linalg.exp_samples(m, np.linspace(0.0, s, 201))[-1]):
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


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
              np.linspace(0.2, 0.5, 301)),
             # Three passes over one range: each anchor holds three runs.
             ("random_8x8_norm100-sawtooth", skewed,
              np.tile(np.linspace(-0.1, 0.2, 101), 3))]
    l4 = random_realization(9, 3, 4, (2, 1.5, 1), 4.0, 0.6)
    for name, r in (("bench_shape", bench_shape_realization()), ("l4", l4)):
        for k, (gen, h) in enumerate(_segment_generators(r)):
            times = np.linspace(0.0, h, 201)
            cases.append((f"{name}-seg{k}", gen, times))
            cases.append((f"{name}-seg{k}-negative", gen, -times))
    return cases


def _gathered_exp_samples(m, s):
    """exp_samples on its polynomial path, with every sample's anchor
    gathered into one (N, n, n) stack for a single stacked product."""
    degree = linalg.TAYLOR_DEGREE
    scale = np.linalg.norm(m, 1) or 1.0
    ticks = np.rint(s * scale)
    first = ticks.min()
    anchors = linalg._expm(((first + np.arange(int(ticks.max() - first) + 1))
                    / scale)[:, None, None] * m)
    size, unit = m.shape[0], m / scale
    powers = np.empty((degree + 1, size, size), dtype=complex)
    powers[0] = np.eye(size)
    for k in range(1, degree + 1):
        np.matmul(powers[k - 1], unit / k, out=powers[k])
    taylor = np.vander(s * scale - ticks, degree + 1, increasing=True) \
        @ powers.reshape(degree + 1, -1)
    return anchors[(ticks - first).astype(int)] \
        @ taylor.reshape(-1, size, size)


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

    @pytest.mark.parametrize("m,times", [
        pytest.param(m, times, id=name) for name, m, times in _exp_samples_cases()])
    def test_anchor_products_match_gathered_stack(self, m, times):
        # The polynomial path gives the bits of its plain restatement: the
        # anchors gathered into one stack, times the Taylor polynomials.
        assert np.array_equal(linalg.exp_samples(m, times),
                              _gathered_exp_samples(m, times))

    def test_stack_matches_each_generator(self, expm_slices, expm_calls):
        # One call over a stack gives each generator the bits that a call
        # of its own gives, in one Pade call with the same slices.  Mixed
        # in: the direct path with few samples, and with fewer samples than
        # anchors plus TAYLOR_DEGREE; a zero generator; no samples at all.
        cases = [(m, times) for _, m, times in _exp_samples_cases()]
        skewed = cases[0][0]
        cases[1:1] = [(skewed, np.linspace(-0.3, 0.5, 5)),
                      (skewed, np.linspace(-0.3, 0.5, 40)),
                      (np.zeros((8, 8)), np.linspace(-2.0, 2.0, 30)),
                      (skewed, np.empty(0))]
        before = expm_slices[0]
        alone = [linalg.exp_samples(m, times) for m, times in cases]
        slices, calls = expm_slices[0], expm_calls[0]
        got = linalg.exp_samples(np.array([m for m, _ in cases]),
                                 [times for _, times in cases])
        assert expm_calls[0] - calls == 1
        assert expm_slices[0] - slices == slices - before
        assert np.array_equal(got, np.concatenate(alone))

    def test_stack_of_one_is_the_matrix_form(self):
        m, times = _segment_generators(bench_shape_realization())[0][0], \
            np.linspace(0.0, 0.4, 60)
        assert np.array_equal(linalg.exp_samples(m[None], [times]),
                              linalg.exp_samples(m, times))

    def test_empty_stack(self, expm_calls):
        got = linalg.exp_samples(np.zeros((0, 3, 3)), [])
        assert got.shape == (0, 3, 3) and expm_calls[0] == 0

    @pytest.mark.parametrize("m,times", [
        (np.zeros((2, 3, 3)), [[0.5]]),
        (np.zeros((2, 3, 4)), [[0.5], [0.5]]),
        (np.zeros((2, 2, 3, 3)), [[0.5], [0.5]])])
    def test_stack_shape_mismatch(self, m, times):
        with pytest.raises(DimensionError):
            linalg.exp_samples(m, times)

    @pytest.mark.parametrize("times,match", [
        ([[0.5] * 20, [0.5, np.nan]], "non-finite"),
        ([[0.5] * 20, [0.5] * 20 + [np.inf]], "non-finite"),
        ([[0.5] * 20, [1e200]], "no digit"),
        ([[1e308] * 20, [0.5]], "no digit"),
        ([[0.5] * 20, [710.0]], "overflows"),
        ([[0.5] * 20, np.linspace(700.0, 710.0, 41)], "overflows")])
    def test_one_bad_generator_is_refused(self, times, match):
        # As a call of that generator alone refuses it.
        gens = np.array([_ROTATION, np.eye(2)])
        with pytest.raises(ValueError, match=match):
            linalg.exp_samples(gens, times)

    def test_zero_matrix_gives_identity(self, expm_slices):
        # Exact identity copies, without a Pade slice.
        got = linalg.exp_samples(np.zeros((3, 3)), np.linspace(-2, 2, 50))
        assert np.array_equal(got, np.broadcast_to(np.eye(3), got.shape))
        assert got.dtype == complex and expm_slices[0] == 0
        got[0, 0, 0] = 2.0
        assert got[1, 0, 0] == 1.0

    @pytest.mark.parametrize("times", [[], [0.7], [-0.7], [-1.3, 0.0, 0.4]])
    def test_few_samples_are_their_own_anchors(self, times, expm_slices):
        m = _segment_generators(bench_shape_realization())[0][0]
        before = expm_slices[0]
        got = linalg.exp_samples(m, times)
        assert got.shape == (len(times), 8, 8)
        assert expm_slices[0] - before == len(times)
        for t, g in zip(times, got):
            assert np.array_equal(g, linalg.mat_exp(t * m))

    @pytest.mark.parametrize("times", [[np.nan], [0.5] * 20 + [np.inf]])
    def test_non_finite_times_are_refused(self, times):
        # As mat_exp refuses a non-finite operand s m.
        with pytest.raises(ValueError):
            linalg.exp_samples(np.eye(2), times)

    @pytest.mark.parametrize("scale,times", [
        (1.0, [1e200]), (1.0, [1e308]), (1.0, [0.5] * 20 + [1e200]),
        (1.0, [-1e308] + [0.0] * 20 + [1e308]), (4.0, [1e308])])
    def test_undetermined_exponentials_are_refused(self, scale, times):
        # As mat_exp refuses ||s m||_1 >= 2^53; at scale 4, s m overflows.
        with pytest.raises(ValueError, match="no digit"):
            linalg.exp_samples(scale * _ROTATION, times)

    @pytest.mark.parametrize("times", [[710.0], np.linspace(700.0, 710.0, 41)])
    def test_overflowing_exponentials_are_refused(self, times):
        with pytest.raises(ValueError, match="overflows"):
            linalg.exp_samples(np.eye(2), times)

    def test_zero_generator_takes_any_time(self):
        times = [-1e308] + [0.0] * 20 + [1e308]
        got = linalg.exp_samples(np.zeros((2, 2)), times)
        assert np.array_equal(got, np.broadcast_to(np.eye(2), got.shape))

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

    @staticmethod
    def _stack(size: int = 40):
        """Two random systems around the Wilkinson matrix of ``size``, whose
        partial-pivoting LU grows like 2^(size-1): at 40 its first solve has
        a backward error near 2e-8 and one refinement step brings it to
        rounding, while its rcond stays near 0.06."""
        rng = np.random.default_rng(5)
        wilkinson = np.eye(size) - np.tril(np.ones((size, size)), -1)
        wilkinson[:, -1] = 1.0
        ms = rng.standard_normal((3, size, size)) \
            + 1j * rng.standard_normal((3, size, size))
        ms[1] = wilkinson
        return ms, rng.standard_normal((3, size, 2)) + 0j

    def test_stack_matches_each_slice(self):
        ms, rs = self._stack()
        got = linalg.solve(ms, rs)
        assert got.shape == rs.shape
        for k in range(3):
            assert np.array_equal(got[k], linalg.solve(ms[k], rs[k]))

    def test_refines_only_the_slices_that_need_it(self, monkeypatch):
        ms, rs = self._stack()
        lapack = np.linalg.solve
        sizes = []

        def counting(a, b):
            sizes.append(len(a))
            return lapack(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        got = linalg.solve(ms, rs)
        monkeypatch.undo()
        assert sizes == [3, 1]  # the stack, then the Wilkinson slice alone
        for k in (0, 2):
            assert np.array_equal(got[k], np.linalg.solve(ms[k], rs[k]))

        def backward_error(x):
            return linalg.frob(ms[1] @ x - rs[1]) / (
                linalg.frob(ms[1]) * linalg.frob(x) + linalg.frob(rs[1]))

        assert backward_error(np.linalg.solve(ms[1], rs[1])) \
            > linalg.SOLVE_RESIDUAL
        assert backward_error(got[1]) <= linalg.SOLVE_RESIDUAL

    def test_singular_slice_raises_with_its_rcond(self):
        ms, rs = self._stack(6)
        ms[2] = np.outer(np.arange(1.0, 7.0), np.arange(2.0, 8.0))  # rank one
        with pytest.raises(SingularMatrixError) as alone:
            linalg.solve(ms[2], rs[2])
        with pytest.raises(SingularMatrixError) as stacked:
            linalg.solve(ms, rs)
        assert stacked.value.rcond == alone.value.rcond < linalg.RCOND_MIN

    def test_empty_stack(self):
        got = linalg.solve(np.zeros((0, 3, 3)), np.zeros((0, 3, 2)))
        assert got.shape == (0, 3, 2)

    def test_stack_shape_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.solve(np.zeros((2, 3, 3)), np.zeros((3, 3, 1)))
        with pytest.raises(DimensionError):
            linalg.solve(np.zeros((2, 3, 4)), np.zeros((2, 3, 1)))


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
