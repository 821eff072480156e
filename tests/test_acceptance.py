"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
summary line with the measured extreme value next to its tolerance, so a
transcript of this module reads as a checklist.  The shared realization
set lives in conftest.ACCEPTANCE_CASES: ten random valid realizations with
p <= 3, n <= 4, several with repeated dilation values.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from dkinv import canonical, inversion
from dkinv.discretization import (
    discretize_inverse,
    discretize_operator,
    positivity_spectrum,
)
from dkinv.inversion import FundamentalSolution, InverseKernel
from dkinv.kernels import Realization, RealizationIdentityError
from dkinv.linalg import exchange_j, frob, spectral_norm

from conftest import (
    ACCEPTANCE_CASES,
    acceptance_realizations,
    random_realization,
    scalar_realization,
    singular_scalar_realization,
)
from oracles import (
    Rk4Fundamental,
    energy_inequality,
    fourier_transform_residual,
    matrizant,
    node_gram,
)


@pytest.fixture(scope="module")
def suite():
    return acceptance_realizations()


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_closed_form_matches_ode_oracle(suite):
    started = time.monotonic()
    worst = 0.0
    for r in suite:
        fund = FundamentalSolution(r)
        rk = Rk4Fundamental(r, steps=2000)
        for y in np.linspace(0.0, fund.interval, 50):
            gap = frob(fund.value(float(y)) - rk.value(float(y)))
            worst = max(worst, gap)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-6 and elapsed <= 30.0
    report(1, ok, f"max ||U - U_rk4|| = {worst:.3e} (tol 1e-6), "
                  f"{elapsed:.1f}s (cap 30s)")
    assert worst <= 1e-6
    assert elapsed <= 30.0


def test_criterion_2_fundamental_solution_preserves_j_form(suite):
    worst = 0.0
    for r in suite:
        fund = FundamentalSolution(r)
        j = fund.j_matrix
        for y in np.linspace(0.0, fund.interval, 50):
            u = fund.value(float(y))
            gap = frob(u.conj().T @ j @ u - j) / (1.0 + frob(u) ** 2)
            worst = max(worst, gap)
    ok = worst <= 1e-9
    report(2, ok, f"max relative J-form drift = {worst:.3e} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_3_discretized_inverse_composes_to_identity(suite):
    started = time.monotonic()
    worst_final = 0.0
    worst_ratio = np.inf
    for r in suite:
        kern = InverseKernel.from_realization(r)
        gaps = []
        for count in (100, 200, 400):
            s_op = discretize_operator(r, count)
            t_op = discretize_inverse(kern, count)
            gaps.append(spectral_norm(
                t_op.matrix @ s_op.matrix - np.eye(s_op.size)))
        worst_final = max(worst_final, gaps[-1])
        worst_ratio = min(worst_ratio, gaps[0] / gaps[1], gaps[1] / gaps[2])
    elapsed = time.monotonic() - started
    ok = worst_final <= 5e-2 and worst_ratio >= 1.5 and elapsed <= 120.0
    report(3, ok, f"||T_N S_N - I|| at N=400: worst {worst_final:.3e} "
                  f"(tol 5e-2), slowest halving ratio {worst_ratio:.2f} "
                  f"(>= 1.5), {elapsed:.1f}s (cap 120s)")
    assert worst_final <= 5e-2
    assert worst_ratio >= 1.5
    assert elapsed <= 120.0


def test_criterion_4_worked_scalar_case():
    r = scalar_realization()
    fund = FundamentalSolution(r)
    worst_u = 0.0
    for y in np.linspace(0.0, 1.0, 50):
        want = np.array([[1 - y, -y], [y, 1 + y]], dtype=complex)
        worst_u = max(worst_u, np.abs(fund.value(float(y)) - want).max())

    # Rank-one Sherman-Morrison oracle: k(x - t) = a(x) b(t) with
    # a(x) = exp(-i x), b(t) = exp(i t), so T = -a b / (1 + <b, a>)
    # with the inner product evaluated by quadrature.
    inner = quad(lambda t: (np.exp(1j * t) * np.exp(-1j * t)).real, 0, 1)[0]
    kern = InverseKernel.from_realization(r)
    rng = np.random.default_rng(123)
    worst_t = 0.0
    for _ in range(25):
        x, t = rng.uniform(0.0, 1.0, 2)
        oracle = -np.exp(-1j * x) * np.exp(1j * t) / (1.0 + inner)
        worst_t = max(worst_t, abs(kern.entry(0, 0, x, t) - oracle))
    ok = worst_u <= 1e-12 and worst_t <= 1e-9
    report(4, ok, f"scalar U gap {worst_u:.3e} (tol 1e-12), "
                  f"T vs Sherman-Morrison {worst_t:.3e} (tol 1e-9)")
    assert worst_u <= 1e-12
    assert worst_t <= 1e-9


def test_criterion_5_positivity_and_violation_flagging(suite):
    worst_min = np.inf
    for r in suite:
        low = positivity_spectrum(discretize_operator(r, 400))
        worst_min = min(worst_min, low)
    flagged = False
    try:
        singular_scalar_realization().require_identity()
    except RealizationIdentityError:
        flagged = True
    ok = worst_min > 0.0 and flagged
    report(5, ok, f"min eigenvalue over set = {worst_min:.3e} (> 0 required); "
                  f"identity-violating realization flagged: {flagged}")
    assert worst_min > 0.0
    assert flagged


def test_criterion_6_hamiltonian_recovery(seed10):
    # Two realizations: seed 10 (distinct dilations) and seed 4
    # (repeated dilation values).
    seed, p, n, d, scale = ACCEPTANCE_CASES[3]
    other = random_realization(seed, p, n, d, 1.0, scale)
    worst_metric = 0.0
    worst_psd = 0.0
    worst_routes = 0.0
    for r in (seed10, other):
        xs = np.linspace(r.length / 20, r.length, 20)
        grid = canonical.recover_hamiltonian(r, xs)
        ex = exchange_j(r.p)
        for gm, hm in zip(grid.gammas, grid.hams):
            worst_metric = max(worst_metric, np.abs(
                gm @ ex @ gm.conj().T - r.diag.matrix).max())
            worst_psd = max(worst_psd, -np.linalg.eigvalsh(hm)[0])
        for x in (0.3, 0.7, 1.0):
            closed = canonical.hamiltonian_factor(r, x, route="closed")
            quadr = canonical.hamiltonian_factor(r, x, route="quadrature")
            worst_routes = max(worst_routes, np.abs(closed - quadr).max())

    # Finite-difference oracle at one interior point: the x-derivative of
    # the restricted node Gram matrix converges to H(x).
    x0, h, count = 0.6, 1e-3, 800
    fd = (node_gram(seed10, x0 + h, count)
          - node_gram(seed10, x0 - h, count)) / (2 * h)
    gm = canonical.hamiltonian_factor(seed10, x0)
    fd_gap = np.abs(fd - gm.conj().T @ gm).max()

    ok = (worst_metric <= 1e-7 and worst_psd <= 1e-10
          and worst_routes <= 1e-6 and fd_gap <= 1e-3)
    report(6, ok, f"gamma metric {worst_metric:.3e} (tol 1e-7), "
                  f"H min-eig defect {worst_psd:.3e}, "
                  f"route gap {worst_routes:.3e} (tol 1e-6), "
                  f"FD oracle gap {fd_gap:.3e} (tol 1e-3)")
    assert worst_metric <= 1e-7
    assert worst_psd <= 1e-10
    assert worst_routes <= 1e-6
    assert fd_gap <= 1e-3


LAMBDAS = (0.3 + 0.6j, -0.4 + 0.9j, 1.1 + 0.5j, 0.2 + 1.4j, -0.9 + 0.7j)


def test_criterion_7_weyl_function_checks(scalar, seed10,
                                          scalar_recovery_grid,
                                          scalar_recovery_grid_half,
                                          seed10_recovery_grid):
    # (a) Fourier relation between phi and the edge profile.
    worst_fourier = 0.0
    for r in (scalar, seed10):
        for lam in LAMBDAS:
            worst_fourier = max(
                worst_fourier,
                fourier_transform_residual(r, lam))

    # (b) accumulated-energy inequality on both interval lengths.
    half_grid, half_r = scalar_recovery_grid_half
    worst_slack = -np.inf
    for grid, r in ((scalar_recovery_grid, scalar), (half_grid, half_r)):
        w = canonical.WeylFunction(r)
        for lam in LAMBDAS:
            lhs, rhs = energy_inequality(grid, w, lam)
            worst_slack = max(worst_slack, lhs - rhs)

    # (c) matrizant J-relations on the recovered grids.
    worst_j = 0.0
    for grid, p in ((scalar_recovery_grid, 1), (seed10_recovery_grid, 2)):
        ex = exchange_j(p)
        for lam in (0.3 + 0.6j, -0.4 + 0.9j):
            w1 = matrizant(grid, lam)
            w2 = matrizant(grid, np.conj(lam))
            worst_j = max(worst_j, np.abs(
                w2.conj().T @ ex @ w1 - ex).max())
            worst_j = max(worst_j, np.abs(
                ex @ w2.conj().T @ ex @ w1 - np.eye(2 * p)).max())

    ok = worst_fourier <= 1e-5 and worst_slack <= 1e-9 and worst_j <= 1e-6
    report(7, ok, f"Fourier residual {worst_fourier:.3e} (tol 1e-5), "
                  f"inequality slack {worst_slack:+.3e} (<= 0 required), "
                  f"J-relations {worst_j:.3e} (tol 1e-6)")
    assert worst_fourier <= 1e-5
    assert worst_slack <= 1e-9
    assert worst_j <= 1e-6


def test_criterion_8_similarity_at_every_sample(scalar_recovery_grid,
                                                seed10_recovery_grid):
    worst = 0.0
    for grid in (scalar_recovery_grid, seed10_recovery_grid):
        for gm in grid.gammas:
            fac = canonical.similarity_factor(gm, grid.diag)
            worst = max(worst, fac.residual)
    ok = worst <= 1e-6
    report(8, ok, f"max similarity residual {worst:.3e} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_9_root_found_singular_scaling():
    # Scale theta2 by a real factor c until the corner block loses rank,
    # then check the resulting kernel-basis function is annihilated by the
    # discretized operator.
    one = np.array([[1.0]], dtype=complex)

    def corner_det(c):
        r = Realization.build(one, c * one, -one, [1.0], 1.0)
        fund = FundamentalSolution(r)
        return fund.corner()[1:, 1:][0, 0].real

    c_star = brentq(corner_det, -1.5, -0.5, xtol=1e-15)
    r = Realization.build(one, c_star * one, -one, [1.0], 1.0)
    fund = FundamentalSolution(r)
    rep = inversion.branch_projector(fund)
    assert isinstance(rep, inversion.SingularCornerReport)
    op = discretize_operator(r, 400)
    basis = inversion.null_basis_values(fund, rep, op.nodes)
    assert len(basis) == 1
    h = basis[0][:, 0]
    ratio = np.linalg.norm(op.matrix @ h) / np.linalg.norm(h)
    ok = ratio <= 1e-4
    report(9, ok, f"root-found scaling c = {c_star:.12f}, "
                  f"||S_N h|| / ||h|| = {ratio:.3e} (tol 1e-4)")
    assert ratio <= 1e-4
