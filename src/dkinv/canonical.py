"""Rational Weyl functions and recovery of the canonical-system Hamiltonian.

Given realization data satisfying the structure identity, the rational
matrix function

    phi(lambda) = (i/2) D + theta1^H (beta - lambda I)^{-1} theta2

has nonnegative imaginary part in the upper half-plane.  Its spectral data
split into an absolutely continuous density on the real line plus point
jumps at the real eigenvalues of beta.  Working back, the Hamiltonian H(x)
of the canonical system  w' = i*lambda*J*H(x)*w  with Weyl function phi is
recovered through a triangular factorization of the inverse operators on
growing subintervals [0, x]: the factor gamma(x) comes from applying the
adjoint triangular factor to explicit profiles, and H = gamma^H gamma.

Everything here sits on top of the closed-form inversion engine.  The
triangular-factor application integrates matrix exponentials in closed
form, through block exponentials, so recovery uses no quadrature and
nothing is ever discretized on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .inversion import (InverseKernel, SingularCornerReport, _StateSystem,
                        branch_projectors, j_inverse)
from .kernels import DiagonalStructure, Realization
from .linalg import (as_matrix, eig_spectrum, exchange_j, exp_samples, frob,
                     solve)

__all__ = [
    "DefectiveEigenvalueError",
    "HamiltonianGrid",
    "HerglotzData",
    "IntervalSingularityError",
    "SimilarityFactor",
    "WeylFunction",
    "WeylPoleError",
    "apply_triangular_adjoint",
    "hamiltonian_factor",
    "herglotz_data",
    "inverse_kernel_for_interval",
    "recover_hamiltonian",
    "recovery_correction",
    "similarity_factor",
    "weyl_value",
]


class WeylPoleError(ValueError):
    """The requested spectral parameter sits on a pole of phi."""


class DefectiveEigenvalueError(ValueError):
    """A real state eigenvalue has a nontrivial Jordan structure."""


class IntervalSingularityError(ValueError):
    """The operator restricted to [0, x] is not invertible."""

    def __init__(self, critical_x: float, rcond: float):
        super().__init__(
            f"restricted operator is singular near x = {critical_x:.6g} "
            f"(corner rcond {rcond:.3e})"
        )
        self.critical_x = critical_x
        self.rcond = rcond


# ---------------------------------------------------------------------------
# Weyl function and its spectral data
# ---------------------------------------------------------------------------

def _on_spectrum(beta: np.ndarray, z: complex) -> bool:
    """Whether z lies within 1e-12 max(1, ||beta||_F) of an eigenvalue."""
    gap = np.min(np.abs(eig_spectrum(beta) - z))
    return bool(gap <= 1e-12 * max(1.0, frob(beta)))


def weyl_value(r: Realization, lam: complex) -> np.ndarray:
    """phi(lambda) = (i/2) D + theta1^H (beta - lambda I)^{-1} theta2.

    Defined for any realization data (the structure identity is not needed
    to evaluate the formula); raises :class:`WeylPoleError` within 1e-12 of
    the state spectrum.
    """
    beta = r.beta
    if _on_spectrum(beta, lam):
        raise WeylPoleError(f"lambda = {lam} is a pole of the Weyl function")
    n = beta.shape[0]
    resolvent_term = r.theta1.conj().T @ solve(beta - lam * np.eye(n), r.theta2)
    return 0.5j * r.diag.matrix + resolvent_term


@dataclass(eq=False)
class WeylFunction:
    """phi(lambda) for a realization with the structure identity enforced."""

    realization: Realization

    def __post_init__(self):
        self.realization.require_identity()

    def value(self, lam: complex) -> np.ndarray:
        return weyl_value(self.realization, lam)

    def high_frequency_limit(self) -> np.ndarray:
        """iD/2, the value phi approaches along the imaginary axis."""
        return 0.5j * self.realization.diag.matrix


@dataclass(frozen=True, eq=False)
class HerglotzData:
    """Spectral data of phi: a.c. density plus point jumps on the real line."""

    realization: Realization
    points: np.ndarray          # real eigenvalues of beta, ascending
    jumps: Tuple[np.ndarray, ...]  # Hermitian nonnegative jump matrices

    def density(self, t: float) -> np.ndarray:
        """rho(t) = (1/2pi) zeta(t)^H D zeta(t), Hermitian nonnegative.

        On a real eigenvalue cluster of beta with spectral projector P
        (within the pole tolerance of :func:`weyl_value`), the resolvent
        term (tI - beta)^{-1} theta2 exists iff P theta2 = 0; it is then
        solve(tI - beta + P, (I - P) theta2), as tI - beta + P is
        nonsingular for a semisimple cluster.  Raises
        :class:`WeylPoleError` where P theta2 != 0: the spectral mass there
        is a point jump.
        """
        r = self.realization
        n, p = r.n, r.p
        shifted, rhs = t * np.eye(n) - r.beta, r.theta2
        if _on_spectrum(r.beta, t):
            _, proj = min(_real_clusters(r.beta), key=lambda c: abs(c[0] - t))
            leak = proj @ rhs
            if frob(leak) > 1e-12 * max(1.0, frob(rhs)):
                raise WeylPoleError(
                    f"t = {t} is a real eigenvalue of beta: no density there "
                    "(the spectral mass of phi at a real eigenvalue is a "
                    "point jump)")
            shifted, rhs = shifted + proj, rhs - leak
        gap = r.theta2 - r.theta1
        zeta = np.eye(p) - 1j * r.diag.inv_matrix @ gap.conj().T \
            @ solve(shifted, rhs)
        return zeta.conj().T @ r.diag.matrix @ zeta / (2 * np.pi)


def _real_clusters(beta: np.ndarray) -> List[Tuple[float, np.ndarray]]:
    """(eigenvalue, spectral projector) of each real-eigenvalue cluster.

    Clusters are ascending.  A real eigenvalue whose geometric multiplicity
    falls short of its cluster size has a Jordan block there, and is
    rejected with :class:`DefectiveEigenvalueError`.
    """
    scale = max(1.0, frob(beta))
    vals, vecs = np.linalg.eig(beta)
    real_idx = [k for k in range(vals.size) if abs(vals[k].imag) <= 1e-10 * scale]
    if not real_idx:
        return []
    real_idx.sort(key=lambda k: vals[k].real)
    clusters: List[List[int]] = [[real_idx[0]]]
    for k in real_idx[1:]:
        if vals[k].real - vals[clusters[-1][-1]].real <= 1e-8 * scale:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    vecs_inv = np.linalg.inv(vecs)
    out = []
    for idx in clusters:
        z = float(np.mean(vals[idx].real))
        shifted = beta - z * np.eye(beta.shape[0])
        sv = np.linalg.svd(shifted, compute_uv=False)
        geometric = int(np.sum(sv <= 1e-8 * scale))
        if geometric < len(idx):
            raise DefectiveEigenvalueError(
                f"real eigenvalue {z:.6g} has geometric multiplicity "
                f"{geometric} < algebraic {len(idx)}; no simple-pole residue"
            )
        out.append((z, vecs[:, idx] @ vecs_inv[idx, :]))
    return out


def _real_point_spectrum(beta: np.ndarray, theta2: np.ndarray):
    """Real eigenvalues of beta with their clustered jump matrices.

    Jumps are the residues of theta2^H (z I - beta)^{-1} theta2, computed
    through the spectral projector of each real-eigenvalue cluster
    (:func:`_real_clusters`, which rejects Jordan blocks).
    """
    clusters = _real_clusters(beta)
    nus = [theta2.conj().T @ proj @ theta2 for _, proj in clusters]
    return (np.array([z for z, _ in clusters], dtype=float),
            tuple(0.5 * (nu + nu.conj().T) for nu in nus))


def herglotz_data(w: WeylFunction) -> HerglotzData:
    """Density evaluator and point jumps of the Weyl function's measure."""
    r = w.realization
    points, jumps = _real_point_spectrum(r.beta, r.theta2)
    return HerglotzData(realization=r, points=points, jumps=jumps)


# ---------------------------------------------------------------------------
# Triangular factor application and gamma recovery
# ---------------------------------------------------------------------------

def inverse_kernel_for_interval(r: Realization, x: float) -> InverseKernel:
    """Inverse kernel of the operator restricted to [0, x].

    The fundamental solution and branch projector are rebuilt for the
    shortened interval; a singular corner raises
    :class:`IntervalSingularityError` carrying the critical length.
    """
    if not 0.0 < x <= r.length * (1 + 1e-12):
        raise ValueError(f"interval length {x} outside (0, {r.length}]")
    kernel = InverseKernel.from_realization(r.with_length(min(x, r.length)))
    if not kernel.invertible:
        raise IntervalSingularityError(x, kernel.singular_report.rcond)
    return kernel


def apply_triangular_adjoint(
    kernel: InverseKernel,
    const: np.ndarray,
    profile: bool = False,
) -> np.ndarray:
    """Evaluate the adjoint triangular factor at the interval's right end.

    Computes f(x) + int_0^x T_x(x, t) f(t) dt where T_x is the inverse
    kernel on [0, x], x being the length ``kernel`` was built for.  f is
    the constant matrix ``const`` with p rows; with ``profile`` its first p
    columns also carry the x-dependent part of the edge profile, row j
    being theta2[:, j]^H Psi(d_j t) theta1 with
    Psi(u) = int_0^u e^{iw beta^H} dw.  :func:`_factor_integrals` does the
    integration, here for the one length of ``kernel``.
    """
    kernel._require_invertible()
    r = kernel.realization
    const = np.atleast_2d(np.asarray(const, dtype=complex))
    if const.shape[0] != r.p:
        raise ValueError(f"input must have {r.p} rows, got {const.shape}")
    return _factor_integrals(kernel.fund, kernel.fund.segments,
                             kernel.p_cross, const, profile)[0]


def _factor_integrals(fund: _StateSystem, segments: Sequence,
                      proj: np.ndarray, const: np.ndarray,
                      profile: bool) -> np.ndarray:
    """:func:`apply_triangular_adjoint` for a batch of interval lengths.

    ``segments`` and ``proj`` (the branch projectors) come from
    ``fund.chain`` and :func:`branch_projectors` for
    the lengths x; a single length's unstacked segments broadcast as a
    batch of one.  Returns the (len(x), p, m) stack of results.

    No quadrature: in the dilated coordinate z = d_j t the segments of the
    fundamental solution end exactly at the branch points d_i x, so on each
    segment the branch of every row and the set of contributing columns are
    fixed, and the integrand is a product of matrix exponentials.  Its
    integral is read from one block exponential (Van Loan, IEEE TAC 23(3),
    1978), as in :meth:`Realization.integrated_kernel`.  That block's
    generator does not depend on x: the constant input and Psi(L), which
    do, multiply its result from the right, and so does
    rot = e^{iL beta^H}, which commutes with every Psi(s).  So one
    :func:`exp_samples` call per segment serves every length, and the
    inverse of e^{RA} U(R) that takes it back to z = 0 is its J-adjoint.
    """
    r = fund.realization
    n, p, d = r.n, r.p, r.diag.d
    two_n = 2 * n
    # On a segment column j contributes iff d_j x >= its right end, and row
    # i takes the upper branch iff d_i x does: the mask of the segment's
    # level projector.  A component whose last segment this is ends at
    # z = d_i x, where its row factor e^{zA} U(z) is read off, and with the
    # profile also Psi(d_i x), the x-dependent part of its f(x).
    alive = [np.diagonal(seg.projector).real > 0 for seg in segments]
    ends = [a & ~b for a, b in zip(alive, alive[1:] + [np.zeros(p, bool)])]
    count = np.size(segments[0].left)
    props = [seg.exp_span @ seg.right_cache for seg in segments]  # e^{RA} U(R)
    rows = np.empty((count, p, two_n), dtype=complex)
    for prop, end in zip(props, ends):
        rows[:, end] = fund.adj_row[end] @ prop
    rows_upper = rows @ (np.eye(two_n) - proj)
    rows_lower = -(rows @ proj)
    out = np.repeat(const[None], count, axis=0)

    # Block generator [[G, F theta2^H, 0, F], [0, i beta^H, I, 0], 0, 0]
    # with F = [-theta1; theta2] D^{-1} on the contributing columns; without
    # the profile only [[G, F], [0, 0]] is needed.
    lead = 4 * n if profile else two_n
    if profile:
        psi = np.zeros((1, n, n), dtype=complex)   # Psi(L)
        rot = np.eye(n, dtype=complex)             # e^{i L beta^H}
    for seg, on, end, prop in zip(segments, alive, ends, props):
        cols = fund.stack[:, on] / d[on]  # dt = dz / d_j
        gen = np.zeros((lead + cols.shape[1],) * 2, dtype=complex)
        gen[:two_n, :two_n] = seg.gen_cross
        gen[:two_n, lead:] = cols
        start = const[on]
        if profile:
            th2h = r.theta2[:, on].conj().T
            gen[:two_n, two_n:3 * n] = cols @ th2h
            gen[two_n:3 * n, two_n:3 * n] = 1j * r.beta.conj().T
            gen[two_n:3 * n, 3 * n:lead] = np.eye(n)
            start = np.repeat(start[None], count, axis=0)
            start[:, :, :p] += th2h @ psi @ r.theta1
        block = exp_samples(gen, np.atleast_1d(seg.right - seg.left))
        # e^{-hG} times the top row gives int_0^h e^{-sG} (...) ds.
        integral = block[:, :two_n, lead:] @ start
        if profile:
            integral[:, :, :p] += block[:, :two_n, 3 * n:lead] @ rot @ r.theta1
            psi = psi + rot @ block[:, two_n:3 * n, 3 * n:lead]
            rot = rot @ block[:, two_n:3 * n, two_n:3 * n]
            out[:, end, :p] += r.theta2[:, end].conj().T @ psi @ r.theta1
        moved = j_inverse(prop) @ integral  # (e^{LA} U(L))^{-1} e^{-hG}
        out[:, on] += rows_upper[:, on] @ moved
        out[:, ~on] += rows_lower[:, ~on] @ moved
    return out


def recovery_correction(kernel: InverseKernel) -> np.ndarray:
    """Closed-form correction matrix entering the explicit gamma formula.

    Row s is

        e_s (theta2^H e^{i d_s x beta^H}
             + [theta2^H, theta1^H] e^{d_s x A} U(d_s x)
               (P U(d_1 x)^{-1} - U(d_s x)^{-1} + I - P) [I_n; 0])
        (beta^H)^{-1} theta1

    with U (U^{-1} = J^H U^H J) and the branch projector P of ``kernel``,
    built for the interval length x.  Requires an invertible state matrix.
    """
    kernel._require_invertible()
    r = kernel.realization
    x = r.length
    beta = r.beta
    sv = np.linalg.svd(beta, compute_uv=False)
    if sv[0] == 0 or sv[-1] / sv[0] < 1e-12:
        raise ValueError("closed-form correction needs an invertible state matrix")
    fund, proj = kernel.fund, kernel.p_cross

    n, d = r.n, r.diag.d
    embed = np.vstack([np.eye(n), np.zeros((n, n))])  # [I_n; 0]
    ys = d * x
    props = fund.propagated(ys)  # e^{yA} U(y)
    back = exp_samples(fund.generator, -ys)  # e^{-yA}
    u_inv = j_inverse(back @ props)  # U(y)^{-1}; ys[0] = d_1 x
    middle = proj @ u_inv[0] - u_inv + np.eye(2 * n) - proj
    bracket = fund.adj_row[:, None, :] @ props @ middle @ embed
    # e^{i y beta^H} = (e^{-i y beta})^H, from the lower block of e^{-yA}.
    direct = r.theta2.conj().T[:, None, :] \
        @ back[:, n:, n:].conj().transpose(0, 2, 1)
    return (direct + bracket)[:, 0, :] @ solve(beta.conj().T, r.theta1)


def hamiltonian_factor(r: Realization, x: float, route: str = "auto") -> np.ndarray:
    """gamma(x), the p x 2p factor of the recovered Hamiltonian.

    Two equivalent routes exist, both exact.  The profile route applies the
    triangular factor to the x-dependent profile [Phi1, I] directly and
    works for every state matrix; "auto" takes it, and so does
    "quadrature", the name the benchmark's route check selects it by,
    although it integrates in closed form too.  The closed route applies
    the factor to a constant block row and subtracts the explicit
    correction; it needs an invertible state matrix, and ``route="closed"``
    selects it only so that the two routes can be cross-checked.
    """
    r.require_identity()
    if route not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown route {route!r}")
    if route != "closed":
        return _profile_factors(r, np.array([x], dtype=float))[0]

    kernel = inverse_kernel_for_interval(r, x)
    p = r.p
    const = np.hstack([
        0.5 * r.diag.matrix
        + 1j * r.theta2.conj().T @ solve(r.beta.conj().T, r.theta1),
        np.eye(p),
    ])
    base = apply_triangular_adjoint(kernel, const)
    corr = recovery_correction(kernel)
    return base - 1j * np.hstack([corr, np.zeros((p, p))])


def _profile_factors(r: Realization, xs: np.ndarray) -> np.ndarray:
    """gamma(x) by the profile route for every x in ``xs``, as one batch.

    x stands for the operator restricted to [0, x]; the first x with a
    singular corner raises :class:`IntervalSingularityError`, as
    :func:`inverse_kernel_for_interval` would.
    """
    inside = (xs > 0) & (xs <= r.length * (1 + 1e-12))
    if not inside.all():
        raise ValueError(
            f"sample point {xs[~inside][0]} outside (0, {r.length}]")
    system = _StateSystem(r)
    segments, corners = system.chain(np.minimum(xs, r.length))
    projectors = branch_projectors(corners)
    for x, proj in zip(xs, projectors):
        if isinstance(proj, SingularCornerReport):
            raise IntervalSingularityError(x, proj.rcond)
    const = np.hstack([0.5 * r.diag.matrix, np.eye(r.p)])
    return _factor_integrals(system, segments, np.array(projectors), const,
                             profile=True)


@dataclass(frozen=True, eq=False)
class HamiltonianGrid:
    """Sampled recovery output: gamma(x) and H(x) = gamma^H gamma on a grid."""

    xs: np.ndarray       # strictly increasing sample points in (0, l]
    gammas: np.ndarray   # (M, p, 2p)
    hams: np.ndarray     # (M, 2p, 2p), Hermitian nonnegative
    diag: DiagonalStructure

    @property
    def p(self) -> int:
        return self.diag.p


def recover_hamiltonian(
    r: Realization,
    xs: Sequence[float],
) -> HamiltonianGrid:
    """Recover gamma and H on a strictly increasing grid of points in (0, l].

    Each point stands for the interval [0, x].  All of them go through the
    profile route as one batch: each :func:`exp_samples` call serves all
    the points, at most k + 2 of them for k levels.
    """
    r.require_identity()
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("need a one-dimensional, nonempty sample grid")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sample grid must be strictly increasing")

    gammas = _profile_factors(r, xs)
    hams = np.einsum("mij,mik->mjk", gammas.conj(), gammas)
    hams = 0.5 * (hams + np.conj(np.transpose(hams, (0, 2, 1))))
    return HamiltonianGrid(xs=xs, gammas=gammas, hams=hams, diag=r.diag)


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimilarityFactor:
    """Invertible L with L^{-1} diag(D, 0) L = J gamma^H gamma."""

    transform: np.ndarray  # L
    inverse: np.ndarray    # closed-form L^{-1}
    residual: float        # || L^{-1} L - I ||_F of the closed form


def similarity_factor(gx: np.ndarray, diag: DiagonalStructure) -> SimilarityFactor:
    """Build the similarity reducing J*H(x) to the constant J*diag(D, 0).

    The top block of L is D^{-1/2} gamma; the bottom block spans the null
    space of gamma*J, normalized so that -X J X^H = I.  The closed-form
    inverse is [J gamma^H D^{-1/2}, -J X^H].  Its product
    L^{-1} diag(D, 0) L is J gamma^H gamma by algebra, for any X, so the
    residual checks what the similarity rests on: that the closed form
    inverts L, ||L^{-1} L - I||_F.
    """
    gx = as_matrix(gx, "gamma")
    p = diag.p
    if gx.shape != (p, 2 * p):
        raise ValueError(f"gamma must be {p} x {2 * p}, got {gx.shape}")
    jmat = exchange_j(p).astype(complex)
    metric_residual = frob(gx @ jmat @ gx.conj().T - diag.matrix)
    if metric_residual > 1e-6 * (1.0 + frob(diag.matrix)):
        raise ValueError(
            f"gamma J gamma^H deviates from D by {metric_residual:.3e}; "
            "not a valid Hamiltonian factor"
        )
    # Rows spanning the null space of gamma*J: the right singular vectors
    # past its numerical rank, at the rank tolerance max(shape) eps s_max.
    rows = gx @ jmat
    _, sv, vh = np.linalg.svd(rows)
    rank = int(np.sum(sv > max(rows.shape) * np.finfo(float).eps * sv[0]))
    x_rows = vh[rank:]
    if x_rows.shape[0] != p:
        raise ValueError(
            f"null space of gamma*J has dimension {x_rows.shape[0]}, expected {p}"
        )
    gram = -(x_rows @ jmat @ x_rows.conj().T)
    gram = 0.5 * (gram + gram.conj().T)
    evals, evecs = np.linalg.eigh(gram)
    if evals[0] <= 0:
        raise ValueError("null-space block is degenerate with respect to J")
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    x_norm = inv_sqrt @ x_rows

    d_half_inv = np.diag(diag.d ** -0.5).astype(complex)
    transform = np.vstack([d_half_inv @ gx, x_norm])
    inverse = np.hstack([
        jmat @ gx.conj().T @ d_half_inv,
        -(jmat @ x_norm.conj().T),
    ])
    residual = frob(inverse @ transform - np.eye(2 * p))
    return SimilarityFactor(transform=transform, inverse=inverse,
                            residual=float(residual))
