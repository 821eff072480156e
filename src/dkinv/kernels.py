"""Dilation-difference kernel data and evaluators.

A profile k on the line, given for positive arguments by
``k(x) = theta2^H exp(i x beta^H) theta1`` and extended by ``k(-x) = k(x)^H``,
induces the two-variable matrix kernel ``k_ij(d_i x - d_j t)`` of a
self-adjoint integral operator I + K on the vector-valued space over (0, l).
The positive diagonal D = diag(d_1, ..., d_p) dilates each component by its
own factor; equal factors group into levels, and the level structure drives
everything downstream (segment breakpoints, projectors, inversion).

This module holds the immutable problem data (:class:`DiagonalStructure`,
:class:`Realization`) and the evaluators: the kernel itself, its integral
primitive (jump 1 across zero on the diagonal) and the scaled edge profile
feeding the low-rank commutator coupling, at one point or, for the edge
profile, at many.  Their exponentials come from :func:`exp_samples`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, as_matrix, exp_samples, frob

__all__ = [
    "DiagonalStructure",
    "Realization",
    "RealizationIdentityError",
]


class RealizationIdentityError(ValueError):
    """The structure identity required by the recovery pipeline fails."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DiagonalStructure:
    """Positive dilation factors d_1 >= ... >= d_p > 0 with level grouping.

    ``levels`` holds the distinct values in strictly decreasing order and
    ``counts`` their multiplicities (summing to p).  Construct through
    :meth:`from_values`, which validates the ordering.
    """

    d: np.ndarray        # (p,) non-increasing positive floats
    levels: np.ndarray   # (k,) strictly decreasing distinct values
    counts: np.ndarray   # (k,) multiplicities, sum == p

    @classmethod
    def from_values(cls, values) -> "DiagonalStructure":
        d = np.asarray(values, dtype=float).ravel()
        if d.size == 0:
            raise DimensionError("need at least one dilation factor")
        if not np.all(d > 0):
            raise ValueError("dilation factors must be positive")
        if np.any(np.diff(d) > 0):
            raise ValueError("dilation factors must be non-increasing")
        levels, counts = [], []
        for v in d:
            if levels and v == levels[-1]:
                counts[-1] += 1
            else:
                levels.append(v)
                counts.append(1)
        return cls(
            d=_frozen(d.copy()),
            levels=_frozen(np.array(levels)),
            counts=_frozen(np.array(counts)),
        )

    @property
    def p(self) -> int:
        return self.d.size

    @property
    def num_levels(self) -> int:
        return self.levels.size

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.d).astype(complex)

    @property
    def inv_matrix(self) -> np.ndarray:
        return np.diag(1.0 / self.d).astype(complex)

    def projector(self, j: int) -> np.ndarray:
        """Diagonal 0/1 selector of the components alive on level segment j.

        The argument runs over 2..k+1 (k = number of levels): the result is
        the identity on the first j-1 level blocks and zero afterwards, so
        j = k+1 selects everything.
        """
        k = self.num_levels
        if not 2 <= j <= k + 1:
            raise ValueError(f"level index {j} outside 2..{k + 1}")
        alive = int(self.counts[: j - 1].sum())
        diag = np.zeros(self.p)
        diag[:alive] = 1.0
        return np.diag(diag).astype(complex)


@dataclass(frozen=True, eq=False)
class Realization:
    """Exponential kernel data (theta1, theta2, beta) with dilations and length.

    theta1, theta2 are n x p, beta is n x n; the kernel profile is
    ``k(x) = theta2^H exp(i x beta^H) theta1`` for x > 0, Hermitian-reflected
    for x < 0.  The pure inversion machinery accepts any such data; the
    recovery pipeline additionally requires the structure identity checked by
    :meth:`require_identity`.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    beta: np.ndarray
    diag: DiagonalStructure
    length: float

    @classmethod
    def build(cls, theta1, theta2, beta, d, length) -> "Realization":
        t1 = as_matrix(theta1, "theta1")
        t2 = as_matrix(theta2, "theta2")
        b = as_matrix(beta, "beta")
        if b.shape[0] != b.shape[1]:
            raise DimensionError(f"beta must be square, got {b.shape}")
        if t1.shape != t2.shape:
            raise DimensionError("theta1 and theta2 must share a shape")
        if t1.shape[0] != b.shape[0]:
            raise DimensionError(
                f"theta row count {t1.shape[0]} != state dimension {b.shape[0]}"
            )
        diag = d if isinstance(d, DiagonalStructure) else DiagonalStructure.from_values(d)
        if t1.shape[1] != diag.p:
            raise DimensionError(
                f"theta column count {t1.shape[1]} != component count {diag.p}"
            )
        if not (np.isfinite(length) and length > 0):
            raise ValueError("length must be positive and finite")
        return cls(_frozen(t1.copy()), _frozen(t2.copy()), _frozen(b.copy()),
                   diag, float(length))

    @property
    def n(self) -> int:
        return self.beta.shape[0]

    @property
    def p(self) -> int:
        return self.diag.p

    def with_length(self, length: float) -> "Realization":
        if not (np.isfinite(length) and length > 0):
            raise ValueError("length must be positive and finite")
        return dataclasses.replace(self, length=float(length))

    # -- structure identity ------------------------------------------------

    def identity_residual(self) -> float:
        """Frobenius residual of beta^H - beta = i (t2-t1) D^-1 (t2-t1)^H."""
        gap = self.theta2 - self.theta1
        lhs = self.beta.conj().T - self.beta
        rhs = 1j * gap @ self.diag.inv_matrix @ gap.conj().T
        return frob(lhs - rhs)

    def require_identity(self) -> None:
        """Raise unless the structure identity holds to 1e-10 (1 + ||beta||).

        Also checks, once the identity passes, that the state spectrum stays
        in the closed lower half-plane (a consequence of the identity that
        should never fail except through numerical abuse).
        """
        res = self.identity_residual()
        tol = 1e-10 * (1.0 + frob(self.beta))
        if res > tol:
            raise RealizationIdentityError(
                f"structure identity residual {res:.3e} exceeds {tol:.3e}", res
            )
        top = float(np.max(np.linalg.eigvals(self.beta).imag))
        if top > 1e-10 * (1.0 + frob(self.beta)):
            raise RealizationIdentityError(
                f"state spectrum leaks into the upper half-plane (max Im {top:.3e})",
                res,
            )

    # -- pointwise evaluators ----------------------------------------------

    def kernel(self, x: float) -> np.ndarray:
        """Kernel profile value, defined for |x| <= d_1 * length.

        At x = 0 the one-sided limit from above (theta2^H theta1) is used;
        any convention on that single point is spectrally irrelevant.
        """
        lim = self.diag.d[0] * self.length
        if not abs(x) <= lim * (1 + 1e-12):  # NaN included
            raise ValueError(f"kernel argument {x} outside [-{lim}, {lim}]")
        if x >= 0:
            return self.theta2.conj().T \
                @ exp_samples(1j * self.beta.conj().T, [x])[0] @ self.theta1
        return self.kernel(-x).conj().T

    def integrated_kernel(self, x: float) -> np.ndarray:
        """Primitive profile: (1/2) I + D^-1 theta2^H (int_0^x e^{iub^H} du) theta1.

        The integral uses the augmented block exponential
        exp([[i beta^H, I], [0, 0]] * x), so singular beta needs no special
        casing.  Defined for all x >= 0; its derivative is D^-1 kernel(x).
        """
        if not x >= 0:  # NaN included
            raise ValueError("integrated_kernel takes a nonnegative argument")
        block = exp_samples(self.primitive_generator, [x])[0, :self.n, self.n:]
        return 0.5 * np.eye(self.p) + self.diag.inv_matrix @ self.theta2.conj().T @ block @ self.theta1

    @property
    def primitive_generator(self) -> np.ndarray:
        """Augmented generator [[i beta^H, I], [0, 0]] of size 2n.

        The top-right n x n block of exp(u * generator) is
        int_0^u e^{iw beta^H} dw, for any beta, singular included.
        """
        n = self.n
        aug = np.zeros((2 * n, 2 * n), dtype=complex)
        aug[:n, :n] = 1j * self.beta.conj().T
        aug[:n, n:] = np.eye(n)
        return aug

    def edge_profile(self, xs) -> np.ndarray:
        """Scaled restriction of the primitive to the t = 0 edge.

        At one x, row i is d_i * s_{i,.}(d_i x), that is
        (d_i/2) e_i + theta2[:, i]^H Psi(d_i x) theta1 with
        Psi(u) = int_0^u e^{iw beta^H} dw; the value at x = 0 is D/2.  This
        is the x-dependent column block of the rank-2p coupling in the
        commutator identity (the constant block being the identity).  For a
        1-d array the rows of all its points come component-major, row
        i*len(xs) + a being row i at xs[a], from one :func:`exp_samples`
        call at all points u = d_i x_a; one x is the batch of one.
        """
        xs = np.asarray(xs, dtype=float).reshape(-1)
        if not ((xs >= 0) & (xs <= self.length * (1 + 1e-12))).all():
            raise ValueError(f"edge_profile arguments outside [0, {self.length}]")
        n, p, d = self.n, self.p, self.diag.d
        psi = exp_samples(self.primitive_generator, np.kron(d, xs))[:, :n, n:]
        comp = np.repeat(np.arange(p), xs.size)
        out = np.einsum("av,avw->aw", self.theta2.conj().T[comp], psi) \
            @ self.theta1
        out[np.arange(comp.size), comp] += 0.5 * d[comp]
        return out
