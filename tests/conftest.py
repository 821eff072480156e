"""Shared test problems.

Three anchor problems appear throughout the suite:

* the *scalar* problem (p = n = 1, theta1 = theta2 = 1, beta = -1, d = 1),
  small enough that every quantity has a closed form worked out by hand in
  the tests that use it;
* the *zero* problem (theta1 = theta2 = 0), where the operator is the
  identity and everything collapses to constants;
* random dissipative realizations built by ``random_realization``, whose
  beta is given exactly the anti-Hermitian part the structure identity
  demands, so they are valid by construction.

The frozen ``ACCEPTANCE_CASES`` list drives the end-to-end acceptance
tests; the theta scale factors keep the fundamental solution's growth on
the interval moderate (norms of order 1e2, not 1e8) so that discretization
error, not floating-point roundoff, dominates every comparison.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from dkinv import kernels


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def matrix_im(a: np.ndarray) -> np.ndarray:
    """Matrix imaginary part (a - a^H) / 2i (NOT the entrywise .imag)."""
    a = np.asarray(a, dtype=complex)
    return (a - a.conj().T) / 2j


def random_realization(seed, p, n, d, length=1.0, scale=0.6):
    """Random realization satisfying the structure identity exactly.

    beta's anti-Hermitian part is constructed as -i/2 * gap D^{-1} gap^H
    with gap = theta2 - theta1, which is precisely what the identity
    requires, so ``identity_residual`` is zero up to roundoff.
    """
    rng = np.random.default_rng(seed)
    d = list(d)
    assert len(d) == p
    th1 = scale * (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))
    th2 = scale * (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))
    rmat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rmat = (rmat + rmat.conj().T) / 2
    diag = kernels.DiagonalStructure.from_values(d)
    gap = th2 - th1
    beta = rmat - 0.5j * (gap @ diag.inv_matrix @ gap.conj().T)
    return kernels.Realization.build(th1, th2, beta, d, length)


# (seed, p, n, d, theta_scale): ten valid realizations with p <= 3, n <= 4,
# including repeated dilation values (multiplicity >= 2) in several cases.
ACCEPTANCE_CASES = [
    (1, 1, 1, (1.0,), 0.6),
    (2, 2, 2, (2.0, 1.0), 0.6),
    (3, 2, 3, (3.0, 1.5), 0.6),
    (4, 3, 2, (2.0, 1.0, 1.0), 0.6),
    (5, 3, 4, (3.0, 2.0, 0.5), 0.35),
    (6, 2, 4, (1.0, 1.0), 0.6),
    (7, 3, 3, (2.5, 2.5, 1.0), 0.6),
    (8, 2, 3, (4.0, 1.0), 0.3),
    (9, 3, 4, (2.0, 1.5, 1.0), 0.6),
    (10, 2, 2, (1.7, 1.0), 0.6),
]


def acceptance_realizations():
    return [random_realization(seed, p, n, d, 1.0, scale)
            for seed, p, n, d, scale in ACCEPTANCE_CASES]


def scalar_realization(length=1.0):
    """p = n = 1, theta1 = theta2 = 1, beta = -1, d = 1.

    Worked closed forms (used across the suite):
      k(x)   = exp(-i x) for all x,
      U(y)   = [[1 - y, -y], [y, 1 + y]]  (the generator is nilpotent),
      T(x,t) = -exp(i (t - x)) / 2 on both sides of the diagonal,
      phi(lam) = i/2 - 1/(1 + lam), with a spectral jump of weight 1
      at lam = -1.
    """
    one = np.array([[1.0]], dtype=complex)
    return kernels.Realization.build(one, one, -one, [1.0], length)


def zero_realization(p=2, n=2, d=(2.0, 1.0), length=1.0):
    """theta1 = theta2 = 0: S is the identity, T vanishes, U == I."""
    z = np.zeros((n, p), dtype=complex)
    return kernels.Realization.build(z, z, np.zeros((n, n)), list(d), length)


def hermitian_realization():
    """theta1 == theta2, so beta is Hermitian and the spectrum is real.

    The Weyl function is then meromorphic off the real axis with jumps at
    beta's (real) eigenvalues and a flat continuous density D / (2 pi).
    """
    rng = np.random.default_rng(42)
    p, n, d = 2, 3, [2.0, 1.0]
    th = 0.6 * (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))
    rmat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    beta = (rmat + rmat.conj().T) / 2
    return kernels.Realization.build(th, th, beta, d, 1.0)


def singular_scalar_realization():
    """The scalar problem with theta2 rescaled by c = -1.

    det U_22(a) vanishes exactly at this scaling, so the operator S is
    not invertible; the rescaling also breaks the structure identity
    (beta keeps no dissipative part matching the new theta gap), which the
    identity-gated code paths must flag.
    """
    one = np.array([[1.0]], dtype=complex)
    return kernels.Realization.build(one, -one, -one, [1.0], 1.0)


# ---------------------------------------------------------------------------
# CLI config helpers
# ---------------------------------------------------------------------------

def _pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def config_dict(r: kernels.Realization, flags=None) -> dict:
    d = np.diag(r.diag.matrix).real
    cfg = {
        "p": int(r.p),
        "n": int(r.n),
        "d": [float(v) for v in d],
        "l": float(r.length),
        "theta1": _pairs(r.theta1),
        "theta2": _pairs(r.theta2),
        "beta": _pairs(r.beta),
    }
    if flags is not None:
        cfg["flags"] = flags
    return cfg


def write_config(tmp_path, cfg: dict, name="problem.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def expm_slices(monkeypatch):
    """Counts the matrices dkinv.linalg hands to scipy's Pade ``expm``.

    A stacked call counts one per slice; the returned list holds the
    running total as its only element.
    """
    from dkinv import linalg
    pade = linalg.sla.expm
    count = [0]

    def counting(a):
        a = np.asarray(a)
        count[0] += a.shape[0] if a.ndim == 3 else 1
        return pade(a)

    monkeypatch.setattr(linalg.sla, "expm", counting)
    return count


def bench_shape_realization():
    """Acceptance case 9: p = 3, n = 4, d = (2, 1.5, 1), the benchmark's shape."""
    seed, p, n, d, scale = ACCEPTANCE_CASES[8]
    return random_realization(seed, p, n, d, 1.0, scale)


@pytest.fixture(scope="session")
def scalar():
    return scalar_realization()


@pytest.fixture(scope="session")
def zero_data():
    return zero_realization()


@pytest.fixture(scope="session")
def seed10():
    seed, p, n, d, scale = ACCEPTANCE_CASES[9]
    return random_realization(seed, p, n, d, 1.0, scale)


@pytest.fixture(scope="session")
def scalar_recovery_grid(scalar):
    """Recovered Hamiltonian of the scalar problem on [0, 1], 200 samples."""
    from dkinv import canonical
    xs = np.linspace(scalar.length / 200, scalar.length, 200)
    return canonical.recover_hamiltonian(scalar, xs)


@pytest.fixture(scope="session")
def scalar_recovery_grid_half():
    """Same problem restricted to [0, 0.5] (for monotonicity in length)."""
    from dkinv import canonical
    r = scalar_realization(0.5)
    xs = np.linspace(r.length / 200, r.length, 200)
    return canonical.recover_hamiltonian(r, xs), r


@pytest.fixture(scope="session")
def seed10_recovery_grid(seed10):
    from dkinv import canonical
    xs = np.linspace(seed10.length / 200, seed10.length, 200)
    return canonical.recover_hamiltonian(seed10, xs)
