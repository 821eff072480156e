"""Seeded problem generator for the benchmark workloads.

Every workload runs on one random realization that satisfies the structure
identity exactly: beta's anti-Hermitian part is built as
-i/2 (theta2 - theta1) D^-1 (theta2 - theta1)^H, the same construction as the
test suite's ``random_realization``.  The first draw uses ``seed`` itself as
the generator seed, so seed 9 gives the p = 3, n = 4, d = (2, 1.5, 1), l = 1,
scale 0.6 problem the ROADMAP baseline was measured on.

Draws whose fundamental solution grows beyond ``MAX_GROWTH`` on the interval
are skipped (the next draw seeds the generator with ``[seed, k]``).  That
large-growth regime is where the singularity verdicts and the gamma metric
lose accuracy (ROADMAP open item 2); it is kept out of the benchmark until
that item is fixed, and the draw index is recorded so it stays visible.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from dkinv.inversion import FundamentalSolution
from dkinv.kernels import DiagonalStructure, Realization

P, N_STATE, D, LENGTH, SCALE = 3, 4, (2.0, 1.5, 1.0), 1.0, 0.6
MAX_GROWTH = 1e5
MAX_DRAWS = 64


def draw_realization(rng_seed, p=P, n=N_STATE, d=D, length=LENGTH, scale=SCALE):
    """One identity-exact realization from ``np.random.default_rng(rng_seed)``."""
    rng = np.random.default_rng(rng_seed)
    th1 = scale * (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))
    th2 = scale * (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))
    rmat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rmat = (rmat + rmat.conj().T) / 2
    diag = DiagonalStructure.from_values(list(d))
    gap = th2 - th1
    beta = rmat - 0.5j * (gap @ diag.inv_matrix @ gap.conj().T)
    return Realization.build(th1, th2, beta, list(d), length)


def growth(r) -> float:
    """Spectral norm of the corner U(a) of the fundamental solution."""
    return float(np.linalg.norm(FundamentalSolution(r).corner(), 2))


def _pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def config_dict(r) -> dict:
    """CLI problem description without ``flags``, so every default applies."""
    return {
        "p": int(r.p),
        "n": int(r.n),
        "d": [float(v) for v in r.diag.d],
        "l": float(r.length),
        "theta1": _pairs(r.theta1),
        "theta2": _pairs(r.theta2),
        "beta": _pairs(r.beta),
    }


def make_problem(seed: int, path: Path) -> dict:
    """Write the seed's config JSON to ``path``; return what was generated."""
    for draw in range(MAX_DRAWS):
        r = draw_realization(seed if draw == 0 else [seed, draw])
        g = growth(r)
        if g <= MAX_GROWTH:
            break
    else:
        raise RuntimeError(f"no draw with growth <= {MAX_GROWTH:g} for seed {seed}")
    path.write_text(json.dumps(config_dict(r)), encoding="utf-8")
    return {
        "seed": seed,
        "draw": draw,
        "p": int(r.p),
        "n": int(r.n),
        "l": float(r.length),
        "d": [float(v) for v in r.diag.d],
        "scale": SCALE,
        "growth": g,
        "identity_residual": float(r.identity_residual()),
        "config": str(path.name),
    }
