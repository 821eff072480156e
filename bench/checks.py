"""Correctness checks on each workload's output, run outside the timed region.

Every function returns a list of failure messages, empty when all is right.
The ``check_*`` functions read the file one command wrote and run on every
output that differs from the checked reference; ``composition`` and
``route_agreement`` make extra program calls and run once per run.
"""

from __future__ import annotations

import json

import numpy as np

from dkinv import canonical, discretization
from dkinv.inversion import InverseKernel
from dkinv.linalg import exchange_j

ENTRY_RTOL = 1e-12       # CSV cell against InverseKernel.entry
COMPOSITION_TOL = 2e-1   # ||T_N S_N - I||, the tolerance of `verify --level quick`
GAMMA_METRIC_TOL = 1e-7  # ||gamma J gamma^H - D||, as in `verify`
ROUTE_RTOL = 1e-8        # closed route against route="quadrature"
SAMPLED_CELLS = 64


def check_invert(path, r, grid: int, seed: int) -> list:
    """Row count, header, and sampled cells against the pointwise entry."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        lines = fh.read().splitlines()
    p = r.p
    if header != "i,j,x,t,re,im\n":
        return [f"unexpected header {header!r}"]
    if len(lines) != p * p * grid * grid:
        return [f"{len(lines)} rows, expected {p * p * grid * grid}"]
    kernel = InverseKernel.from_realization(r)
    fund, d = kernel.fund, r.diag.d
    norms = {True: np.linalg.norm(kernel.upper_factor, 2),
             False: np.linalg.norm(kernel.p_cross, 2)}
    rng = np.random.default_rng(seed)
    errors = []
    for idx in rng.choice(len(lines), size=min(SAMPLED_CELLS, len(lines)), replace=False):
        i, j, x, t, re, im = lines[idx].split(",")
        i, j, x, t = int(i) - 1, int(j) - 1, float(x), float(t)
        want = kernel.entry(i, j, x, t)
        got = complex(float(re), float(im))
        # Both sides evaluate row @ factor @ col, associated differently, so
        # the error is relative to the size of the terms, not of their sum.
        scale = (np.linalg.norm(fund.left_row(i, x)) * norms[d[i] * x >= d[j] * t]
                 * np.linalg.norm(fund.right_col(j, t)))
        if abs(got - want) > ENTRY_RTOL * scale:
            errors.append(f"row {idx + 2}: {got!r} != entry {want!r}")
    return errors


def composition(r, count: int) -> list:
    """Nystrom check that the closed-form inverse inverts S at N = count."""
    kernel = InverseKernel.from_realization(r)
    s_op = discretization.discretize_operator(r, count)
    t_op = discretization.discretize_inverse(kernel, count)
    comp = discretization.spectral_norm(t_op.matrix @ s_op.matrix - np.eye(s_op.size))
    if not comp <= COMPOSITION_TOL:
        return [f"||T_N S_N - I|| = {comp:.3e} at N = {count} exceeds {COMPOSITION_TOL}"]
    return []


def read_recover(path, p: int):
    """(xs, gammas, hams) from the recover CSV (column-major re/im pairs)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.split(",") for line in fh.read().splitlines()]
    width = 1 + 2 * (p * 2 * p) + 2 * (2 * p * 2 * p)
    if len(header) != width or any(len(row) != width for row in rows):
        raise ValueError(f"recover CSV rows must have {width} cells")
    vals = np.array(rows, dtype=float)
    xs = vals[:, 0]
    g = vals[:, 1:1 + 4 * p * p]
    gammas = (g[:, 0::2] + 1j * g[:, 1::2]).reshape(len(rows), 2 * p, p)
    h = vals[:, 1 + 4 * p * p:]
    hams = (h[:, 0::2] + 1j * h[:, 1::2]).reshape(len(rows), 2 * p, 2 * p)
    return xs, gammas.transpose(0, 2, 1), hams.transpose(0, 2, 1)


def check_recover(path, r, samples: int) -> list:
    """gamma J gamma^H = D at every sample, and H = gamma^H gamma."""
    try:
        xs, gammas, hams = read_recover(path, r.p)
    except ValueError as exc:
        return [str(exc)]
    if xs.size != samples:
        return [f"{xs.size} samples, expected {samples}"]
    ex, dmat = exchange_j(r.p), np.diag(r.diag.d)
    errors = []
    for x, gm, hm in zip(xs, gammas, hams):
        gap = np.linalg.norm(gm @ ex @ gm.conj().T - dmat)
        if not gap <= GAMMA_METRIC_TOL:
            errors.append(f"x = {x:.17g}: ||gamma J gamma^H - D|| = {gap:.3e}")
        hgap = np.linalg.norm(hm - gm.conj().T @ gm)
        if not hgap <= 1e-12 * (1.0 + np.linalg.norm(hm)):
            errors.append(f"x = {x:.17g}: ||H - gamma^H gamma|| = {hgap:.3e}")
    return errors


def route_agreement(path, r) -> list:
    """A few closed-route samples against the quadrature route."""
    xs, gammas, _ = read_recover(path, r.p)
    errors = []
    for k in sorted({0, xs.size // 2, xs.size - 1}):
        ref = canonical.hamiltonian_factor(r, float(xs[k]), route="quadrature")
        gap = np.linalg.norm(gammas[k] - ref)
        if not gap <= ROUTE_RTOL * (1.0 + np.linalg.norm(ref)):
            errors.append(f"x = {xs[k]:.17g}: closed vs quadrature route differ by {gap:.3e}")
    return errors


def check_verify(path) -> list:
    """Every check in the report ran and passed."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if not report:
        return ["empty verify report"]
    return [f"{name}: value {entry['value']:.3e} > tol {entry['tol']:.3e}"
            for name, entry in sorted(report.items()) if not entry["pass"]]
