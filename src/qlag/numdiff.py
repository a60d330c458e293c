"""Finite-difference differential geometry on immersed charts.

Central-difference first/second derivatives of a chart map feed the
unnormalized trace of the second fundamental form, in flat ambient space
or in a curved ambient metric with Christoffel symbols themselves obtained
by finite differences.  These are the independent curvature oracles the
closed-form routes are checked against, so nothing here may share code
with the analytic formulas.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ChartFailure

ChartMap = Callable[[np.ndarray], np.ndarray]  # (P, dim) -> (P, D)


def chart_derivatives(chart: ChartMap, xi0: np.ndarray, step: float):
    """Centre value, first and second central differences of chart at xi0.

    The chart maps a (P, dim) batch of points to (P, D) values and sees
    the whole stencil in one call: the centre, xi0 +- step e_a, and the
    four points xi0 +- step e_a +- step e_b of each pair a < b.  Returns
    (f0, first, second) with first[a] = dF/dxi_a and
    second[a][b] = d2F/dxi_a dxi_b (symmetric).
    """
    xi0 = np.asarray(xi0, dtype=float)
    dim = len(xi0)
    eye = np.eye(dim)
    a, b = np.triu_indices(dim, 1)
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    mixed = signs[:, :1, None] * eye[a] + signs[:, 1:, None] * eye[b]  # (4, pairs, dim)
    offsets = np.concatenate([np.zeros((1, dim)), eye, -eye, mixed.reshape(-1, dim)])
    values = np.asarray(chart(xi0 + step * offsets), dtype=float)
    f0, plus, minus = values[0], values[1:dim + 1], values[dim + 1:2 * dim + 1]
    first = (plus - minus) / (2.0 * step)
    second = np.empty((dim, dim) + f0.shape)
    second[range(dim), range(dim)] = (plus - 2.0 * f0 + minus) / (step * step)
    pp, pm, mp, mm = values[2 * dim + 1:].reshape((4, len(a)) + f0.shape)
    second[a, b] = second[b, a] = (pp - pm - mp + mm) / (4.0 * step * step)
    return f0, first, second


def mean_curvature_flat(chart: ChartMap, xi0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Trace of the second fundamental form for a chart into flat R^D.

    H = sum_ab G^{ab} (d2F/da db)^perp with G the induced metric and perp
    the Euclidean projection off the tangent span.
    """
    _, first, second = chart_derivatives(chart, xi0, step)
    dim = len(first)
    G = first @ first.T
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        raise ChartFailure("degenerate induced metric in flat oracle") from None
    # orthonormal tangent frame for the normal projection
    Q, _ = np.linalg.qr(first.T)
    H = np.zeros(first.shape[1])
    for a in range(dim):
        for b in range(dim):
            H = H + Ginv[a, b] * second[a][b]
    H = H - Q @ (Q.T @ H)
    return H


def christoffel_symbols(metric: Callable[[np.ndarray], np.ndarray],
                        x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Gamma[a, m, n] = 1/2 g^{al} (d_m g_{ln} + d_n g_{lm} - d_l g_{mn}),
    with the metric derivatives by central differences."""
    x = np.asarray(x, dtype=float)
    dim = len(x)
    g0 = np.asarray(metric(x), dtype=float)
    dg = np.zeros((dim, dim, dim))
    for m in range(dim):
        xp, xm = x.copy(), x.copy()
        xp[m] += step
        xm[m] -= step
        dg[m] = (np.asarray(metric(xp)) - np.asarray(metric(xm))) / (2.0 * step)
    ginv = np.linalg.inv(g0)
    gamma = np.zeros((dim, dim, dim))
    for a in range(dim):
        for m in range(dim):
            for n in range(dim):
                s = 0.0
                for l in range(dim):
                    s += ginv[a, l] * (dg[m, l, n] + dg[n, l, m] - dg[l, m, n])
                gamma[a, m, n] = 0.5 * s
    return gamma


def mean_curvature_riemannian(chart: ChartMap, xi0: np.ndarray,
                              metric: Callable[[np.ndarray], np.ndarray],
                              step: float = 1e-5,
                              metric_step: float = 1e-5):
    """Trace of the second fundamental form in a curved ambient metric.

    The chart maps parameters to ambient coordinates; the ambient covariant
    second derivative is d2F + Gamma(F) dF dF, projected off the tangent
    span with respect to the ambient metric.  Returns (H, norm_of_H).
    """
    x0, first, second = chart_derivatives(chart, xi0, step)
    dim, amb = first.shape
    g = np.asarray(metric(x0), dtype=float)
    gamma = christoffel_symbols(metric, x0, metric_step)
    G = first @ g @ first.T
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        raise ChartFailure("degenerate induced metric in curved oracle") from None
    H = np.zeros(amb)
    for a in range(dim):
        for b in range(dim):
            cov = second[a][b] + np.einsum("amn,m,n->a", gamma, first[a], first[b])
            H = H + Ginv[a, b] * cov
    # metric-orthogonal projection off the tangent span
    coeff = np.linalg.solve(G, first @ g @ H)
    H = H - first.T @ coeff
    norm = float(np.sqrt(max(0.0, H @ g @ H)))
    return H, norm
