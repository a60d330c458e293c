"""Finite-difference differential geometry on immersed charts.

Central-difference first/second derivatives of a chart map feed the
unnormalized trace of the second fundamental form in an ambient metric,
with Christoffel symbols themselves obtained by finite differences; flat
space is the constant Euclidean metric.  These are the independent
curvature oracles the closed-form routes are checked against, so nothing
here may share code with the analytic formulas.

Every routine is batched over leading axes: N chart centres (N, dim) give
N stencils in one chart call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ChartFailure

ChartMap = Callable[[np.ndarray], np.ndarray]  # (..., P, dim) -> (..., P, D)


def chart_derivatives(chart: ChartMap, xi0: np.ndarray, step: float):
    """Centre value, first and second central differences of chart at xi0.

    For (N, dim) centres the chart sees all N stencils in one (N, S, dim)
    call: the centre, xi0 +- step e_a, and the four points
    xi0 +- step e_a +- step e_b of each pair a < b.  Returns
    (f0, first, second), shaped (N, D), (N, dim, D) and (N, dim, dim, D),
    with first[a] = dF/dxi_a and second[a][b] = d2F/dxi_a dxi_b (symmetric).
    """
    xi0 = np.asarray(xi0, dtype=float)
    dim = xi0.shape[-1]
    eye = np.eye(dim)
    a, b = np.triu_indices(dim, 1)
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    mixed = signs[:, :1, None] * eye[a] + signs[:, 1:, None] * eye[b]  # (4, pairs, dim)
    offsets = np.concatenate([np.zeros((1, dim)), eye, -eye, mixed.reshape(-1, dim)])
    values = np.asarray(chart(xi0[..., None, :] + step * offsets), dtype=float)
    f0 = values[..., 0, :]
    plus, minus = values[..., 1:dim + 1, :], values[..., dim + 1:2 * dim + 1, :]
    first = (plus - minus) / (2.0 * step)
    second = np.empty(xi0.shape[:-1] + (dim, dim) + f0.shape[-1:])
    pp, pm, mp, mm = np.moveaxis(
        values[..., 2 * dim + 1:, :].reshape(xi0.shape[:-1] + (4, len(a)) + f0.shape[-1:]), -3, 0
    )
    # a step whose square underflows to zero divides by zero here, quietly:
    # its induced metric is degenerate too, which the oracle records as a
    # ChartFailure
    with np.errstate(divide="ignore", invalid="ignore"):
        diagonal = (plus - 2.0 * f0[..., None, :] + minus) / (step * step)
        off_diagonal = (pp - pm - mp + mm) / (4.0 * step * step)
    second[..., range(dim), range(dim), :] = diagonal
    second[..., a, b, :] = second[..., b, a, :] = off_diagonal
    return f0, first, second


def christoffel_symbols(metric: Callable[[np.ndarray], np.ndarray],
                        x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Gamma[a, m, n] = 1/2 g^{al} (d_m g_{ln} + d_n g_{lm} - d_l g_{mn}),
    with the metric derivatives by central differences.

    The metric (a (..., D) -> (..., D, D) map) is evaluated on x and its
    2D axis neighbours in one call; (..., D) points give (..., D, D, D)
    symbols.
    """
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1]
    eye = np.eye(dim)
    offsets = np.concatenate([np.zeros((1, dim)), eye, -eye])
    g = np.asarray(metric(x[..., None, :] + step * offsets), dtype=float)
    dg = (g[..., 1:dim + 1, :, :] - g[..., dim + 1:, :, :]) / (2.0 * step)  # dg[m, l, n]
    # brackets[l, m, n] = d_m g_ln + d_n g_lm - d_l g_mn
    brackets = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
    return 0.5 * np.einsum("...al,...lmn->...amn", np.linalg.inv(g[..., 0, :, :]), brackets)


def mean_curvature_riemannian(chart: ChartMap, xi0: np.ndarray,
                              metric: Callable[[np.ndarray], np.ndarray],
                              step: float = 1e-5):
    """Trace of the second fundamental form in an ambient metric.

    The chart maps parameters to ambient coordinates; the ambient covariant
    second derivative is d2F + Gamma(F) dF dF, projected off the tangent
    span with respect to the ambient metric.  The Christoffel symbols use
    the same step as the chart stencil.  Returns (H, norm of H), (N, D) and
    (N,) for (N, dim) centres.
    """
    x0, first, second = chart_derivatives(chart, xi0, step)
    g = np.asarray(metric(x0), dtype=float)
    gamma = christoffel_symbols(metric, x0, step)
    G = first @ g @ np.swapaxes(first, -1, -2)
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        raise ChartFailure("degenerate induced metric in the curvature oracle") from None
    cov = second + np.einsum("...amn,...im,...jn->...ija", gamma, first, first)
    H = np.einsum("...ij,...ija->...a", Ginv, cov)
    # metric-orthogonal projection off the tangent span
    coeff = np.linalg.solve(G, first @ g @ H[..., None])[..., 0]
    H = H - (coeff[..., None, :] @ first)[..., 0, :]
    norm = np.sqrt(np.maximum(0.0, np.einsum("...a,...ab,...b->...", H, g, H)))
    return H, norm


def mean_curvature_flat(chart: ChartMap, xi0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Trace of the second fundamental form for a chart into flat R^D: the
    curved oracle on the constant Euclidean metric, whose finite-difference
    Christoffel symbols are exactly zero."""
    return mean_curvature_riemannian(
        chart, xi0, lambda x: np.broadcast_to(np.eye(x.shape[-1]), x.shape + x.shape[-1:]), step
    )[0]
