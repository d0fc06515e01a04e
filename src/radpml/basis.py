"""Reference-triangle machinery: hierarchic shape functions, quadrature,
and nodal geometry bases.

The reference triangle has vertices (0,0), (1,0), (0,1) with barycentric
coordinates l0 = 1-x-y, l1 = x, l2 = y.  The hierarchic space of order p
consists of

* 3 vertex functions l_i,
* p-1 modes per edge (a,b): l_a l_b phi_{k-2}(l_b - l_a) for k = 2..p,
  whose edge trace is the integrated Legendre polynomial L_k — the
  kernel phi is obtained by exact polynomial division of L_k by the
  quadratic (1-s^2)/4;
* (p-1)(p-2)/2 interior bubbles l0 l1 l2 P_i(l1-l0) P_j(2 l2 - 1).

Each edge mode's kernel argument runs from the edge's first local vertex
to its second.  L_k and phi_{k-2} have parity (-1)^k, so a triangle that
runs an edge against its global direction (increasing vertex index)
multiplies that edge's degree-k mode by (-1)^k (``edge_parity``), and
neighbouring triangles agree bitwise on the shared trace.

Quadrature on the triangle is a collapsed tensor-product Gauss rule
(exact for the requested total degree), and curved element geometry uses
a degree-q Lagrange basis on the uniform lattice in Silvester's product
form.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = [
    "triangle_quadrature",
    "dof_count",
    "reference_basis",
    "edge_parity",
    "lattice_nodes",
    "lagrange_geometry_basis",
    "LOCAL_EDGES",
]

#: local edges of the reference triangle as (first, second) vertex
LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


def dof_count(p: int) -> int:
    """Dimension of the order-p hierarchic space on one triangle."""
    return (p + 1) * (p + 2) // 2


@lru_cache(maxsize=None)
def triangle_quadrature(degree: int):
    """Collapsed tensor-product Gauss rule exact for total degree <= degree.

    The square (u, v) in [0,1]^2 is mapped by x = u(1-v), y = v with
    Jacobian (1-v); the v-direction rule absorbs the extra linear factor.
    Returns (points (n, 2), weights (n,)) with weights summing to 1/2.
    """
    if degree < 0:
        raise ValidationError("quadrature degree must be non-negative")
    n_u = degree // 2 + 1
    n_v = degree // 2 + 2  # one extra point for the collapse factor (1-v)
    xu, wu = np.polynomial.legendre.leggauss(n_u)
    xv, wv = np.polynomial.legendre.leggauss(n_v)
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    wu = 0.5 * wu
    wv = 0.5 * wv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    wgt = np.outer(wu, wv) * (1.0 - vv)
    pts = np.stack([(uu * (1.0 - vv)).ravel(), vv.ravel()], axis=1)
    return pts, wgt.ravel()


def _legendre_table(kmax: int, s: np.ndarray):
    """P_0..P_kmax and derivatives at s, shapes (kmax+1, len(s))."""
    npts = s.shape[0]
    vals = np.empty((kmax + 1, npts))
    ders = np.empty((kmax + 1, npts))
    vals[0] = 1.0
    ders[0] = 0.0
    if kmax >= 1:
        vals[1] = s
        ders[1] = 1.0
    for k in range(1, kmax):
        vals[k + 1] = ((2 * k + 1) * s * vals[k] - k * vals[k - 1]) / (k + 1)
        ders[k + 1] = ders[k - 1] + (2 * k + 1) * vals[k]
    return vals, ders


@lru_cache(maxsize=None)
def _edge_kernel_coeffs(p: int):
    """Coefficients (ascending) of phi_{k-2} = 4 L_k / (1 - s^2), k = 2..p."""
    out = []
    for k in range(2, p + 1):
        pk = np.zeros(k + 1)
        pk[k] = 1.0
        pk_2 = np.zeros(k + 1)
        pk_2[k - 2] = 1.0
        lk = np.polynomial.polynomial.polysub(
            np.polynomial.legendre.leg2poly(pk),
            np.polynomial.legendre.leg2poly(pk_2)) / (2 * k - 1)
        quot, rem = np.polynomial.polynomial.polydiv(4.0 * lk, [1.0, 0.0, -1.0])
        if np.max(np.abs(rem)) > 1e-12:
            raise AssertionError("integrated Legendre polynomial must vanish at +-1")
        out.append(quot)
    return out


def edge_parity(p: int) -> np.ndarray:
    """(-1)^k of the edge modes k = 2..p (see the module docstring)."""
    return (-1.0) ** np.arange(2, p + 1)


def reference_basis(p: int, points: np.ndarray):
    """Hierarchic shape functions and gradients on the reference triangle.

    Parameters
    ----------
    p : polynomial order >= 1.
    points : (n, 2) reference coordinates.

    Returns
    -------
    (N, dN) with shapes (ndof, n) and (ndof, n, 2); local ordering is
    vertices, then p-1 modes per local edge, then bubbles.
    """
    if p < 1:
        raise ValidationError("polynomial order must be >= 1")
    pts = np.asarray(points, dtype=float)
    lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    grad = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    npts = pts.shape[0]
    ndof = dof_count(p)
    N = np.empty((ndof, npts))
    dN = np.empty((ndof, npts, 2))
    N[:3] = lam
    dN[:3] = grad[:, None, :]
    pos = 3
    kernels = _edge_kernel_coeffs(p) if p >= 2 else []
    for a, b in LOCAL_EDGES:
        prod = lam[a] * lam[b]
        dprod = grad[a][None, :] * lam[b][:, None] + lam[a][:, None] * grad[b][None, :]
        s = lam[b] - lam[a]
        ds = (grad[b] - grad[a])[None, :]
        for coeffs in kernels:
            phi = np.polynomial.polynomial.polyval(s, coeffs)
            dphi = np.polynomial.polynomial.polyval(
                s, np.polynomial.polynomial.polyder(coeffs))
            N[pos] = prod * phi
            dN[pos] = dprod * phi[:, None] + prod[:, None] * dphi[:, None] * ds
            pos += 1
    if p >= 3:
        bubble = lam[0] * lam[1] * lam[2]
        dbubble = (grad[0][None, :] * (lam[1] * lam[2])[:, None]
                   + grad[1][None, :] * (lam[0] * lam[2])[:, None]
                   + grad[2][None, :] * (lam[0] * lam[1])[:, None])
        u = lam[1] - lam[0]
        du = (grad[1] - grad[0])[None, :]
        v = 2.0 * lam[2] - 1.0
        dv = (2.0 * grad[2])[None, :]
        pu, dpu = _legendre_table(p - 3, u)
        pv, dpv = _legendre_table(p - 3, v)
        for i in range(p - 2):
            for j in range(p - 2 - i):
                val = pu[i] * pv[j]
                N[pos] = bubble * val
                dN[pos] = (dbubble * val[:, None]
                           + bubble[:, None] * (dpu[i] * pv[j])[:, None] * du
                           + bubble[:, None] * (pu[i] * dpv[j])[:, None] * dv)
                pos += 1
    assert pos == ndof
    return N, dN


@lru_cache(maxsize=None)
def lattice_nodes(q: int) -> np.ndarray:
    """Uniform degree-q lattice (i/q, j/q), j-major then i, as (n, 2)."""
    if q < 1:
        raise ValidationError("mapping order must be >= 1")
    nodes = [(i / q, j / q) for j in range(q + 1) for i in range(q + 1 - j)]
    return np.array(nodes)


def _silvester_table(q: int, t: np.ndarray):
    """R_0..R_q and derivatives at t, shapes (q+1, len(t)), where
    R_m(t) = prod_{l<m} (q t - l) / (l + 1)."""
    vals = np.ones((q + 1, t.shape[0]))
    ders = np.zeros((q + 1, t.shape[0]))
    for m in range(q):
        factor = (q * t - m) / (m + 1)
        vals[m + 1] = vals[m] * factor
        ders[m + 1] = ders[m] * factor + vals[m] * (q / (m + 1))
    return vals, ders


def lagrange_geometry_basis(q: int, points: np.ndarray):
    """Degree-q nodal (Lagrange) basis on the uniform lattice.

    The function of the node (i/q, j/q) is Silvester's product
    R_k(l0) R_i(l1) R_j(l2) with k = q - i - j, which needs no matrix
    inversion; gradients follow from the product rule.

    Returns (L, dL) with shapes (n_nodes, n) and (n_nodes, n, 2);
    L[m, k] is the m-th nodal function at points[k].
    """
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    a, da = _silvester_table(q, 1.0 - x - y)
    b, db = _silvester_table(q, x)
    c, dc = _silvester_table(q, y)
    i, j = np.rint(lattice_nodes(q) * q).astype(np.int64).T
    k = q - i - j
    L = a[k] * b[i] * c[j]
    dL = np.stack([a[k] * db[i] * c[j] - da[k] * b[i] * c[j],
                   a[k] * b[i] * dc[j] - da[k] * b[i] * c[j]], axis=-1)
    return L, dL
