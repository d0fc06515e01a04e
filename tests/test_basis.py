"""Tests for the reference-triangle machinery.

Expected values here are classical closed forms evaluated inline — the
monomial moments of the unit triangle i! j! / (i + j + 2)!, Kronecker
properties of nodal bases, and exact vanishing of products that contain
a barycentric factor equal to zero — so no external oracle is needed.
Bitwise assertions (edge-trace conformity) use dyadic edge parameters,
for which the barycentric arithmetic is exact in binary floating point.
"""

import math

import numpy as np
import pytest

from radpml.basis import (
    LOCAL_EDGES,
    dof_count,
    edge_parity,
    lagrange_geometry_basis,
    lattice_nodes,
    reference_basis,
    triangle_quadrature,
)
from radpml.errors import ValidationError

RNG = np.random.default_rng(20260817)


def random_reference_points(n):
    """Strictly interior points of the reference triangle."""
    a = RNG.uniform(0.05, 0.95, size=(n, 2))
    flip = a.sum(axis=1) > 1.0
    a[flip] = 1.0 - a[flip][:, ::-1]
    return 0.02 + 0.96 * a


class TestTriangleQuadrature:
    def test_weights_sum_to_reference_area(self):
        for degree in range(0, 17):
            _, w = triangle_quadrature(degree)
            assert math.isclose(w.sum(), 0.5, rel_tol=1e-14)

    def test_points_inside_reference_triangle(self):
        for degree in (1, 4, 9, 16):
            pts, _ = triangle_quadrature(degree)
            assert np.all(pts >= 0.0)
            assert np.all(pts.sum(axis=1) <= 1.0 + 1e-15)

    def test_monomial_moments(self):
        # int_T x^i y^j = i! j! / (i + j + 2)!  for the unit right triangle
        for degree in range(1, 15):
            pts, w = triangle_quadrature(degree)
            for i in range(degree + 1):
                for j in range(degree + 1 - i):
                    val = np.sum(w * pts[:, 0] ** i * pts[:, 1] ** j)
                    exact = (math.factorial(i) * math.factorial(j)
                             / math.factorial(i + j + 2))
                    assert math.isclose(val, exact, rel_tol=1e-13), (degree, i, j)

    def test_rule_is_cached(self):
        assert triangle_quadrature(6) is triangle_quadrature(6)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError, match="must be non-negative"):
            triangle_quadrature(-1)


class TestHierarchicBasis:
    def test_dof_count(self):
        assert [dof_count(p) for p in range(1, 7)] == [3, 6, 10, 15, 21, 28]

    def test_shapes(self):
        pts = random_reference_points(17)
        for p in (1, 3, 6):
            n, dn = reference_basis(p, pts)
            assert n.shape == (dof_count(p), 17)
            assert dn.shape == (dof_count(p), 17, 2)

    def test_vertex_kronecker_and_higher_modes_vanish(self):
        # every edge and bubble mode carries a barycentric factor that is
        # exactly zero at each corner, so the zeros are bitwise
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for p in (2, 4, 6):
            n, _ = reference_basis(p, corners)
            assert np.array_equal(n[:3], np.eye(3))
            assert np.array_equal(n[3:], np.zeros((dof_count(p) - 3, 3)))

    def test_vertex_modes_partition_unity(self):
        pts = random_reference_points(50)
        n, dn = reference_basis(4, pts)
        assert np.max(np.abs(n[:3].sum(axis=0) - 1.0)) < 1e-14
        assert np.max(np.abs(dn[:3].sum(axis=0))) < 1e-14

    def test_gradients_match_finite_differences(self):
        pts = random_reference_points(30)
        h = 1e-6
        for p in (2, 5):
            _, dn = reference_basis(p, pts)
            for axis in range(2):
                shift = np.zeros(2)
                shift[axis] = h
                np_, _ = reference_basis(p, pts + shift)
                nm, _ = reference_basis(p, pts - shift)
                fd = (np_ - nm) / (2.0 * h)
                assert np.max(np.abs(fd - dn[:, :, axis])) < 5e-9

    def test_edge_trace_conformity_is_bitwise(self):
        """Two triangles sharing an edge traverse it in opposite local
        directions.  With the parity signs the element pass applies to
        the reversed side, the shared-edge traces of all matching modes
        agree bitwise, on each of the three local edges.  Dyadic edge
        parameters keep the barycentric arithmetic exact."""
        t = np.arange(1, 32, dtype=float)[:, None] / 32.0
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for e, (a, b) in enumerate(LOCAL_EDGES):
            # triangle A runs its local edge e from vertex a to b; triangle
            # B holds the same physical edge as its local edge e, from b to a
            pts_a = (1.0 - t) * corners[a] + t * corners[b]
            pts_b = t * corners[a] + (1.0 - t) * corners[b]
            for p in range(2, 7):
                n_a, _ = reference_basis(p, pts_a)
                n_b, _ = reference_basis(p, pts_b)
                # vertex modes: A's vertex a matches B's vertex b and back
                assert np.array_equal(n_a[a], n_b[b])
                assert np.array_equal(n_a[b], n_b[a])
                modes = slice(3 + e * (p - 1), 3 + (e + 1) * (p - 1))
                assert np.array_equal(
                    n_a[modes], n_b[modes] * edge_parity(p)[:, None]), (e, p)

    def test_edge_modes_vanish_on_other_edges(self):
        s = np.linspace(0.0, 1.0, 9)
        zero = np.zeros_like(s)
        on_edge = {0: np.stack([s, zero], 1),
                   1: np.stack([1.0 - s, s], 1),
                   2: np.stack([zero, 1.0 - s], 1)}
        p = 4
        for e in range(3):
            n, _ = reference_basis(p, on_edge[e])
            for other in range(3):
                if other == e:
                    continue
                block = n[3 + other * (p - 1): 3 + (other + 1) * (p - 1)]
                assert np.max(np.abs(block)) < 1e-14

    def test_invalid_order_rejected(self):
        with pytest.raises(ValidationError,
                           match="polynomial order must be >= 1"):
            reference_basis(0, np.zeros((1, 2)))


class TestLagrangeGeometry:
    def test_lattice_layout(self):
        nodes = lattice_nodes(2)
        expected = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
                             [0.0, 0.5], [0.5, 0.5], [0.0, 1.0]])
        assert np.array_equal(nodes, expected)
        for q in range(1, 7):
            assert lattice_nodes(q).shape == ((q + 1) * (q + 2) // 2, 2)

    def test_nodal_delta_property(self):
        for q in (1, 3, 6):
            nodes = lattice_nodes(q)
            lvals, _ = lagrange_geometry_basis(q, nodes)
            assert np.max(np.abs(lvals - np.eye(nodes.shape[0]))) < 1e-10

    def test_polynomial_reproduction(self):
        pts = random_reference_points(25)
        for q in (2, 4, 6):
            nodes = lattice_nodes(q)
            lvals, lgrad = lagrange_geometry_basis(q, pts)
            for i in range(q + 1):
                for j in range(q + 1 - i):
                    fnod = nodes[:, 0] ** i * nodes[:, 1] ** j
                    f = pts[:, 0] ** i * pts[:, 1] ** j
                    assert np.max(np.abs(fnod @ lvals - f)) < 1e-11
                    dfx = i * pts[:, 0] ** max(i - 1, 0) * pts[:, 1] ** j if i else 0.0
                    dfy = j * pts[:, 0] ** i * pts[:, 1] ** max(j - 1, 0) if j else 0.0
                    grad = np.einsum("m,mnd->nd", fnod, lgrad)
                    assert np.max(np.abs(grad[:, 0] - dfx)) < 1e-10
                    assert np.max(np.abs(grad[:, 1] - dfy)) < 1e-10

    def test_invalid_order_rejected(self):
        with pytest.raises(ValidationError, match="mapping order must be >= 1"):
            lattice_nodes(0)
