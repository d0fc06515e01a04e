"""Mesh generation tests.

Structural expectations (triangle counts, the split into the annuli
inside and outside the onset circle |x| = r1, conformity across that
circle) follow from the documented construction; a triangle's annulus
is read off the radii of its mapping nodes.  Curved-geometry accuracy
anchors — truncated-domain areas against the closed forms pi R^2 - pi a^2
and pi R^2 - pi a1 a2, and the convergence ratios under hmax halving —
were measured once with the quadrature oracle at degree 2q+2 and frozen
with safety margins.
"""

import numpy as np
import pytest

from radpml.basis import lagrange_geometry_basis, triangle_quadrature
from radpml.errors import ValidationError
from radpml.mesh import (
    DiskObstacle,
    EllipseObstacle,
    Geometry,
    Mesh,
    _check_jacobians,
    generate,
    mapping,
)

DISK = Geometry(DiskObstacle(1.0), 1.5, 2.0)
ELLIPSE = Geometry(EllipseObstacle(0.5, 1.0), 1.5, 2.0)


def exact_area(geometry):
    r_out = geometry.truncation_radius
    obstacle = geometry.obstacle
    if isinstance(obstacle, DiskObstacle):
        hole = np.pi * obstacle.radius**2
    else:
        hole = np.pi * obstacle.a1 * obstacle.a2
    return np.pi * r_out**2 - hole


def node_radii(mesh):
    """|x| of every mapping node, shape (nt, n_lattice)."""
    return np.hypot(mesh.mapping_nodes[..., 0], mesh.mapping_nodes[..., 1])


def corners(mesh):
    """Corner coordinates (nt, 3, 2) of each triangle: the reference
    corners (0,0), (1,0), (0,1) are lattice nodes 0, q and -1."""
    return mesh.mapping_nodes[:, [0, mesh.q, -1]]


def vertex_coords(mesh):
    """Coordinates of each vertex number, read off the triangle corners.

    Every vertex number is a corner of some triangle, and every triangle
    that shares it, the wrap-around column (theta up to 2 pi) included,
    places it at the same point to 1e-12."""
    tri_corners = corners(mesh)
    coords = np.full((mesh.num_vertices, 2), np.nan)
    coords[mesh.triangles] = tri_corners
    assert not np.isnan(coords).any()
    assert np.abs(coords[mesh.triangles] - tri_corners).max() < 1e-12
    return coords


def areas(mesh):
    """Curved triangle areas: det J of ``mapping`` integrated by the
    degree-(2q+2) rule."""
    pts, wgt = triangle_quadrature(2 * mesh.q + 2)
    _, _, det = mapping(mesh.mapping_nodes, *lagrange_geometry_basis(mesh.q, pts))
    return det @ wgt


def split_at_onset(mesh, r1, tol=1e-12):
    """Masks of the triangles whose mapping nodes all lie inside, and
    all lie outside, the onset circle (to ``tol``)."""
    radii = node_radii(mesh)
    return radii.max(axis=1) <= r1 + tol, radii.min(axis=1) >= r1 - tol


def clockwise_triangle_mesh():
    """Hand-built single straight triangle with negative orientation."""
    vertices = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    return Mesh(
        q=1,
        num_vertices=3,
        triangles=np.array([[0, 1, 2]]),
        outer_edges=np.empty((0, 2), dtype=np.int64),
        mapping_nodes=vertices[None, :, :].copy())


class TestGeometryValidation:
    def test_positive_obstacle_dimensions(self):
        with pytest.raises(ValidationError, match="disk radius must be positive"):
            DiskObstacle(0.0)
        with pytest.raises(ValidationError,
                           match="ellipse semi-axes must be positive"):
            EllipseObstacle(0.5, -1.0)

    def test_obstacle_must_fit_inside_onset_circle(self):
        inside = "must lie strictly inside the onset circle"
        with pytest.raises(ValidationError, match=inside):
            Geometry(DiskObstacle(1.6), 1.5, 2.0)
        with pytest.raises(ValidationError, match=inside):
            Geometry(EllipseObstacle(0.5, 1.5), 1.5, 2.0)  # touching is too big
        for r1 in (np.inf, np.nan):
            with pytest.raises(ValidationError, match="r1 must be finite"):
                Geometry(DiskObstacle(1.0), r1, 2.0)

    def test_layer_width_positive(self):
        for width in (0.0, np.inf, np.nan):
            with pytest.raises(ValidationError,
                               match="layer width must be positive and finite"):
                Geometry(DiskObstacle(1.0), 1.5, width)

    def test_truncation_radius(self):
        assert DISK.truncation_radius == 3.5

    def test_generate_argument_validation(self):
        for hmax in (0.0, np.inf, np.nan):
            with pytest.raises(ValidationError):
                generate(DISK, hmax=hmax, q=2)
        with pytest.raises(ValidationError):
            generate(DISK, hmax=0.5, q=0)


class TestGenerate:
    def test_coarsest_disk_counts(self):
        """At huge hmax the construct bottoms out at 8 sectors and one
        ring per annulus: 2 (rings) * 8 (sectors) * 2 (triangles)."""
        mesh = generate(DISK, hmax=10.0, q=1)
        assert mesh.num_triangles == 32
        assert mesh.num_vertices == 24
        inside, outside = split_at_onset(mesh, DISK.r1)
        assert np.count_nonzero(inside) == 16
        assert np.count_nonzero(outside) == 16
        assert mesh.outer_edges.shape == (8, 2)
        on_ring = np.abs(np.hypot(*vertex_coords(mesh).T) - DISK.r1) < 1e-12
        assert np.count_nonzero(on_ring) == 8

    def test_edge_lengths_bounded_by_hmax(self):
        """Every straight chord between a triangle's corners is at most
        hmax, the triangles of the wrap-around column (the sector that
        closes at theta = 2 pi) included."""
        for hmax in (0.9, 0.45):
            mesh = generate(DISK, hmax=hmax, q=2)
            tri = corners(mesh)
            chords = tri - np.roll(tri, -1, axis=1)
            lengths = np.hypot(chords[..., 0], chords[..., 1])
            n_theta = len(mesh.outer_edges)
            column = mesh.triangles % n_theta
            wrap = (column == 0).any(axis=1) & (column == n_theta - 1).any(axis=1)
            assert np.count_nonzero(wrap) == mesh.num_triangles // n_theta
            assert lengths.max() <= hmax
            assert lengths[wrap].max() <= hmax

    def test_triangles_counterclockwise(self):
        mesh = generate(ELLIPSE, hmax=0.7, q=2)
        tri = corners(mesh)
        e1 = tri[:, 1] - tri[:, 0]
        e2 = tri[:, 2] - tri[:, 0]
        assert np.all(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0.0)

    def test_positive_jacobians_at_quadrature_points(self):
        mesh = generate(ELLIPSE, hmax=0.7, q=3)
        pts, _ = triangle_quadrature(2 * mesh.q + 2)
        _, _, det = mapping(mesh.mapping_nodes,
                            *lagrange_geometry_basis(mesh.q, pts))
        assert np.all(det > 0.0)

    def test_region_tags_partition_annuli(self):
        """No triangle straddles the onset circle: each one's mapping
        nodes lie all in the interior region {|x| <= r1} or all in the
        layer {r1 <= |x| <= R}, and so do its mapped quadrature points
        (tolerance 1e-12)."""
        for geometry, hmax, q in ((DISK, 0.8, 2), (ELLIPSE, 0.4, 3)):
            mesh = generate(geometry, hmax=hmax, q=q)
            r1 = geometry.r1
            r_out = geometry.truncation_radius
            inside, outside = split_at_onset(mesh, r1)
            assert np.all(inside ^ outside)
            assert inside.any() and outside.any()
            assert node_radii(mesh)[outside].max() <= r_out + 1e-12
            pts, _ = triangle_quadrature(2 * q + 2)
            phys, _, _ = mapping(mesh.mapping_nodes,
                                 *lagrange_geometry_basis(q, pts))
            rad = np.hypot(phys[..., 0], phys[..., 1])
            assert rad[outside].min() >= r1 - 1e-12
            assert rad[outside].max() <= r_out + 1e-12
            assert rad[inside].max() <= r1 + 1e-12

    def test_interface_is_conforming(self):
        """A triangle with two corners on the onset circle carries a full
        edge of q+1 lattice nodes on it (to 1e-12), and the inner and
        outer triangles place the same nodes on the circle."""
        for geometry in (DISK, ELLIPSE):
            mesh = generate(geometry, hmax=0.6, q=4)
            r1 = geometry.r1
            on_ring = np.abs(np.hypot(*vertex_coords(mesh).T) - r1) < 1e-12
            on_circle = np.abs(node_radii(mesh) - r1) < 1e-12
            two_corner = on_ring[mesh.triangles].sum(axis=1) == 2
            assert np.all(on_circle[two_corner].sum(axis=1) >= mesh.q + 1)
            inside, outside = split_at_onset(mesh, r1)
            sides = [mesh.mapping_nodes[mask & two_corner][
                         on_circle[mask & two_corner]]
                     for mask in (inside, outside)]
            assert all(len(side) for side in sides)
            gap = np.linalg.norm(sides[0][:, None] - sides[1][None], axis=-1)
            assert gap.min(axis=1).max() < 1e-12
            assert gap.min(axis=0).max() < 1e-12

    def test_outer_edges_close_the_truncation_circle(self):
        """``outer_edges`` is the ring of n_theta edges on |x| = R, in
        order: each edge starts where the previous one ends, and the last
        ends where the first starts.  The first n_theta vertices are the
        obstacle ring, on |x| = 1."""
        mesh = generate(DISK, hmax=0.6, q=2)
        outer = mesh.outer_edges
        vertices = vertex_coords(mesh)
        n_theta = int(np.count_nonzero(
            np.abs(np.hypot(*vertices.T) - 1.0) < 1e-12))
        assert outer.shape == (n_theta, 2)
        assert np.array_equal(outer[1:, 0], outer[:-1, 1])
        assert outer[-1, 1] == outer[0, 0]
        assert np.unique(outer).size == n_theta
        radii = np.hypot(*vertices[outer].T)
        assert np.max(np.abs(radii - 3.5)) < 1e-12
        radii = np.hypot(*vertices[:n_theta].T)
        assert np.max(np.abs(radii - 1.0)) < 1e-12

    def test_disk_area(self):
        # anchor measured at 9.0e-11 relative; frozen with margin
        mesh = generate(DISK, hmax=0.8, q=4)
        err = abs(areas(mesh).sum() - exact_area(DISK)) / exact_area(DISK)
        assert err < 5e-10

    def test_ellipse_area_within_geometry_tolerance(self):
        """Truncated-ellipse areas agree with pi R^2 - pi a1 a2 within
        10 * hmax^(q+1) relative at hmax = 0.1 (measured 3.4e-10 for
        q = 2 and 5.1e-11 for q = 3 — the uniform lattice gains an
        extra order for areas by symmetric error cancellation)."""
        for q in (2, 3):
            mesh = generate(ELLIPSE, hmax=0.1, q=q)
            err = (abs(areas(mesh).sum() - exact_area(ELLIPSE))
                   / exact_area(ELLIPSE))
            assert err < 10.0 * 0.1 ** (q + 1), (q, err)

    def test_area_convergence_under_hmax_halving(self):
        """Geometry error is O(hmax^(q+1)): each halving must shrink the
        area error by at least 2^q while above roundoff (measured ratios
        are 16 for both orders)."""
        for q in (2, 3):
            errs = []
            for hmax in (0.8, 0.4, 0.2):
                mesh = generate(ELLIPSE, hmax=hmax, q=q)
                errs.append(abs(areas(mesh).sum() - exact_area(ELLIPSE))
                            / exact_area(ELLIPSE))
            for coarse, fine in zip(errs, errs[1:]):
                if coarse > 1e-12:
                    assert coarse / fine >= 2.0**q, (q, errs)

    def test_deterministic(self):
        a = generate(ELLIPSE, hmax=0.6, q=3)
        b = generate(ELLIPSE, hmax=0.6, q=3)
        assert a.num_vertices == b.num_vertices
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.mapping_nodes, b.mapping_nodes)

    def test_mesh_arrays_immutable(self):
        mesh = generate(DISK, hmax=2.0, q=1)
        with pytest.raises(ValueError):
            mesh.mapping_nodes[0, 0, 0] = 7.0

    def test_inverted_element_reported_with_index(self):
        with pytest.raises(ValidationError, match="inverted mapped element 0"):
            _check_jacobians(clockwise_triangle_mesh())
        # a nearly circular ellipse just inside r1, meshed this coarsely
        # with q = 1, folds its inner annulus
        geometry = Geometry(EllipseObstacle(0.9, 1.0), 1.001, 1.0)
        with pytest.raises(ValidationError, match="inverted mapped element 4"):
            generate(geometry, hmax=2.0, q=1)
