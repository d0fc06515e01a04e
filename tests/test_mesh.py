"""Mesh generation and refinement tests.

Structural expectations (triangle counts, tag partitions, conformity)
follow from the documented construction.  Curved-geometry accuracy
anchors — truncated-domain areas against the closed forms pi R^2 - pi a^2
and pi R^2 - pi a1 a2, and the convergence ratios under hmax halving —
were measured once with the quadrature oracle at degree 2q+2 and frozen
with safety margins.
"""

import numpy as np
import pytest

from radpml.basis import lattice_nodes, triangle_quadrature
from radpml.errors import GenerationError, GeometryError, ValidationError
from radpml.mesh import (
    BOUNDARY_OBSTACLE,
    BOUNDARY_OUTER,
    REGION_INTERIOR,
    REGION_PML,
    DiskObstacle,
    EllipseObstacle,
    Geometry,
    Mesh,
    generate,
    mapping,
    max_edge_length,
    refine,
    triangle_areas,
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


def clockwise_triangle_mesh():
    """Hand-built single straight triangle with negative orientation."""
    vertices = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    return Mesh(
        geometry=DISK, q=1,
        vertices=vertices,
        triangles=np.array([[0, 1, 2]]),
        regions=np.array([REGION_INTERIOR], dtype=np.uint8),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
        boundary_tags=np.array([BOUNDARY_OBSTACLE] * 3, dtype=np.uint8),
        interface_edges=np.zeros((0, 2), dtype=np.int64),
        mapping_nodes=vertices[None, :, :].copy())


class TestGeometryValidation:
    def test_positive_obstacle_dimensions(self):
        with pytest.raises(GeometryError):
            DiskObstacle(0.0)
        with pytest.raises(GeometryError):
            EllipseObstacle(0.5, -1.0)

    def test_obstacle_must_fit_inside_onset_circle(self):
        with pytest.raises(GeometryError):
            Geometry(DiskObstacle(1.6), 1.5, 2.0)
        with pytest.raises(GeometryError):
            Geometry(EllipseObstacle(0.5, 1.5), 1.5, 2.0)  # touching is too big

    def test_layer_width_positive(self):
        with pytest.raises(GeometryError):
            Geometry(DiskObstacle(1.0), 1.5, 0.0)

    def test_truncation_radius(self):
        assert DISK.truncation_radius == 3.5

    def test_generate_argument_validation(self):
        with pytest.raises(ValidationError):
            generate(DISK, hmax=0.0, q=2)
        with pytest.raises(ValidationError):
            generate(DISK, hmax=0.5, q=0)


class TestGenerate:
    def test_coarsest_disk_counts(self):
        """At huge hmax the construct bottoms out at 8 sectors and one
        ring per annulus: 2 (rings) * 8 (sectors) * 2 (triangles)."""
        mesh = generate(DISK, hmax=10.0, q=1)
        assert mesh.num_triangles == 32
        assert mesh.num_vertices == 24
        assert np.count_nonzero(mesh.regions == REGION_INTERIOR) == 16
        assert np.count_nonzero(mesh.regions == REGION_PML) == 16
        assert len(mesh.boundary_edges) == 16
        assert np.count_nonzero(mesh.boundary_tags == BOUNDARY_OBSTACLE) == 8
        assert np.count_nonzero(mesh.boundary_tags == BOUNDARY_OUTER) == 8
        assert len(mesh.interface_edges) == 8

    def test_edge_lengths_bounded_by_hmax(self):
        for hmax in (0.9, 0.45):
            mesh = generate(DISK, hmax=hmax, q=2)
            assert max_edge_length(mesh) <= hmax

    def test_triangles_counterclockwise(self):
        mesh = generate(ELLIPSE, hmax=0.7, q=2)
        tri = mesh.vertices[mesh.triangles]
        e1 = tri[:, 1] - tri[:, 0]
        e2 = tri[:, 2] - tri[:, 0]
        assert np.all(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0.0)

    def test_positive_jacobians_at_quadrature_points(self):
        mesh = generate(ELLIPSE, hmax=0.7, q=3)
        pts, _ = triangle_quadrature(2 * mesh.q + 2)
        _, jac = mapping(mesh, pts)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        assert np.all(det > 0.0)

    def test_region_tags_partition_annuli(self):
        """PML triangles fill {r1 <= |x| <= R} and interior triangles
        fill {|x| <= r1}, checked at mapped quadrature points and at the
        mapping nodes (tolerance 1e-12)."""
        for geometry, hmax, q in ((DISK, 0.8, 2), (ELLIPSE, 0.4, 3)):
            mesh = generate(geometry, hmax=hmax, q=q)
            assert set(np.unique(mesh.regions)) == {REGION_INTERIOR, REGION_PML}
            pml = mesh.regions == REGION_PML
            interior = mesh.regions == REGION_INTERIOR
            pts, _ = triangle_quadrature(2 * q + 2)
            phys, _ = mapping(mesh, pts)
            rad = np.hypot(phys[..., 0], phys[..., 1])
            r1 = geometry.r1
            r_out = geometry.truncation_radius
            assert rad[pml].min() >= r1 - 1e-12
            assert rad[pml].max() <= r_out + 1e-12
            assert rad[interior].max() <= r1 + 1e-12
            nrad = np.hypot(mesh.mapping_nodes[..., 0], mesh.mapping_nodes[..., 1])
            assert nrad[pml].min() >= r1 - 1e-12
            assert nrad[pml].max() <= r_out + 1e-12
            assert nrad[interior].max() <= r1 + 1e-12

    def test_interface_is_conforming(self):
        """Interface edges and the node sets of the triangles touching
        them sit on the onset circle to 1e-12; the first-ring PML
        triangles each carry lattice nodes on the circle."""
        for geometry in (DISK, ELLIPSE):
            mesh = generate(geometry, hmax=0.6, q=4)
            r1 = geometry.r1
            ivert = mesh.vertices[np.unique(mesh.interface_edges)]
            assert np.max(np.abs(np.hypot(ivert[:, 0], ivert[:, 1]) - r1)) < 1e-12
            nrad = np.hypot(mesh.mapping_nodes[..., 0], mesh.mapping_nodes[..., 1])
            on_circle = np.abs(nrad - r1) < 1e-12
            touching = np.isin(mesh.triangles, np.unique(mesh.interface_edges))
            # triangles with two corners on the interface share a full edge
            # of q+1 lattice nodes with the circle
            two_corner = touching.sum(axis=1) == 2
            assert np.all(on_circle[two_corner].sum(axis=1) >= mesh.q + 1)

    def test_boundary_tags_partition_boundary(self):
        mesh = generate(DISK, hmax=0.6, q=2)
        assert set(np.unique(mesh.boundary_tags)) == {BOUNDARY_OBSTACLE,
                                                      BOUNDARY_OUTER}
        obstacle = mesh.boundary_tags == BOUNDARY_OBSTACLE
        radii = np.hypot(*mesh.vertices[mesh.boundary_edges[obstacle]].T)
        assert np.max(np.abs(radii - 1.0)) < 1e-12
        radii = np.hypot(*mesh.vertices[mesh.boundary_edges[~obstacle]].T)
        assert np.max(np.abs(radii - 3.5)) < 1e-12

    def test_disk_area(self):
        # anchor measured at 9.0e-11 relative; frozen with margin
        mesh = generate(DISK, hmax=0.8, q=4)
        err = abs(triangle_areas(mesh).sum() - exact_area(DISK)) / exact_area(DISK)
        assert err < 5e-10

    def test_ellipse_area_within_geometry_tolerance(self):
        """Truncated-ellipse areas agree with pi R^2 - pi a1 a2 within
        10 * hmax^(q+1) relative at hmax = 0.1 (measured 3.4e-10 for
        q = 2 and 5.1e-11 for q = 3 — the uniform lattice gains an
        extra order for areas by symmetric error cancellation)."""
        for q in (2, 3):
            mesh = generate(ELLIPSE, hmax=0.1, q=q)
            err = (abs(triangle_areas(mesh).sum() - exact_area(ELLIPSE))
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
                errs.append(abs(triangle_areas(mesh).sum() - exact_area(ELLIPSE))
                            / exact_area(ELLIPSE))
            for coarse, fine in zip(errs, errs[1:]):
                if coarse > 1e-12:
                    assert coarse / fine >= 2.0**q, (q, errs)

    def test_deterministic(self):
        a = generate(ELLIPSE, hmax=0.6, q=3)
        b = generate(ELLIPSE, hmax=0.6, q=3)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.mapping_nodes, b.mapping_nodes)

    def test_mesh_arrays_immutable(self):
        mesh = generate(DISK, hmax=2.0, q=1)
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 7.0


def loop_refine(mesh):
    """Red refinement with the midpoints numbered by a per-triangle dict
    walk and the tagged edges split by dict lookup: an independent
    statement of the numbering that ``refine`` derives from the global
    edge table."""
    tri = mesh.triangles
    mids, _ = mapping(mesh, np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]))
    owner = {}
    points = []
    mid_index = np.empty((len(tri), 3), dtype=np.int64)
    for t, corners in enumerate(tri):
        for e, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            key = (min(corners[a], corners[b]), max(corners[a], corners[b]))
            if key not in owner:
                owner[key] = mesh.num_vertices + len(points)
                points.append(mids[t, e])
            mid_index[t, e] = owner[key]
    m01, m12, m20 = mid_index.T
    children = np.stack([
        np.stack([tri[:, 0], m01, m20], 1),
        np.stack([m01, tri[:, 1], m12], 1),
        np.stack([m20, m12, tri[:, 2]], 1),
        np.stack([m01, m12, m20], 1),
    ], axis=1).reshape(-1, 3)

    def split(edges):
        out = []
        for a, b in edges:
            mid = owner[(min(a, b), max(a, b))]
            out.extend([(a, mid), (mid, b)])
        return np.array(out, dtype=np.int64).reshape(-1, 2)

    corners = np.array([[[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]],
                        [[0.5, 0.0], [1.0, 0.0], [0.5, 0.5]],
                        [[0.0, 0.5], [0.5, 0.5], [0.0, 1.0]],
                        [[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]])
    ref = lattice_nodes(mesh.q)
    lam = np.stack([1.0 - ref[:, 0] - ref[:, 1], ref[:, 0], ref[:, 1]], axis=1)
    nodes = np.stack([mapping(mesh, lam @ corners[k])[0] for k in range(4)],
                     axis=1).reshape(4 * len(tri), -1, 2)
    return {
        "vertices": np.concatenate([mesh.vertices, np.array(points)]),
        "triangles": children,
        "regions": np.repeat(mesh.regions, 4),
        "boundary_edges": split(mesh.boundary_edges),
        "boundary_tags": np.repeat(mesh.boundary_tags, 2),
        "interface_edges": split(mesh.interface_edges),
        "mapping_nodes": nodes,
    }


class TestRefine:
    @pytest.mark.parametrize("geometry", [DISK, ELLIPSE], ids=["disk", "ellipse"])
    @pytest.mark.parametrize("q", [1, 3])
    def test_matches_loop_numbering_bitwise(self, geometry, q):
        mesh = generate(geometry, hmax=0.4, q=q)
        fine = refine(mesh)
        for name, expected in loop_refine(mesh).items():
            actual = getattr(fine, name)
            assert actual.dtype == expected.dtype, name
            assert np.array_equal(actual, expected), name

    def test_counts_and_tags(self):
        mesh = generate(DISK, hmax=1.2, q=2)
        fine = refine(mesh)
        assert fine.num_triangles == 4 * mesh.num_triangles
        assert np.array_equal(fine.regions, np.repeat(mesh.regions, 4))
        assert len(fine.boundary_edges) == 2 * len(mesh.boundary_edges)
        assert np.array_equal(fine.boundary_tags,
                              np.repeat(mesh.boundary_tags, 2))
        assert len(fine.interface_edges) == 2 * len(mesh.interface_edges)

    def test_midpoints_deduplicated(self):
        mesh = generate(DISK, hmax=1.2, q=2)
        edges = {tuple(sorted(pair))
                 for tri in mesh.triangles
                 for pair in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))}
        fine = refine(mesh)
        assert fine.num_vertices == mesh.num_vertices + len(edges)

    def test_area_preserved_exactly(self):
        """Children are images of the parent mapping, so the curved
        domain — hence its area — is unchanged (not just for straight
        elements; measured 4e-13 relative)."""
        mesh = generate(ELLIPSE, hmax=0.6, q=3)
        parent = triangle_areas(mesh).sum()
        child = triangle_areas(refine(mesh)).sum()
        assert abs(child - parent) / parent < 1e-12

    def test_edge_length_halves_per_step(self):
        mesh = generate(DISK, hmax=0.8, q=2)
        lengths = [max_edge_length(mesh)]
        for _ in range(2):
            mesh = refine(mesh)
            lengths.append(max_edge_length(mesh))
        for coarse, fine in zip(lengths, lengths[1:]):
            assert 0.45 <= fine / coarse <= 0.55

    def test_interface_conforming_at_parent_accuracy(self):
        """New midpoints live on the parent's interpolated interface,
        not the analytic circle (children reproduce the parent's curved
        domain exactly, with no re-snapping), so they are on-circle only
        to the parent's geometric accuracy O(hmax^(q+1)); vertices
        inherited from the parent stay exact."""
        parent = generate(ELLIPSE, hmax=0.8, q=3)
        mesh = refine(parent)
        ivert = np.unique(mesh.interface_edges)
        radii = np.hypot(*mesh.vertices[ivert].T)
        inherited = ivert < parent.num_vertices
        assert np.max(np.abs(radii[inherited] - 1.5)) < 1e-12
        assert np.max(np.abs(radii - 1.5)) < 1e-5  # measured 2.9e-7

    def test_inverted_element_reported_with_index(self):
        with pytest.raises(GenerationError, match="element 0"):
            refine(clockwise_triangle_mesh())
