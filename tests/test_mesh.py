"""Mesh data model, generators, refinement and I/O tests."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvem import mesh as M
from polyvem.analysis import family_mesh

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]

# vertices 0-4: a self-intersecting pentagon of positive signed area (its
# edge 2-3 crosses edge 0-1); vertices 5-7: a separate triangle
TANGLED = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.5, -0.5], [0.0, 2.0],
           [3.0, 0.0], [4.0, 0.0], [3.0, 1.0]]


def spiral(end):
    """(0, 0), (1, 0), then 24 points from angle 0.1 to ``end`` at radii
    from 1 to 1.1: a loop that winds round more than once, of positive area
    and covered by its triangles."""
    angles, radii = np.linspace(0.1, end, 24), np.linspace(1.0, 1.1, 24)
    arc = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return [[0.0, 0.0], [1.0, 0.0]] + arc.tolist()


# Voronoi seeds: one per quadrant, and 20 scattered well inside the square
QUADRANTS = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
RANDOM_20 = np.random.default_rng(1).uniform(0.1, 0.9, (20, 2)).tolist()


def total_area(mesh):
    return sum(g.area.sum() for g in mesh.cell_groups)


def hanging_and_far():
    """A distorted 4 x 4 grid with three cells refined (25 cells, hanging
    vertices at the middles of sides), and the same mesh scaled by 2**-10
    and moved to (1e3, -1e3), where the rounding of a coordinate is larger
    than 1e-12 of a side."""
    mesh = M.refine_cells(M.generate_distorted_square_mesh(4, 0.2, seed=3), [1, 5, 10])
    return mesh, M.PolyMesh(mesh.vertices * 2.0**-10 + (1e3, -1e3), mesh.cells)


@st.composite
def _grids(draw):
    """Distorted grids with some cells refined in two rounds (hanging nodes,
    also on the sides of refined cells' children)."""
    n = draw(st.integers(min_value=2, max_value=3))
    mesh = M.generate_distorted_square_mesh(
        n, draw(st.floats(0.0, 0.3)), seed=draw(st.integers(0, 1000))
    )
    for _ in range(2):
        marked = draw(st.lists(st.integers(0, mesh.num_cells - 1), max_size=3, unique=True))
        mesh = M.refine_cells(mesh, marked)
    return mesh


class TestPolyMeshBasics:
    def test_unit_square_cell(self):
        mesh = M.PolyMesh(UNIT_SQUARE, [[0, 1, 2, 3]])
        g = mesh.cell_geometry(0)
        assert g.area == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(g.centroid, [0.5, 0.5], atol=1e-15)
        assert g.diameter == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert mesh.h == pytest.approx(np.sqrt(2.0), abs=1e-15)
        np.testing.assert_allclose(g.edge_lengths, np.ones(4), atol=1e-15)
        np.testing.assert_allclose(
            g.normals, [[0, -1], [1, 0], [0, 1], [-1, 0]], atol=1e-15
        )

    def test_reference_triangle(self):
        mesh = M.PolyMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        g = mesh.cell_geometry(0)
        assert g.area == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(g.centroid, [1 / 3, 1 / 3], atol=1e-15)

    def test_regular_hexagon(self):
        ang = np.arange(6) * np.pi / 3
        mesh = M.PolyMesh(np.column_stack([np.cos(ang), np.sin(ang)]), [list(range(6))])
        assert mesh.cell_geometry(0).area == pytest.approx(3 * np.sqrt(3) / 2, rel=1e-14)
        assert mesh.cell_geometry(0).diameter == pytest.approx(2.0, abs=1e-14)

    def test_edge_connectivity_two_cells(self):
        mesh = M.PolyMesh(
            [[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]],
            [[0, 1, 4, 5], [1, 2, 3, 4]],
        )
        assert mesh.num_edges == 7
        shared = mesh.cell_geometry(0).edge_ids[1]  # cell 0's edge from vertex 1 to 4
        assert mesh.edges[shared].tolist() == [1, 4]
        assert not mesh.boundary_edges[shared]
        assert set(mesh.edge_cells[shared]) == {0, 1}
        assert mesh.boundary_edges.sum() == 6
        assert mesh.boundary_vertices.all()  # every vertex touches the outer boundary

    def test_cell_edge_ids_orientation(self):
        mesh = M.PolyMesh(UNIT_SQUARE, [[0, 1, 2, 3]])
        g = mesh.cell_geometry(0)
        # loop 0->1->2->3->0: edges (0,1) (1,2) (2,3) (3,0); the last runs
        # from the edge's higher vertex to its lower one
        assert mesh.edges[g.edge_ids].tolist() == [[0, 1], [1, 2], [2, 3], [0, 3]]
        forward = g.vertex_ids < np.roll(g.vertex_ids, -1)
        assert list(forward) == [True, True, True, False]
        assert sorted(g.edge_ids) == list(range(4))

    @pytest.mark.parametrize("family", ["distorted", "voronoi", "concave", "hanging"])
    def test_edge_ids_join_consecutive_vertices(self, family):
        """Every group's edge i joins its loop's vertices i and i+1, lists
        the cell among its owners, and the edges are used as often as they
        have owners."""
        if family == "hanging":
            mesh = M.refine_cells(M.generate_distorted_square_mesh(4, 0.2, seed=3), [1, 5, 10])
        else:
            mesh = family_mesh(family, 1, seed=2)
        for g in mesh.cell_groups:
            loops = g.vertex_ids
            ends = np.sort(np.stack([loops, np.roll(loops, -1, axis=1)], axis=-1), axis=-1)
            np.testing.assert_array_equal(np.sort(mesh.edges[g.edge_ids], axis=-1), ends)
            assert (mesh.edge_cells[g.edge_ids] == g.index[:, None, None]).any(axis=-1).all()
        uses = np.concatenate([g.edge_ids.ravel() for g in mesh.cell_groups])
        owners = (mesh.edge_cells >= 0).sum(axis=1)
        np.testing.assert_array_equal(np.bincount(uses, minlength=mesh.num_edges), owners)

    @pytest.mark.parametrize(
        "vertices,cells,fragment",
        [
            ([[0, 0], [1, 0]], [[0, 1]], "at least 3"),
            (UNIT_SQUARE, [[0, 1, 2, 7]], "out of range"),
            (UNIT_SQUARE, [[0, 1, 2, 1]], "repeats"),
            (UNIT_SQUARE, [[0, 3, 2, 1]], "not CCW"),
            ([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], [[0, 1, 4], [0, 1, 4]], "same direction"),
            # the lowest bad cell is named, whatever its check or vertex count
            (TANGLED, [[0, 1, 2, 3, 4], [5, 7, 6]], "^cell 0 cannot be triangulated"),
            (TANGLED, [[5, 6, 7], [5, 6, 6], [5, 6, 9]], "^cell 1 repeats"),
            (TANGLED, [[5, 6, 9], [0, 1]], "^cell 0 has a vertex index out of range"),
            (TANGLED, [[5, 6, 7], [0, 1], [5, 6, 9, 7]], "^cell 1 needs at least 3"),
            # flat and zero-length relative to the cell diameter, not absolutely
            ([[0, 0], [10, 0], [5, 2e-12]], [[0, 1, 2]], "^cell 0 is degenerate or not CCW"),
            ([[0, 0], [1, 0], [1, 1], [1 - 1e-13, 1], [0, 1]], [[0, 1, 2, 3, 4]],
             "^cell 0 has a zero-length edge"),
            # the input as a whole
            ([0.0, 0.0, 1.0], [[0, 1, 2]], "^vertices must be an"),
            ([[0, 0], [1, 0], [0, np.inf]], [[0, 1, 2]], "^non-finite vertex coordinates$"),
            (UNIT_SQUARE, [], "^a mesh needs at least one cell$"),
            # loops that wind round more than once: every corner turning left
            # (the fan), and one turning right (ear clipped)
            (spiral(4 * np.pi + 0.05), [range(26)], "^cell 0 has turning number 3, not 1"),
            (spiral(4 * np.pi - 0.42) + TANGLED[5:], [[26, 27, 28], range(26)],
             "^cell 1 has turning number 2, not 1"),
        ],
    )
    def test_validation_errors(self, vertices, cells, fragment):
        with pytest.raises(M.MeshError, match=fragment.replace("(", r"\(")):
            M.PolyMesh(vertices, cells)

    def test_two_dimensional_loop_rejected(self):
        """A loop given as a 2-d array is a bad cell of its own, although
        its length of 3 rows would stack it with the triangles."""
        with pytest.raises(M.MeshError, match="^cell 1 needs at least 3 vertices") as info:
            M.PolyMesh(TANGLED, [[5, 6, 7], [[5, 6], [6, 7], [7, 5]], [5, 6, 9]])
        assert info.value.cell == 1

    def test_self_intersecting_cell_rejected(self):
        """Positive signed area, but no triangulation covers the loop."""
        assert M.polygon_geometry(np.array(TANGLED[:5]))[0] > 0
        with pytest.raises(M.MeshError, match="^cell 1 cannot be triangulated") as info:
            M.PolyMesh(TANGLED, [[5, 6, 7], [0, 1, 2, 3, 4]])
        assert info.value.cell == 1

    def test_groups_carry_triangles_in_slots(self):
        """Cells are grouped by (vertex count, triangle count), each group
        holding its cells' triangles; ``cell_slot`` finds every cell."""
        mesh = M.refine_cells(M.generate_distorted_square_mesh(3, 0.2, seed=2), [4])
        keys = [(g.coords.shape[1], g.triangles.shape[1]) for g in mesh.cell_groups]
        assert keys == sorted(set(keys)) and len(keys) > 1
        for ci in range(mesh.num_cells):
            g = mesh.cell_geometry(ci)
            assert g.index == ci
            np.testing.assert_array_equal(g.vertex_ids, mesh.cells[ci])
            assert M.triangle_areas(g.triangles).sum() == pytest.approx(g.area, rel=1e-13)

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_grid_accepted_at_any_scale(self, scale):
        mesh = M.generate_distorted_square_mesh(2, 0.0, seed=0)
        scaled = M.PolyMesh(mesh.vertices * scale, mesh.cells)
        assert total_area(scaled) == pytest.approx(scale**2, rel=1e-14)

    def test_zero_length_edge_raises(self):
        # vertices 2 and 3 are distinct indices at one point
        vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]
        with pytest.raises(M.MeshError, match="cell 0 has a zero-length edge"):
            M.PolyMesh(vertices, [[0, 1, 2, 3, 4]])


class TestDistortedFamily:
    def test_zero_distortion_is_uniform_grid(self):
        mesh = M.generate_distorted_square_mesh(2, 0.0, seed=0)
        assert mesh.num_cells == 4
        assert mesh.h == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-15)
        assert total_area(mesh) == pytest.approx(1.0, abs=1e-14)

    def test_distorted_16_cells_partition(self):
        mesh = M.generate_distorted_square_mesh(4, 0.3, seed=1)
        assert mesh.num_cells == 16
        assert total_area(mesh) == pytest.approx(1.0, abs=1e-12)
        # corners pinned, boundary vertices stay on the boundary
        for corner in UNIT_SQUARE:
            assert any(np.allclose(v, corner, atol=1e-15) for v in mesh.vertices)
        on_bdry = mesh.vertices[mesh.boundary_vertices]
        dist = np.minimum(
            np.minimum(on_bdry[:, 0], 1 - on_bdry[:, 0]),
            np.minimum(on_bdry[:, 1], 1 - on_bdry[:, 1]),
        )
        assert np.abs(dist).max() < 1e-14

    def test_coarsest_h_band(self):
        mesh = M.generate_distorted_square_mesh(4, 0.3, seed=0)
        assert 0.35 <= mesh.h <= 0.5

    def test_determinism(self):
        a = M.generate_distorted_square_mesh(8, 0.3, seed=11)
        b = M.generate_distorted_square_mesh(8, 0.3, seed=11)
        np.testing.assert_array_equal(a.vertices, b.vertices)

    def test_all_cells_simple_across_seeds(self):
        for seed in range(8):
            mesh = M.generate_distorted_square_mesh(8, 0.45, seed=seed)
            assert total_area(mesh) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("distortion", [0.3, 0.4999])
    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_box_corners_give_valid_cells(self, n, distortion):
        """The worst draws the generator can make, every moving coordinate
        at an end of its range, still give simple quads of area at least
        side^2, side = (1 - 2 distortion) / n: the reason it needs no
        validity check.  Rounding the coordinates, all in [0, 1], can take
        a few eps off a side: at n = 40 and 0.4999 a cell whose corners all
        point inward is a square of side 5e-6 that comes out 3.7e-11 small."""
        grid = M.generate_distorted_square_mesh(n, 0.0, seed=0)
        interior = (grid.vertices > 0.0) & (grid.vertices < 1.0)
        signs = np.random.default_rng(n).choice([-1.0, 1.0], size=grid.vertices.shape)
        mesh = M.PolyMesh(grid.vertices + interior * signs * distortion / n, grid.cells)
        assert {g.triangles.shape[1] for g in mesh.cell_groups} == {2}
        area = np.concatenate([g.area for g in mesh.cell_groups])
        side = (1.0 - 2.0 * distortion) / n
        assert len(area) == n * n
        assert area.min() >= (side - 4 * np.finfo(float).eps) ** 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            M.generate_distorted_square_mesh(1, 0.3, seed=0)
        with pytest.raises(ValueError):
            M.generate_distorted_square_mesh(4, 0.5, seed=0)


class TestVoronoiFamily:
    def test_quadrant_seeds_give_blocks(self):
        mesh = M.voronoi_mesh_from_seeds(np.array(QUADRANTS), lloyd_iterations=0)
        assert mesh.num_cells == 4
        for ci in range(4):
            assert mesh.cell_geometry(ci).area == pytest.approx(0.25, abs=1e-12)

    def test_partition_and_convexity(self):
        mesh = M.generate_voronoi_mesh(64, lloyd_iterations=3, seed=7)
        assert mesh.num_cells == 64
        assert total_area(mesh) == pytest.approx(1.0, abs=1e-10)
        for ci in range(mesh.num_cells):
            c = mesh.cell_geometry(ci).coords
            prev = c - np.roll(c, 1, axis=0)
            nxt = np.roll(c, -1, axis=0) - c
            cross = prev[:, 0] * nxt[:, 1] - prev[:, 1] * nxt[:, 0]
            assert (cross > -1e-12).all()

    def test_coarsest_h_band(self):
        mesh = M.generate_voronoi_mesh(16, lloyd_iterations=3, seed=0)
        assert 0.25 <= mesh.h <= 0.4

    def test_fewer_than_four_seeds_rejected(self):
        with pytest.raises(ValueError, match="^need at least 4 seeds$"):
            M.voronoi_mesh_from_seeds(np.array(QUADRANTS[:3]), lloyd_iterations=0)
        with pytest.raises(ValueError, match="^n_seeds must be >= 4$"):
            M.generate_voronoi_mesh(3, lloyd_iterations=0, seed=0)

    def test_negative_lloyd_iterations_rejected(self):
        with pytest.raises(ValueError, match="lloyd_iterations must be >= 0, got -3"):
            M.generate_voronoi_mesh(16, lloyd_iterations=-3, seed=0)

    def test_lloyd_reduces_spread(self):
        rough = M.generate_voronoi_mesh(49, lloyd_iterations=0, seed=2)
        smooth = M.generate_voronoi_mesh(49, lloyd_iterations=4, seed=2)

        def spread(mesh):
            areas = [mesh.cell_geometry(i).area for i in range(mesh.num_cells)]
            return np.std(areas) / np.mean(areas)

        assert spread(smooth) < spread(rough)

    @pytest.mark.parametrize("outside", [(0.0, 0.5), (0.5, 1.2), (np.nan, 0.5)],
                             ids=["on-side", "beyond-side", "nan"])
    def test_seeds_outside_the_square_are_refused(self, outside):
        with pytest.raises(M.MeshError, match=r"^seeds must lie strictly inside \(0,1\)\^2$"):
            M.voronoi_mesh_from_seeds(np.array(QUADRANTS + [outside]), lloyd_iterations=0)

    @pytest.mark.parametrize("seeds, named", [
        (QUADRANTS + [(0.75, 0.75)], "(3, 4)"),
        ([(0.5, 0.5)] * 6, "(0, 1, 2, 3, 4, 5)"),
        ([(0.3, 0.3)] * 3 + [(0.7, 0.3), (0.3, 0.7), (0.7, 0.7)], "(0, 1, 2)"),
        (RANDOM_20 + [(1e-10, 1e-10)] * 2, "(20, 21)"),
        (RANDOM_20 + [(0.5, 1.0 - 1e-10)] * 3, "(20, 21, 22)"),
        (RANDOM_20 + [(1.0 - 1e-8, 0.5)] * 6, "(20, 21, 22, 23, 24, 25)"),
        (QUADRANTS + [(0.25, 0.25), (0.75, 0.75 + 5e-10)], "(0, 4); (3, 5)"),
    ], ids=["pair", "six-copies", "three-of-six", "pair-at-corner", "three-at-side",
            "six-near-side", "two-groups"])
    def test_coincident_seeds_are_refused_by_name(self, monkeypatch, seeds, named):
        """Seeds within the 1e-9 vertex snap of each other are refused before
        any Voronoi diagram is built; the error names every copy, grouped."""
        calls = TestVoronoiMirroring.spy(monkeypatch)
        with pytest.raises(M.MeshError, match=rf"^coincident seeds {re.escape(named)} lie within"):
            M.voronoi_mesh_from_seeds(np.array(seeds), lloyd_iterations=0)
        assert calls == []

    @pytest.mark.parametrize("gap", [1.5e-9, 1e-8, 1e-6])
    @pytest.mark.parametrize("first", [(0.5, 0.5), (0.3, 0.6), (0.5, 1.0 - 2e-9)],
                             ids=["centre", "off-centre", "below-top"])
    def test_seeds_just_beyond_the_snap_get_a_cell_each(self, first, gap):
        seeds = np.array(QUADRANTS + [first, (first[0] + gap, first[1])])
        mesh = M.voronoi_mesh_from_seeds(seeds, lloyd_iterations=0)
        assert mesh.num_cells == 6
        assert total_area(mesh) == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        a = M.generate_voronoi_mesh(36, 2, seed=5)
        b = M.generate_voronoi_mesh(36, 2, seed=5)
        np.testing.assert_array_equal(a.vertices, b.vertices)


class TestVoronoiMirroring:
    """Seeds are mirrored only across the sides they lie near; the clipped
    diagram must still be the Voronoi diagram of the seeds in the square,
    and a seed set whose cells reach sides its seeds are far from must fall
    back to mirroring every seed."""

    @staticmethod
    def spy(monkeypatch):
        """The list of the points of every Voronoi diagram computed from now on."""
        calls, voronoi_diagram = [], M.Voronoi

        def voronoi(points):
            calls.append(points)
            return voronoi_diagram(points)

        monkeypatch.setattr(M, "Voronoi", voronoi)
        return calls

    @classmethod
    def build(cls, monkeypatch, make):
        """The mesh, its seeds (the first rows of the last diagram) and the
        number of Voronoi diagrams computed on the way."""
        calls = cls.spy(monkeypatch)
        mesh = make()
        monkeypatch.undo()
        return mesh, calls[-1][: mesh.num_cells], len(calls)

    @staticmethod
    def assert_voronoi_partition(mesh, seeds):
        for ci, loop in enumerate(mesh.cells):
            pts = mesh.vertices[loop]
            dist = np.hypot(*(pts[:, None, :] - seeds[None, :, :]).transpose(2, 0, 1))
            assert (dist[:, ci] <= dist.min(axis=1) + 1e-12).all(), f"cell {ci}"
        assert ((mesh.vertices >= 0.0) & (mesh.vertices <= 1.0)).all()
        assert total_area(mesh) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_ladder_is_voronoi_without_fallback(self, monkeypatch, level):
        mesh, seeds, calls = self.build(monkeypatch, lambda: family_mesh("voronoi", level))
        self.assert_voronoi_partition(mesh, seeds)
        assert calls == 11  # ten Lloyd steps and the final diagram, one each

    def test_clustered_seeds_fall_back_to_full_mirroring(self, monkeypatch):
        cluster = 0.4 + 0.2 * np.random.default_rng(0).random((40, 2))
        mesh, seeds, calls = self.build(monkeypatch, lambda: M.voronoi_mesh_from_seeds(cluster, 0))
        self.assert_voronoi_partition(mesh, seeds)
        assert calls == 2  # no seed lies near a side: the band diagram is unbounded
        np.testing.assert_array_equal(seeds, cluster)


class TestConcaveFamily:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            M.generate_concave_mesh(0)

    def test_two_cells_partition_unit_square(self):
        mesh = M.generate_concave_mesh(1)
        assert mesh.num_cells == 2
        assert total_area(mesh) == pytest.approx(1.0, abs=1e-14)
        for ci in range(2):
            assert mesh.cell_geometry(ci).area == pytest.approx(0.5, abs=1e-14)

    def test_each_cell_has_one_reflex_vertex(self):
        mesh = M.generate_concave_mesh(1)
        for ci in range(2):
            c = mesh.cell_geometry(ci).coords
            prev = c - np.roll(c, 1, axis=0)
            nxt = np.roll(c, -1, axis=0) - c
            cross = prev[:, 0] * nxt[:, 1] - prev[:, 1] * nxt[:, 0]
            assert (cross < -1e-12).sum() == 1

    def test_cell_counts_and_conformity(self):
        mesh = M.generate_concave_mesh(2)
        assert mesh.num_cells == 8
        assert total_area(mesh) == pytest.approx(1.0, abs=1e-13)

    def test_exact_h_halving(self):
        h2 = M.generate_concave_mesh(2).h
        h4 = M.generate_concave_mesh(4).h
        assert abs(h2 / h4 - 2.0) < 1e-12

    def test_h_value(self):
        # diameter of each half-square piece is sqrt(1 + 1/4) * side
        mesh = M.generate_concave_mesh(1)
        assert mesh.h == pytest.approx(np.sqrt(1.25), abs=1e-14)


class TestRefinement:
    def test_refine_single_cell(self):
        mesh = M.generate_distorted_square_mesh(2, 0.0, seed=0)
        fine = M.refine_cells(mesh, [0])
        assert fine.num_cells == 7
        assert total_area(fine) == pytest.approx(1.0, abs=1e-13)
        sizes = sorted(len(c) for c in fine.cells)
        # four children (quads), two neighbors gain one hanging vertex each
        assert sizes == [4, 4, 4, 4, 4, 5, 5]

    def test_refine_all_removes_hanging_nodes(self):
        n = 4
        mesh = M.generate_distorted_square_mesh(n, 0.2, seed=3)
        fine = M.refine_cells(mesh, range(mesh.num_cells))
        assert fine.num_cells == (2 * n) ** 2
        assert fine.num_vertices == (2 * n + 1) ** 2
        assert all(len(c) == 4 for c in fine.cells)

    def test_shared_midpoint_reused(self):
        mesh = M.generate_distorted_square_mesh(2, 0.0, seed=0)
        fine = M.refine_cells(mesh, [0, 1])  # two horizontally adjacent cells
        # the midpoint of the shared edge must appear exactly once
        assert total_area(fine) == pytest.approx(1.0, abs=1e-13)
        coords = [tuple(v) for v in fine.vertices]
        assert len(coords) == len(set(coords))

    def test_hanging_then_refine_neighbor(self):
        mesh = M.generate_distorted_square_mesh(2, 0.0, seed=0)
        once = M.refine_cells(mesh, [0])
        hanging_cell = next(ci for ci in range(once.num_cells) if len(once.cells[ci]) == 5)
        twice = M.refine_cells(once, [hanging_cell])
        assert total_area(twice) == pytest.approx(1.0, abs=1e-13)
        coords = [tuple(v) for v in twice.vertices]
        assert len(coords) == len(set(coords))

    def test_local_refinement_concentrates(self):
        mesh = M.generate_distorted_square_mesh(4, 0.0, seed=0)
        center = np.array([0.5, 0.5])
        for _ in range(2):
            marked = [
                ci
                for ci in range(mesh.num_cells)
                if np.linalg.norm(mesh.cell_geometry(ci).centroid - center) < 0.25
            ]
            mesh = M.refine_cells(mesh, marked)
        inside = sum(
            1
            for ci in range(mesh.num_cells)
            if np.linalg.norm(mesh.cell_geometry(ci).centroid - center) < 0.25
        )
        assert inside / mesh.num_cells >= 0.5

    @pytest.mark.parametrize("cell", [-1, 9])
    def test_marked_index_out_of_range_rejected(self, cell):
        mesh = M.generate_distorted_square_mesh(3, 0.2, seed=0)
        with pytest.raises(M.MeshError, match="^marked cell index out of range$"):
            M.refine_cells(mesh, [0, cell])

    def test_non_quad_cell_rejected(self):
        mesh = M.generate_concave_mesh(1)
        with pytest.raises(M.MeshError, match="quad-derived"):
            M.refine_cells(mesh, [0])

    def test_empty_marking_is_identity(self):
        mesh = M.generate_distorted_square_mesh(3, 0.2, seed=0)
        same = M.refine_cells(mesh, [])
        assert same.num_cells == mesh.num_cells
        np.testing.assert_array_equal(same.vertices, mesh.vertices)

    def test_child_and_coarser_neighbor_refined_together(self):
        """Cell 5 is a child of a refined cell and cell 1 its coarser
        neighbor below: refined in one call, both sides of their shared edge
        take the child's new midpoint, so every boundary edge lies on a side
        of the unit square."""
        mesh = M.refine_cells(M.generate_distorted_square_mesh(4, 0.2, seed=1), [5])
        fine = M.refine_cells(mesh, [5, 1])
        ends = fine.vertices[fine.edges[fine.boundary_edges]]  # (edge, end, axis)
        on_side = (ends[:, 0] == ends[:, 1]) & np.isin(ends[:, 0], [0.0, 1.0])
        assert on_side.any(axis=1).all()
        assert total_area(fine) == pytest.approx(1.0, abs=1e-13)

    def test_edge_split_at_two_points_raises(self):
        """Cell 0's top side has a hanging vertex at x = 0.3, so its midpoint
        falls inside the bottom side of cell 2, whose own midpoint is at
        x = 0.65: refining both would split one edge twice."""
        vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.3, 1.0], [0.0, 1.0],
                    [0.3, 2.0], [0.0, 2.0], [1.0, 2.0]]
        mesh = M.PolyMesh(vertices, [[0, 1, 2, 3, 4], [4, 3, 5, 6], [3, 2, 7, 5]])
        assert M.refine_cells(mesh, [0, 1]).num_cells == 9
        with pytest.raises(M.MeshError, match=r"^cell 2 would split edge \(2, 3\) at a second"):
            M.refine_cells(mesh, [0, 2])

    def test_far_mesh_reuses_rounded_midpoints(self):
        """Far from the origin, a hanging vertex at a side's middle sits a
        rounding error off the side parameter 0.5 and is still reused: each
        of the 25 cells refined alone gives the loops it gives near the
        origin, where a new vertex beside it would leave a zero-length edge
        or an extra vertex."""
        mesh, far = hanging_and_far()
        for ci in range(mesh.num_cells):
            want = [c.tolist() for c in M.refine_cells(mesh, [ci]).cells]
            assert [c.tolist() for c in M.refine_cells(far, [ci]).cells] == want, ci

    @pytest.mark.parametrize("scale, shift", [(1e-9, (0.0, 0.0)), (1e-12, (0.0, 0.0)),
                                              (1e3, (700.0, -2500.0))])
    @settings(max_examples=40, deadline=None)
    @given(mesh=_grids(), data=st.data())
    def test_refinement_follows_scale_and_shift(self, scale, shift, mesh, data):
        """Refining a scaled and shifted mesh gives the same loops, and the
        vertices of the refined mesh moved the same way."""
        marked = data.draw(st.lists(st.integers(0, mesh.num_cells - 1), min_size=1, max_size=4,
                                    unique=True))
        fine = M.refine_cells(mesh, marked)
        moved = M.refine_cells(M.PolyMesh(mesh.vertices * scale + shift, mesh.cells), marked)
        assert [c.tolist() for c in moved.cells] == [c.tolist() for c in fine.cells]
        np.testing.assert_allclose(moved.vertices, fine.vertices * scale + shift,
                                   rtol=0, atol=1e-12 * moved.h)


class TestMeshIO:
    def test_roundtrip_bitwise(self, tmp_path):
        mesh = M.refine_cells(M.generate_distorted_square_mesh(3, 0.3, seed=9), [0, 4])
        path = tmp_path / "mesh.txt"
        M.write_mesh(path, mesh)
        back = M.read_mesh(path)
        assert M.mesh_to_string(back) == M.mesh_to_string(mesh)
        np.testing.assert_array_equal(back.vertices, mesh.vertices)

    def test_parse_error_reports_line(self):
        text = "polymesh 1\nvertices 2\n0.0 0.0\nnot numbers\ncells 0\n"
        with pytest.raises(M.MeshError, match="line 4"):
            M.mesh_from_string(text)

    def test_bad_header(self):
        with pytest.raises(M.MeshError, match="header"):
            M.mesh_from_string("wrong 2\n")

    def test_truncated_file(self):
        """An early end of file names the first missing line."""
        with pytest.raises(M.MeshError, match="^line 4: unexpected end of file in vertex"):
            M.mesh_from_string("polymesh 1\nvertices 5\n0 0\n")
        with pytest.raises(M.MeshError, match="^line 6: expected 'cells <value>'"):
            M.mesh_from_string(self.TRIANGLE.split("cells")[0])
        with pytest.raises(M.MeshError, match="^line 7: unexpected end of file in cell"):
            M.mesh_from_string(self.TRIANGLE.replace("cells 1\n3 0 1 2\n", "cells 1\n"))

    def test_self_intersecting_cell_reports_its_line(self):
        rows = "".join(f"{x!r} {y!r}\n" for x, y in TANGLED)
        text = f"polymesh 1\nvertices 8\n{rows}cells 2\n3 5 6 7\n5 0 1 2 3 4\n"
        with pytest.raises(M.MeshError, match="^line 13: invalid mesh: cell 1 cannot be"):
            M.mesh_from_string(text)

    def test_invalid_mesh_content(self):
        text = "polymesh 1\nvertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\ncells 1\n3 0 2 1\n"
        with pytest.raises(M.MeshError, match="^line 7: invalid mesh: cell 0 .*not CCW"):
            M.mesh_from_string(text)
        # the clockwise cell is the second of two: its own line is named
        two = text.replace("cells 1\n3 0 2 1\n", "cells 2\n3 0 1 2\n3 0 2 1\n")
        with pytest.raises(M.MeshError, match="^line 8: invalid mesh: cell 1 "):
            M.mesh_from_string(two)
        # an edge shared by three cells names the third
        three = text.replace("cells 1\n3 0 2 1\n", "cells 3\n3 0 1 2\n3 0 1 2\n3 0 1 2\n")
        with pytest.raises(M.MeshError, match="^line 9: invalid mesh: edge"):
            M.mesh_from_string(three)
        nan = text.replace("1.0 0.0\n", "nan 0.0\n")
        with pytest.raises(M.MeshError, match="^line 4: non-finite value"):
            M.mesh_from_string(nan)

    TRIANGLE = "polymesh 1\nvertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\ncells 1\n3 0 1 2\n"

    def test_vertex_index_beyond_int64_names_its_line(self):
        text = self.TRIANGLE.replace("3 0 1 2\n", "3 0 1 99999999999999999999\n")
        with pytest.raises(M.MeshError, match="^line 7: vertex index out of range"):
            M.mesh_from_string(text)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(M.MeshError, match="^line 2: negative vertex count -1"):
            M.mesh_from_string("polymesh 1\nvertices -1\ncells 0\n")

    def test_negative_cell_count_rejected(self):
        text = self.TRIANGLE.replace("cells 1\n3 0 1 2\n", "cells -2\n")
        with pytest.raises(M.MeshError, match="^line 6: negative cell count -2"):
            M.mesh_from_string(text)

    def test_no_cells_names_the_count_line(self):
        with pytest.raises(M.MeshError, match="^line 3: a mesh needs at least one cell$"):
            M.mesh_from_string("polymesh 1\nvertices 0\ncells 0\n")

    def test_cell_vertex_count_mismatch_names_its_line(self):
        text = self.TRIANGLE.replace("3 0 1 2\n", "4 0 1 2\n")
        with pytest.raises(M.MeshError, match="^line 7: cell vertex count mismatch$"):
            M.mesh_from_string(text)

    def test_extra_line_rejected(self):
        assert M.mesh_from_string(self.TRIANGLE + "\n  \n").num_cells == 1
        with pytest.raises(M.MeshError, match="^line 8: extra line after the 1 cell rows"):
            M.mesh_from_string(self.TRIANGLE + "3 0 1 2\n")

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_bytes(self.TRIANGLE.replace("1.0 0.0", "1.0\xe9 0.0").encode("latin-1"))
        with pytest.raises(M.MeshError, match="^line 4: bad number"):
            M.read_mesh(path)


@st.composite
def _meshes(draw):
    """``_grids`` scaled and shifted so the coordinates are arbitrary doubles."""
    mesh = draw(_grids())
    scale = draw(st.floats(min_value=1e-3, max_value=1e3))
    shift = np.array([draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))])
    return M.PolyMesh(mesh.vertices * scale + shift, mesh.cells)


@st.composite
def _dyadic_transforms(draw):
    """A ``_grids`` mesh with its vertices rounded to a 2**-20 grid, a scale
    2**j with |j| <= 10 and a shift on a 2**-4 grid within +-1e3: every
    transformed coordinate is an exact double."""
    mesh = draw(_grids())
    mesh = M.PolyMesh(np.round(mesh.vertices * 2.0**20) / 2.0**20, mesh.cells)
    scale = 2.0 ** draw(st.integers(-10, 10))
    shift = np.array([draw(st.integers(-16000, 16000)), draw(st.integers(-16000, 16000))]) / 16
    return mesh, scale, shift


class TestMeshProperties:
    @settings(max_examples=60, deadline=None)
    @given(_dyadic_transforms())
    def test_geometry_follows_scale_and_shift(self, case):
        """Area, diameter and centroid transform with the mesh; a fixed bound
        holds because the transformed coordinates carry no rounding."""
        mesh, scale, shift = case
        moved = M.PolyMesh(mesh.vertices * scale + shift, mesh.cells)
        np.testing.assert_array_equal(moved.cell_slot, mesh.cell_slot)
        for g0, g1 in zip(mesh.cell_groups, moved.cell_groups):
            np.testing.assert_allclose(g1.area, scale**2 * g0.area, rtol=1e-12, atol=0)
            np.testing.assert_allclose(g1.diameter, scale * g0.diameter, rtol=1e-12, atol=0)
            want = scale * g0.centroid + shift
            bound = 1e-12 * g1.diameter[:, None] + 2 * np.spacing(np.abs(want))
            assert (np.abs(g1.centroid - want) <= bound).all()

    @pytest.mark.xfail(strict=True, reason="FOUND (CHANGES.md): the convexity test of "
                       "triangulate_polygons uses the flat rule, below the rounding of "
                       "coordinates far from the origin")
    def test_far_mesh_keeps_each_cells_group(self):
        """Each cell keeps its (vertex count, triangle count, convex) group
        key when the mesh is moved far from the origin."""
        mesh, far = hanging_and_far()

        def keys(m):
            geoms = map(m.cell_geometry, range(m.num_cells))
            return [(len(g.coords), len(g.triangles), bool(g.convex)) for g in geoms]

        assert keys(far) == keys(mesh)

    @settings(max_examples=60, deadline=None)
    @given(_meshes())
    def test_roundtrip_bitwise(self, mesh):
        text = M.mesh_to_string(mesh)
        back = M.mesh_from_string(text)
        np.testing.assert_array_equal(back.vertices, mesh.vertices)
        assert [c.tolist() for c in back.cells] == [c.tolist() for c in mesh.cells]
        assert M.mesh_to_string(back) == text

    @settings(max_examples=60, deadline=None)
    @given(_meshes(), st.data())
    def test_every_truncation_rejected_with_line_number(self, mesh, data):
        lines = M.mesh_to_string(mesh).splitlines()
        cut = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
        with pytest.raises(M.MeshError, match=r"^line \d+: "):
            M.mesh_from_string("\n".join(lines[:cut]))


class TestQuality:
    def test_report_fields(self):
        mesh = M.generate_distorted_square_mesh(4, 0.3, seed=1)
        rep = M.compute_quality(mesh)
        assert rep.num_cells == 16
        assert rep.h == pytest.approx(mesh.h)
        assert 0 < rep.min_edge_ratio < 1
        assert 0 < rep.min_kernel_ratio < 1
        assert "cells=16" in str(rep)

    def test_concave_cells_are_star_shaped(self):
        mesh = M.generate_concave_mesh(2)
        rep = M.compute_quality(mesh)
        assert rep.min_kernel_ratio > 0.05

    @pytest.mark.parametrize("vertices, ratio", [
        (UNIT_SQUARE, 1.0 / (2.0 * np.sqrt(2.0))),
        ([(np.cos(a), np.sin(a)) for a in np.arange(6) * np.pi / 3], np.sqrt(3.0) / 4.0),
        ([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 5), (0, 5), (0, 4), (2, 4),
          (2, 3), (0, 3)], 0.0),
    ], ids=["unit-square", "regular-hexagon", "s-shape"])
    def test_kernel_ratio_of_one_cell(self, vertices, ratio):
        """The largest disk in the kernel over the diameter: the inscribed
        disk of a convex cell, none for the S (its two arms see no common point)."""
        mesh = M.PolyMesh(vertices, [range(len(vertices))])
        assert M.compute_quality(mesh).min_kernel_ratio == pytest.approx(ratio, rel=1e-12, abs=0)

    @pytest.mark.parametrize("scale, shift", [(1e-6, 0.0), (2.0**-10, 1e3)],
                             ids=["small", "small-and-far"])
    def test_kernel_ratio_does_not_depend_on_scale(self, scale, shift):
        mesh = M.generate_concave_mesh(8)
        moved = M.PolyMesh(mesh.vertices * scale + shift, mesh.cells)
        ratio = M.compute_quality(mesh).min_kernel_ratio
        assert ratio == pytest.approx(0.15757, abs=1e-5)
        assert M.compute_quality(moved).min_kernel_ratio == pytest.approx(ratio, rel=0, abs=1e-10)

    @pytest.mark.parametrize("mesh", [
        M.generate_concave_mesh(2),
        M.generate_voronoi_mesh(30, lloyd_iterations=1, seed=3),
        M.refine_cells(M.refine_cells(M.generate_distorted_square_mesh(3, 0.3, seed=4), [4]),
                       [0, 9]),
    ], ids=["concave", "voronoi", "hanging"])
    def test_kernel_ratio_is_least_of_the_cells_alone(self, mesh):
        """The one program of all cells gives each cell its own optimum:
        the report equals the least report of the cells taken one by one."""
        alone = [M.compute_quality(M.PolyMesh(mesh.vertices[loop], [range(len(loop))]))
                 for loop in mesh.cells]
        least = min(report.min_kernel_ratio for report in alone)
        assert M.compute_quality(mesh).min_kernel_ratio == pytest.approx(least, rel=1e-12)
