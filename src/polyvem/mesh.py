"""Polygonal mesh data model, mesh family generators, refinement and I/O; the
mesh file is read with the shared rules of ``polyvem.textfile``.

Meshes are immutable after construction: generators and ``refine_cells``
always return new ``PolyMesh`` objects.  Cells are stored as CCW vertex
index loops; edges, boundary flags and per-cell geometry are derived, and
the one sort that numbers the edges gives each cell its edge ids.

The mesh owns the one grouping of cells that every later stage follows:
``PolyMesh.cell_groups`` stacks the cells with the same vertex count and
the same triangle count, with their geometry and triangulation, and
``cell_slot`` gives each cell's (group, position).  Each cell is
triangulated once, here, by one ear clipper that runs on a whole stack of
cells at once; on a convex cell (hanging nodes included) its ears are the
fan from vertex 0.  A cell that cannot be triangulated is rejected like
any other invalid cell.

One geometry kernel, ``polygon_geometry`` with ``triangle_areas``, sums
relative to each cell's vertex 0, so the centroid and diameter that the
scaled monomials rest on do not depend on position or scale.  One degeneracy
rule relative to the cell diameter serves every check but the corner test of
``refine_cells`` (a turn whose sine exceeds 1e-7), which it would make stricter.

The three built-in families discretize the unit square:

* distorted quadrilateral grids (randomly perturbed tensor meshes),
* clipped Voronoi diagrams (optionally Lloyd-relaxed, convex cells),
* concave meshes (each square split into two congruent polygons with a
  reflex vertex by a zigzag interface; h halves exactly under n -> 2n).

Local refinement splits quad-derived cells into four and finds each side
midpoint by topology: a vertex of the side already there, or one new vertex
for the mesh edge that contains it, shared by the cells on that edge.  Every
loop gains the midpoints of its split edges, so a hanging node is an
ordinary vertex in the coarse neighbor's loop and no closure refinement is
performed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial import Voronoi, cKDTree

from .textfile import LineReader, read_text, write_text

__all__ = [
    "MeshError",
    "PolyMesh",
    "CellGeometry",
    "MeshQualityReport",
    "compute_quality",
    "generate_distorted_square_mesh",
    "generate_voronoi_mesh",
    "voronoi_mesh_from_seeds",
    "generate_concave_mesh",
    "refine_cells",
    "read_mesh",
    "write_mesh",
    "mesh_to_string",
    "mesh_from_string",
]


class MeshError(Exception):
    """Invalid mesh data or failed mesh generation; ``cell`` is the index of
    the offending cell where there is one."""

    def __init__(self, message: str, cell: int | None = None):
        super().__init__(message)
        self.cell = cell


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------


# the one degeneracy rule, relative to the diameter d: a cell or an ear is
# flat at an area of at most _FLAT * d**2, an edge zero at a length <= _FLAT * d
_FLAT = 1e-12


def polygon_geometry(coords: np.ndarray):
    """Signed area, centroid, diameter, edge lengths and unit edge normals
    of polygons stacked as (..., m, 2).  Edge i runs from vertex i to i+1
    (mod m); its right-hand normal points outward on a CCW loop.  A zero
    area or edge leaves a non-finite centroid or normal for callers to check.

    The area and centroid are summed relative to each polygon's vertex 0,
    the rest from vertex differences: no output depends on the position.
    """
    rel = coords - coords[..., :1, :]
    nxt = np.roll(rel, -1, axis=-2)
    x, y = rel[..., 0], rel[..., 1]
    xn, yn = nxt[..., 0], nxt[..., 1]
    cross = x * yn - xn * y
    area = 0.5 * cross.sum(axis=-1)
    tangents = np.roll(coords, -1, axis=-2) - coords
    lengths = np.hypot(tangents[..., 0], tangents[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        moments = np.stack([((x + xn) * cross).sum(axis=-1), ((y + yn) * cross).sum(axis=-1)], -1)
        centroid = coords[..., 0, :] + moments / (6.0 * area[..., None])
        normals = np.stack([tangents[..., 1], -tangents[..., 0]], -1) / lengths[..., None]
    diff = coords[..., :, None, :] - coords[..., None, :, :]
    diameter = np.sqrt((diff**2).sum(axis=-1)).max(axis=(-2, -1))
    return area, centroid, diameter, lengths, normals


def triangle_areas(tris: np.ndarray) -> np.ndarray:
    """Signed areas of triangles stacked as (..., 3, 2)."""
    e1 = tris[..., 1, :] - tris[..., 0, :]
    e2 = tris[..., 2, :] - tris[..., 0, :]
    return 0.5 * (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])


def triangulate_polygons(coords: np.ndarray, area: np.ndarray, diameter: np.ndarray):
    """Split a (G, m, 2) stack of CCW polygons, with their signed areas and
    diameters from ``polygon_geometry``, into triangles by ear clipping,
    all rows at once.

    Each of the m-3 steps removes one vertex per row: the first one,
    scanning the remaining loop from position 1, that is an ear tip (the
    triangle with its neighbours is not flat, and no other remaining
    vertex lies strictly inside it, or on its new edge where the loop turns)
    or a collinear vertex between its neighbours (dropped without a
    triangle); the last three vertices make the last triangle.
    On a convex polygon every step clips position 1, so its triangles are
    the fan (v0, vi, vi+1) from vertex 0, less the zero-area ones of a
    straight run.  Returns one (ascending rows, (rows, T, 3, 2) triangles)
    pair per triangle count T, and the rows that cannot be triangulated:
    not CCW or flat, or left without an ear or not covered by their
    triangles (a self-intersecting loop).  Flat means an area of at most
    1e-12 d**2 for the polygon's diameter d, as in ``PolyMesh``.
    """
    g, m = coords.shape[:2]
    tol = _FLAT * diameter**2
    failed = area <= tol

    rows = np.arange(g)
    loops = np.broadcast_to(np.arange(m), (g, m))
    tris = np.zeros((g, m - 2, 3, 2))
    made = np.zeros((g, m - 2), dtype=bool)
    tol_r, tol_rr = tol[:, None], tol[:, None, None]
    for step in range(m - 3):
        pts = coords[rows[:, None], loops]
        # candidate j clips the tip at position j + 1 between positions j and j + 2
        abc = np.stack([pts, np.roll(pts, -1, axis=1), np.roll(pts, -2, axis=1)], axis=2)
        ear_area = triangle_areas(abc)
        flat = np.abs(ear_area) <= tol_r
        # side [j, p] of each remaining vertex p of the edges of ear j: the
        # loop edges a-b (j to j + 1) and b-c, and the new edge c-a
        rel = pts[:, None] - pts[:, :, None]  # [u, p]: vertex p less vertex u
        edge = np.roll(pts, -1, axis=1) - pts
        ab = edge[:, :, None, 0] * rel[..., 1] - edge[:, :, None, 1] * rel[..., 0]
        bc = np.roll(ab, -1, axis=1)
        diag, rel_c = pts - np.roll(pts, -2, axis=1), np.roll(rel, -2, axis=1)
        ca = diag[:, :, None, 0] * rel_c[..., 1] - diag[:, :, None, 1] * rel_c[..., 0]
        # a vertex blocks the ear if it lies strictly inside it, or on c-a
        # where the loop turns (clipping would pinch the loop there)
        ca_blocks = np.where(np.roll(flat, 1, axis=1)[:, None], ca > tol_rr, ca >= -tol_rr)
        ear = (ear_area > tol_r) & ~((ab > tol_rr) & (bc > tol_rr) & ca_blocks).any(axis=2)
        ahead = (edge * np.roll(edge, -1, axis=1)).sum(axis=-1) > 0
        pick = ear | (flat & ahead)
        j = pick.argmax(axis=1)
        failed |= ~pick.any(axis=1)
        tris[:, step] = abc[rows, j]
        made[:, step] = ear[rows, j]
        loops = loops[np.arange(m - step) != (j[:, None] + 1) % (m - step)].reshape(g, -1)
    tris[:, -1] = coords[rows[:, None], loops]
    made[:, -1] = triangle_areas(tris[:, -1]) > tol
    counts = made.sum(axis=1)
    covered = np.where(made, triangle_areas(tris), 0.0).sum(axis=1)
    failed |= np.abs(covered - area) > 1e-9 * diameter**2

    groups = []
    for t in np.unique(counts[~failed]):
        picked = np.flatnonzero((counts == t) & ~failed)
        groups.append((picked, tris[picked][made[picked]].reshape(-1, t, 3, 2)))
    return groups, np.flatnonzero(failed)


def stack_by_size(loops) -> list[tuple[np.ndarray, np.ndarray]]:
    """(ascending positions in ``loops``, (G, m) stacked loops) per length
    m >= 3 of the 1-d ``loops``; shorter loops are left out."""
    sizes = np.array([len(loop) for loop in loops])
    stacks = [np.flatnonzero(sizes == m) for m in np.unique(sizes[sizes >= 3])]
    return [(idx, np.array([loops[i] for i in idx], dtype=np.int64)) for idx in stacks]


@dataclass(frozen=True)
class CellGeometry:
    """Derived geometric data of one cell, or of a stack of cells with one
    vertex count and one triangle count (a leading axis on every field;
    indexing gives a cell or a sub-stack, ``geom[None]`` a stack of one).
    Edge i runs from local vertex i to i+1 (mod m), with mesh edge id
    ``edge_ids[i]`` and outward unit normal ``normals[i]``; ``triangles``
    (T, 3, 2) cover the cell.
    """

    index: np.ndarray  # mesh cell index
    vertex_ids: np.ndarray
    edge_ids: np.ndarray
    coords: np.ndarray
    area: np.ndarray
    centroid: np.ndarray
    diameter: np.ndarray
    edge_lengths: np.ndarray
    normals: np.ndarray
    triangles: np.ndarray

    def __getitem__(self, index) -> CellGeometry:
        return CellGeometry(*(getattr(self, f.name)[index] for f in fields(self)))


# ---------------------------------------------------------------------------
# mesh data model
# ---------------------------------------------------------------------------


def _raise_lowest(bad) -> None:
    """Raise a ``MeshError`` for the lowest cell of (cell, what) pairs, if any."""
    if bad:
        ci, what = min(bad)
        raise MeshError(f"cell {ci} {what}", cell=int(ci))


class PolyMesh:
    """Conforming polygonal mesh: vertices plus CCW cell loops.

    Edge connectivity and boundary flags are derived during construction
    and every cell is validated (>= 3 distinct vertices, not flat and no
    zero-length edge under the degeneracy rule, triangles that cover it,
    each edge used by at most two cells with opposite orientation); an
    invalid cell raises a ``MeshError`` naming the lowest bad cell.
    ``cell_groups`` stacks the cells' geometry and triangles by (vertex
    count, triangle count), both ascending, cells ascending within a group;
    ``cell_slot[ci]`` is the (group, position) of cell ci.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if not np.isfinite(self.vertices).all():
            raise MeshError("non-finite vertex coordinates")
        nv = len(self.vertices)
        self.cells = [np.asarray(loop, dtype=np.int64) for loop in cells]
        if not self.cells:
            raise MeshError("a mesh needs at least one cell")

        # loop checks, one array pass per vertex-count stack of the 1-d loops
        bad = [(ci, "needs at least 3 vertices") for ci, loop in enumerate(self.cells)
               if loop.ndim != 1 or len(loop) < 3]
        stacks = stack_by_size([loop if loop.ndim == 1 else () for loop in self.cells])
        for idx, loops in stacks:
            outside = ((loops < 0) | (loops >= nv)).any(axis=1)
            repeats = (np.diff(np.sort(loops, axis=1), axis=1) == 0).any(axis=1)
            bad += [(idx[p], "has a vertex index out of range") for p in np.flatnonzero(outside)]
            bad += [(idx[p], "repeats a vertex in its loop")
                    for p in np.flatnonzero(repeats & ~outside)]
        _raise_lowest(bad)

        # every loop edge as a (lower, higher) vertex key, numbered by key; sorted
        # by key and owner, an edge has at most two owners, traversing it oppositely
        starts = np.concatenate([loops.ravel() for _, loops in stacks])
        ends = np.concatenate([np.roll(loops, -1, axis=1).ravel() for _, loops in stacks])
        owners = np.concatenate([np.repeat(idx, loops.shape[1]) for idx, loops in stacks])
        keys = np.minimum(starts, ends) * nv + np.maximum(starts, ends)
        edge_keys, edge_ids, count = np.unique(keys, return_inverse=True, return_counts=True)
        order = np.lexsort((owners, keys))
        owners, forward = owners[order], (starts < ends)[order]
        first = np.cumsum(count) - count
        pairs = np.flatnonzero(count == 2)
        twice = pairs[forward[first[pairs]] == forward[first[pairs] + 1]]
        errors = [(owners[first[e] + 2], e, "is shared by more than two cells")
                  for e in np.flatnonzero(count > 2)]
        errors += [(owners[first[e] + 1], e, "traversed twice in the same direction "
                    "(winding error)") for e in twice]
        self.edges = np.column_stack([edge_keys // nv, edge_keys % nv])
        if errors:
            ci, e, what = min(errors)
            raise MeshError(f"edge {tuple(self.edges[e].tolist())} {what}", cell=int(ci))
        self.edge_cells = np.full((len(first), 2), -1, dtype=np.int64)
        self.edge_cells[:, 0] = owners[first]
        self.edge_cells[pairs, 1] = owners[first[pairs] + 1]
        self.boundary_edges = self.edge_cells[:, 1] == -1
        self.boundary_vertices = np.zeros(nv, dtype=bool)
        self.boundary_vertices[self.edges[self.boundary_edges]] = True

        # geometry and triangles per vertex-count stack, split by triangle count
        self.cell_groups: list[CellGeometry] = []
        self.cell_slot = np.empty((len(self.cells), 2), dtype=np.int64)
        stack_ids = np.split(edge_ids, np.cumsum([loops.size for _, loops in stacks])[:-1])
        for (idx, loops), ids in zip(stacks, stack_ids):
            coords = self.vertices[loops]
            area, centroid, diameter, lengths, normals = polygon_geometry(coords)
            flat = area <= _FLAT * diameter**2
            short = ~flat & (lengths.min(axis=1) <= _FLAT * diameter)
            pieces, tangled = triangulate_polygons(coords, area, diameter)
            bad += [(idx[p], f"is degenerate or not CCW (signed area {area[p]:.3e})")
                    for p in np.flatnonzero(flat)]
            bad += [(idx[p], "has a zero-length edge") for p in np.flatnonzero(short)]
            bad += [(idx[p], "cannot be triangulated (self-intersecting loop?)")
                    for p in tangled if not (flat[p] or short[p])]
            stack = (idx, loops, ids.reshape(loops.shape), coords, area, centroid, diameter,
                     lengths, normals)
            for rows, tris in pieces:
                self.cell_slot[idx[rows], 0] = len(self.cell_groups)
                self.cell_slot[idx[rows], 1] = np.arange(len(rows))
                self.cell_groups.append(CellGeometry(*(a[rows] for a in stack), tris))
        _raise_lowest(bad)

    # -- basic queries ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def h(self) -> float:
        return float(max(g.diameter.max() for g in self.cell_groups))

    def cell_geometry(self, cell_index: int) -> CellGeometry:
        group, pos = self.cell_slot[cell_index]
        return self.cell_groups[group][pos]


# ---------------------------------------------------------------------------
# mesh quality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeshQualityReport:
    h: float
    min_edge_ratio: float
    min_kernel_ratio: float
    num_vertices: int
    num_cells: int

    def __str__(self) -> str:
        return (
            f"cells={self.num_cells} vertices={self.num_vertices} h={self.h:.6g} "
            f"min|e|/h_K={self.min_edge_ratio:.4g} kernel/h_K>={self.min_kernel_ratio:.4g}"
        )


def compute_quality(mesh: PolyMesh) -> MeshQualityReport:
    """Quality report of ``mesh``.  Its kernel ratio is the least over cells
    of the radius of the largest disk in the cell's kernel (where its inward
    edge half-planes meet) over its diameter h_c, 0 for an empty kernel.

    One linear program finds every cell's disk, centre p and radius r in
    coordinates centred at the cell's centroid x_c and scaled by h_c:
    max sum r  s.t.  n_i . p + r <= n_i . (v_i - x_c) / h_c  for each edge i
    (outward unit normal n_i), all variables free.  It is separable, so each
    r is its own cell's optimum and the ratio itself at any position and
    scale; a negative r means an empty kernel.  p = 0 with the least reach
    is feasible, and the normals of a closed loop bound r.
    """
    from scipy.optimize import linprog  # loaded here only: no solve needs it

    groups = mesh.cell_groups
    normals = np.concatenate([g.normals.reshape(-1, 2) for g in groups])
    reach = np.concatenate([((g.normals * (g.coords - g.centroid[:, None])).sum(axis=2)
                             / g.diameter[:, None]).ravel() for g in groups])
    owner = np.concatenate([np.repeat(g.index, g.coords.shape[1]) for g in groups])
    rows = np.column_stack([normals, np.ones(len(reach))])  # (p_x, p_y, r) of cell c at 3c
    a_ub = csr_array((rows.ravel(), (3 * owner[:, None] + np.arange(3)).ravel(),
                      np.arange(0, rows.size + 1, 3)), shape=(len(reach), 3 * mesh.num_cells))
    res = linprog(np.tile([0.0, 0.0, -1.0], mesh.num_cells), A_ub=a_ub, b_ub=reach,
                  bounds=(None, None), method="highs")
    if not res.success:
        raise MeshError(res.message)
    edge_ratio = min((g.edge_lengths.min(axis=1) / g.diameter).min() for g in groups)
    return MeshQualityReport(h=mesh.h, min_edge_ratio=float(edge_ratio),
                             min_kernel_ratio=float(max(res.x[2::3].min(), 0.0)),
                             num_vertices=mesh.num_vertices, num_cells=mesh.num_cells)


# ---------------------------------------------------------------------------
# distorted square family
# ---------------------------------------------------------------------------


def generate_distorted_square_mesh(n: int, distortion: float, seed: int) -> PolyMesh:
    """n x n quadrilateral mesh of [0,1]^2 with randomly perturbed vertices.

    Interior vertices move by uniform offsets in [-a, a] per coordinate,
    a = distortion/n; boundary vertices slide only along their boundary
    edge; corners stay fixed.  Deterministic for a fixed seed.  Each cell
    is valid by construction: a vertex stays in its own box of half-width
    a < 1/(2n), so opposite sides lie in disjoint strips and cannot cross,
    and the signed area (v2 - v0) x (v3 - v1) / 2 is at least
    (1/n - 2a)**2 > 0; the degeneracy rule calls that flat only for
    distortion >= 0.4999986, where ``PolyMesh`` names the cell.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 <= distortion < 0.5:
        raise ValueError("distortion must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    side = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(side, side, indexing="xy")
    verts = np.column_stack([gx.ravel(), gy.ravel()])

    # vertex (i, j) is j * (n + 1) + i; it moves in x if 0 < i < n, in y if 0 < j < n
    interior = (side > 0.0) & (side < 1.0)
    moves = np.column_stack([np.tile(interior, n + 1), np.repeat(interior, n + 1)])

    amp = distortion / n
    corner = (np.arange(n * n) // n) * (n + 1) + np.arange(n * n) % n  # cell (i, j) is j * n + i
    cells = np.column_stack([corner, corner + 1, corner + n + 2, corner + n + 1])

    offsets = np.where(moves, rng.uniform(-amp, amp, size=moves.shape), 0.0)
    return PolyMesh(verts + offsets, cells)


# ---------------------------------------------------------------------------
# Voronoi family
# ---------------------------------------------------------------------------


def _voronoi_cells_in_square(seeds: np.ndarray):
    """Voronoi cells of seeds in [0,1]^2, exactly clipped via mirroring.

    A seed is mirrored across a side only within the reach r = 1.5/sqrt(n)
    of it (PolyMesher's 1.5 sqrt(|square|/n)).  Inside the square a mirror
    is never nearer than its own seed, so mirrors only cut cells off at the
    sides: the diagram is exact when every original region is bounded, lies
    in the square within ``_SNAP``, and comes within ``_SNAP`` of a side only
    if its seed was mirrored across it.  Otherwise the same code runs with
    r = inf, mirroring every seed across every side.  Returns (global vertex
    coordinates, list of CCW index loops, (n, 2) cell centroids).
    """
    for reach in (1.5 / np.sqrt(len(seeds)), np.inf):
        mirrored = np.hstack([seeds < reach, seeds > 1.0 - reach])  # sides x=0, y=0, x=1, y=1
        images = [np.where(np.arange(2) == s % 2, 2.0 * (s // 2) - seeds, seeds) for s in range(4)]
        vor = Voronoi(np.vstack([seeds] + [image[m] for image, m in zip(images, mirrored.T)]))
        regions = [vor.regions[r] for r in vor.point_region[: len(seeds)]]
        sizes = np.array([len(region) for region in regions])
        if sizes.min() < 3:
            continue
        # per vertex: near each side, then outside the square; -1 (no vertex) sets all
        v = vor.vertices
        flags = np.column_stack([v < _SNAP, v > 1.0 - _SNAP, np.abs(v - 0.5).max(1) > 0.5 + _SNAP])
        flags = np.vstack([flags, np.ones(5, dtype=bool)])
        hit = np.logical_or.reduceat(flags[np.concatenate(regions)], np.cumsum(sizes) - sizes)
        if not hit[:, 4].any() and (hit[:, :4] <= mirrored).all():
            break
    else:
        raise MeshError("Voronoi region unbounded or outside the square; seeds outside (0,1)^2?")
    loops = [None] * len(seeds)
    centroids = np.empty((len(seeds), 2))
    for idx, stack in stack_by_size(regions):
        area, centroids[idx] = polygon_geometry(vor.vertices[stack])[:2]
        stack[area < 0] = stack[area < 0, ::-1]
        for i, loop in zip(idx, stack):
            loops[i] = loop
    return vor.vertices.copy(), loops, centroids


# absolute snap of Voronoi vertices, which lie in the unit square; nothing
# else compares coordinates on a fixed grid
_SNAP = 1e-9


def _compact_mesh(coords: np.ndarray, loops: list[np.ndarray]) -> PolyMesh:
    """Snap to the square, merge near-duplicate vertices, drop slivers."""
    coords = coords.copy()
    for axis in (0, 1):
        coords[np.abs(coords[:, axis]) < _SNAP, axis] = 0.0
        coords[np.abs(coords[:, axis] - 1.0) < _SNAP, axis] = 1.0
    # each vertex stands for itself or for the lowest used vertex it snaps to
    used = np.unique(np.concatenate(loops))
    keys = np.round(coords[used] / _SNAP).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    alias = np.arange(len(coords))
    alias[used] = used[first[inverse.ravel()]]
    # drop repeats created by the merge (sliver edges shorter than snap)
    new_loops = [alias[loop][alias[loop] != alias[np.roll(loop, -1)]] for loop in loops]
    if min(len(loop) for loop in new_loops) < 3:
        raise MeshError("cell collapsed while merging sliver edges")
    used, number = np.unique(np.concatenate(new_loops), return_inverse=True)
    return PolyMesh(coords[used], np.split(number, np.cumsum([len(c) for c in new_loops])[:-1]))


def voronoi_mesh_from_seeds(seeds: np.ndarray, lloyd_iterations: int) -> PolyMesh:
    """Clipped Voronoi mesh of explicit seed points in (0,1)^2.  Seeds within
    ``_SNAP`` of each other are spread apart; a ``MeshError`` of the build
    after that names the coincident seed indices."""
    seeds = np.asarray(seeds, dtype=float).copy()
    if len(seeds) < 4:
        raise ValueError("need at least 4 seeds")
    if lloyd_iterations < 0:
        raise ValueError(f"lloyd_iterations must be >= 0, got {lloyd_iterations}")
    if seeds.min() <= 0.0 or seeds.max() >= 1.0:
        raise MeshError("seeds must lie strictly inside (0,1)^2")
    # the m copies of a point (seeds chained within _SNAP) go round the circle with
    # diameter c to c + m/2 * _SNAP * (r + 1) * (+-1, +-1) for c the first copy, r the row
    # of the second, signs into the square: in convex position no cell shrinks to the snap
    label = np.arange(len(seeds))
    for a, b in cKDTree(seeds).query_pairs(_SNAP, output_type="ndarray"):
        label[label == label[b]] = label[a]
    copies = [np.flatnonzero(label == g) for g in np.flatnonzero(np.bincount(label) > 1)]
    for rows in copies:
        turn = np.exp(2j * np.pi * np.arange(len(rows)) / len(rows))
        ring = 0.25 * len(rows) * _SNAP * (rows[1] + 1) * (1 + 1j) * (1 - turn)
        offset = np.column_stack([ring.real, ring.imag])
        seeds[rows] = seeds[rows[0]] + np.where(seeds[rows[0]] + offset.max(0) < 1, offset, -offset)
    try:
        for _ in range(lloyd_iterations):
            seeds = _voronoi_cells_in_square(seeds)[2]
        return _compact_mesh(*_voronoi_cells_in_square(seeds)[:2])
    except MeshError as exc:
        if not copies:
            raise
        # a spread circle is a few _SNAP wide, so near a side its cells can collapse
        named = "; ".join(", ".join(map(str, rows)) for rows in copies)
        raise MeshError(f"coincident seeds ({named}) could not be given a cell each") from exc


#: Largest seed offset of ``generate_voronoi_mesh``, in local spacings.
SEED_JITTER = 0.35


def generate_voronoi_mesh(n_seeds: int, lloyd_iterations: int, seed: int) -> PolyMesh:
    """Voronoi mesh of [0,1]^2 from jittered hexagonal-row seeds,
    optionally Lloyd-relaxed.  All cells are convex.

    Seeds start on staggered rows (row count chosen so the spacing ratio
    approximates the 2/sqrt(3) of a hexagonal lattice), each perturbed by a
    uniform offset up to ``SEED_JITTER`` times the local spacing.  Lloyd steps
    then pull the diagram toward a centroidal one, which is what published
    polygonal-mesh studies use.
    """
    if n_seeds < 4:
        raise ValueError("n_seeds must be >= 4")
    rng = np.random.default_rng(seed)
    rows = max(2, round(np.sqrt(n_seeds * 2.0 / np.sqrt(3.0))))
    base, extra = divmod(n_seeds, rows)
    chunks = []
    for r in range(rows):
        cols = base + (1 if r < extra else 0)
        phase = 0.25 if r % 2 else -0.25
        xs = (np.arange(cols) + 0.5 + phase) / cols
        row = np.column_stack([xs, np.full(cols, (r + 0.5) / rows)])
        row += rng.uniform(-SEED_JITTER, SEED_JITTER, size=row.shape) / (cols, rows)
        chunks.append(row)
    pts = np.clip(np.vstack(chunks), 0.005, 0.995)
    return voronoi_mesh_from_seeds(pts, lloyd_iterations)


# ---------------------------------------------------------------------------
# concave family
# ---------------------------------------------------------------------------

# zigzag interface through each square, symmetric under 180-degree rotation
# about the square center; both halves are congruent and have one reflex
# vertex.  Coordinates are fractions of the square side.  The +-1/8
# deviation keeps the cells mildly concave: published error magnitudes on
# comparable meshes sit close to square-mesh values, which rules out the
# strongly re-entrant variants of this construction.
_ZIG = [(0.5, 0.0), (0.625, 1.0 / 3.0), (0.375, 2.0 / 3.0), (0.5, 1.0)]


def generate_concave_mesh(n: int) -> PolyMesh:
    """n x n squares, each split into two congruent concave polygons.

    The interface is a fixed zigzag from the bottom-edge midpoint to the
    top-edge midpoint, so refining n -> 2n halves every diameter exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p0, q1, q2, p3 = _ZIG
    halves = np.array([[(0, 0), p0, q1, q2, p3, (0, 1)], [p0, (1, 0), (1, 1), p3, q2, q1]])
    j, i = np.divmod(np.arange(n * n), n)
    points = np.column_stack([i, j])[:, None, None] + halves  # left, right cell of each square
    # exact rational coordinates on a 24n grid avoid float-key mismatches
    keys = np.round(points * 24).astype(np.int64).reshape(-1, 2)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)  # vertices numbered in order of first appearance
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return PolyMesh(keys[first[order]] / (24 * n), number[inverse.ravel()].reshape(-1, 6))


# ---------------------------------------------------------------------------
# local refinement with hanging nodes
# ---------------------------------------------------------------------------


def _find_corners(coords: np.ndarray) -> list[int]:
    """Loop positions whose turn angle is not flat (within 1e-7 of sin)."""
    before, after = np.roll(coords, 1, axis=0), np.roll(coords, -1, axis=0)
    turn = 2.0 * triangle_areas(np.stack([before, coords, after], axis=1))
    norm = np.hypot(*(coords - before).T) * np.hypot(*(after - coords).T)
    return [i for i in range(len(coords)) if abs(turn[i]) > 1e-7 * norm[i]]


def refine_cells(mesh: PolyMesh, marked) -> PolyMesh:
    """Split each marked quad-derived cell into 4 children at its side
    midpoints and corner centroid.

    A side's midpoint is found by topology, not by coordinates: a vertex of
    the side's chain that sits there (within ``_FLAT`` of the side length)
    is reused; otherwise one new vertex splits the mesh edge that contains
    the midpoint, shared by both cells on that edge.  Every cell's loop,
    marked or not, then gains the midpoints of its split edges (an unmarked
    neighbor's become hanging vertices), and each marked cell's loop is cut
    into its children at its corners and midpoints.  An edge that two cells
    would split at different points raises a ``MeshError``.
    """
    marked = sorted({int(c) for c in marked})
    if any(c < 0 or c >= mesh.num_cells for c in marked):
        raise MeshError("marked cell index out of range")

    nv = mesh.num_vertices
    new: list[np.ndarray] = []  # coordinates of vertex nv + i
    split = np.full(mesh.num_edges, -1, dtype=np.int64)  # vertex splitting each edge
    cuts = {}  # marked cell: (centroid vertex, [corner 0, mid 0, ..., corner 3, mid 3])
    for ci in marked:
        loop = mesh.cells[ci]
        coords = mesh.vertices[loop]
        corners = _find_corners(coords)
        if len(corners) != 4:
            raise MeshError(
                f"cell {ci} is not quad-derived ({len(corners)} corners); cannot refine"
            )
        cut = []
        cuts[ci] = (nv + len(new), cut)
        new.append(coords[corners].mean(axis=0))
        # sides run from corner to corner along the loop taken twice
        twice, coords = np.concatenate([loop, loop]), np.concatenate([coords, coords])
        edges = np.tile(mesh.cell_geometry(ci).edge_ids, 2)
        for p0, p1 in zip(corners, corners[1:] + [corners[0] + len(loop)]):
            a, b = coords[p0], coords[p1]
            t = (coords[p0 : p1 + 1] - a) @ (b - a) / ((b - a) @ (b - a))  # 0 to 1 along the side
            near = np.abs(t - 0.5).argmin()
            mid = twice[p0 + near]
            if abs(t[near] - 0.5) > _FLAT:  # no vertex there: split the edge across t = 0.5
                e = edges[p0 + np.count_nonzero(t < 0.5) - 1]
                if split[e] < 0:
                    split[e] = nv + len(new)
                    new.append(0.5 * (a + b))
                elif np.hypot(*(new[split[e] - nv] - 0.5 * (a + b))) > _FLAT * np.hypot(*(b - a)):
                    raise MeshError(f"cell {ci} would split edge {tuple(mesh.edges[e].tolist())} "
                                    "at a second point", cell=ci)
                mid = split[e]
            cut += [loop[p0], mid]

    # one pass puts the midpoints into every loop; marked loops are then cut
    cells = list(mesh.cells)
    for geom in mesh.cell_groups:
        both = np.stack([geom.vertex_ids, split[geom.edge_ids]], axis=2)
        for ci, row in zip(geom.index, both.reshape(len(geom.index), -1)):
            cells[ci] = row[row >= 0]
    new_cells = []
    for ci, loop in enumerate(cells):
        if ci not in cuts:
            new_cells.append(loop)
            continue
        center, cut = cuts[ci]
        loop = np.roll(loop, -np.flatnonzero(loop == cut[0])[0])
        parts = np.split(loop, np.flatnonzero((loop[:, None] == cut).any(axis=1))[1:])
        # child q: corner q to mid q, the centroid, mid q-1 up to corner q
        new_cells += [np.concatenate([parts[2 * q], [cut[2 * q + 1], center], parts[2 * q - 1]])
                      for q in range(4)]
    return PolyMesh(np.concatenate([mesh.vertices, np.reshape(new, (-1, 2))]), new_cells)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def mesh_to_string(mesh: PolyMesh) -> str:
    lines = ["polymesh 1", f"vertices {mesh.num_vertices}"]
    lines.extend(f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices)
    lines.append(f"cells {mesh.num_cells}")
    lines.extend(" ".join(map(str, [len(loop), *loop.tolist()])) for loop in mesh.cells)
    return "\n".join(lines) + "\n"


def write_mesh(path, mesh: PolyMesh) -> None:
    write_text(path, mesh_to_string(mesh))


def mesh_from_string(text: str) -> PolyMesh:
    """Parse the text written by ``mesh_to_string``.  A cell row is its vertex
    count, then its vertex indices; a bad row, or a cell that ``PolyMesh``
    rejects, raises a ``MeshError`` that names the row's line."""
    reader = LineReader(text, "polymesh 1", MeshError)
    verts = reader.floats(reader.count("vertices", "vertex"), 2)
    nc = reader.count("cells", "cell")
    first = reader.at
    cells = []
    for line in range(first, first + nc):
        vals = [reader.number(p, int) for p in reader.tokens()]
        if not vals or len(vals) != vals[0] + 1:
            raise reader.fail(line, "cell vertex count mismatch")
        try:
            cells.append(np.array(vals[1:], dtype=np.int64))
        except OverflowError:  # beyond int64, so beyond any vertex count
            raise reader.fail(line, "vertex index out of range") from None
    reader.end()
    try:
        return PolyMesh(verts, cells)
    except MeshError as exc:
        if exc.cell is None:
            raise
        # a content error names its cell, and so the line of that cell
        raise reader.fail(first + exc.cell, f"invalid mesh: {exc}") from exc


def read_mesh(path) -> PolyMesh:
    return mesh_from_string(read_text(path))
