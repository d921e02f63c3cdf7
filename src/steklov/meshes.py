"""Triangulated surfaces with chart coordinates, seam identifications, and a
per-vertex conformal factor.

A surface is a union of flat chart pieces; logical vertices are equivalence
classes of chart vertices under the identification list.  The metric is
lambda^2 * (flat chart metric), so in two dimensions the Dirichlet energy is
chart-only and the conformal factor enters solely through boundary lengths.

Site-free disks put their points on concentric rings, and their Delaunay
triangulation comes from merging consecutive rings (`_ring_delaunay`).  Disks
and cylinders with neck sites share one site mesher (`_site_mesh`): graded
patches, a Delaunay stage, rims cut open, and a structured log collar below
chart radius 1e-3 for tiny rims.  On a disk the Delaunay stage is confined to
a band of rings around the patches (`_band_delaunay`): the rings inside and
outside it are merged, Qhull (`scipy.spatial`, imported only when needed)
sees only the band, and a certificate on the split rings
(`_split_ring_delaunay`) joins the pieces or sends the chart to one whole-chart
Qhull call.  Cylinders, and disks too coarse for the ring merge, go to Qhull.

Builders return a `Component`: chart arrays plus neck interfaces.  A glued
mesh is assembled once from its components' arrays; a component's own `mesh`
is assembled only when a plain surface asks for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import AssemblyError, InvalidGluingError, InvalidParameterError

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# metric descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitDisk:
    """Euclidean unit disk, optionally with a conformal factor field lambda(x, y)."""
    conformal_factor_field: Callable[[float, float], float] | None = None


@dataclass(frozen=True)
class FlatCylinder:
    """Flat cylinder [0, T] x S^1, circumference 2*pi, constant boundary density."""
    T: float
    boundary_density: float = 1.0


@dataclass(frozen=True)
class MobiusCylinder:
    """Moebius band: [0, T] x S^1 with the t=0 circle identified antipodally."""
    T: float
    boundary_density: float = 1.0


# ---------------------------------------------------------------------------
# the mesh container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceMesh:
    vertices: np.ndarray              # (nv, 2) chart coordinates
    triangles: np.ndarray             # (nt, 3) chart indices, counterclockwise
    identifications: np.ndarray       # (ni, 2) chart index pairs merged logically
    logical: np.ndarray               # (nv,) chart index -> logical vertex id
    n_logical: int
    conformal_factor: np.ndarray      # (n_logical,) positive
    boundary_loops: tuple[tuple[int, ...], ...]  # ordered logical ids, closed
    boundary_edge_chart: np.ndarray   # (nb, 2) chart endpoints of the unique chart edge
    edges: np.ndarray                 # (ne, 2) unique logical edges (lo, hi), lexicographic
    opposite_edge: np.ndarray         # (nt, 3) index into edges of the edge opposite each corner
    tags: dict[str, frozenset[int]] = field(default_factory=dict)

    @property
    def n_chart(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _component_labels(n: int, pairs: np.ndarray) -> tuple[np.ndarray, int]:
    """Component label per vertex under the identified pairs.

    connected_components numbers components in order of their lowest index,
    so logical ids follow the chart order.
    """
    graph = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    n_comp, labels = connected_components(graph, directed=False)
    return labels.astype(np.int64), n_comp


def _triangle_doubled_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = vertices[triangles[:, 0]]
    e1 = vertices[triangles[:, 1]] - p0
    e2 = vertices[triangles[:, 2]] - p0
    return e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]


def _degenerate_triangles(vertices: np.ndarray, triangles: np.ndarray,
                          areas2: np.ndarray) -> np.ndarray:
    """Degeneracy relative to each triangle's own edge scale (necks can be tiny)."""
    p0 = vertices[triangles[:, 0]]
    e1 = vertices[triangles[:, 1]] - p0
    e2 = vertices[triangles[:, 2]] - p0
    scale2 = np.maximum(np.einsum("ij,ij->i", e1, e1), np.einsum("ij,ij->i", e2, e2))
    return np.abs(areas2) <= 1e-12 * scale2


def _edge_census(tri_logical: np.ndarray, triangles: np.ndarray):
    """Unique logical edges with adjacency counts and one chart realization each.

    Triangle edge c (c = 0, 1, 2) joins corners c and c+1 and sits at position
    c * n_tri + t of the census; the chart realization of a unique edge is its
    first position.  Also returns the unique-edge index of every position.
    """
    nxt = tri_logical[:, [1, 2, 0]]
    lo = np.minimum(tri_logical, nxt).T.ravel()
    hi = np.maximum(tri_logical, nxt).T.ravel()
    n = int(hi.max()) + 1 if len(hi) else 1
    # a * n + b orders the edges (a, b), a < b, lexicographically
    key = lo * n + hi
    order = np.argsort(key, kind="stable")  # stable: each run starts at its first position
    sorted_key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = sorted_key[1:] != sorted_key[:-1]
    inverse = np.empty(len(key), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    first = order[starts]
    counts = np.diff(np.append(starts, len(key)))
    chart = np.stack([triangles.T.ravel()[first], triangles[:, [1, 2, 0]].T.ravel()[first]],
                     axis=1)
    return np.stack([lo[first], hi[first]], axis=1), counts, chart, inverse


def _walk_loops(boundary_edges: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Closed loops of boundary vertices, each from its lowest edge in that edge's order."""
    ends = boundary_edges.tolist()
    incident: dict[int, list[int]] = {}
    for eid, (a, b) in enumerate(ends):
        incident.setdefault(a, []).append(eid)
        incident.setdefault(b, []).append(eid)
    for v, eids in incident.items():
        if len(eids) != 2:
            raise AssemblyError(f"boundary vertex {v} lies on {len(eids)} boundary edges")
    used = [False] * len(ends)
    loops = []
    for eid, (a, current) in enumerate(ends):
        if used[eid]:
            continue
        used[eid] = True
        loop = [a]
        while current != a:  # every vertex has two edges: leave by the other one
            loop.append(current)
            e1, e2 = incident[current]
            eid = e2 if e1 == eid else e1
            used[eid] = True
            u, v = ends[eid]
            current = v if u == current else u
        loops.append(tuple(loop))
    return tuple(loops)


def assemble_mesh(vertices, triangles, identifications, conformal_chart,
                  tags_chart: dict[str, Sequence[int]] | None = None) -> SurfaceMesh:
    """Build a SurfaceMesh from chart data, deriving logical structure and loops."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64).copy()
    identifications = (np.asarray(identifications, dtype=np.int64).reshape(-1, 2)
                       if len(identifications) else np.zeros((0, 2), dtype=np.int64))
    conformal_chart = np.asarray(conformal_chart, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise AssemblyError("vertices must be (nv, 2)")
    if conformal_chart.shape != (vertices.shape[0],):
        raise AssemblyError("conformal factor must be given per chart vertex")

    areas2 = _triangle_doubled_areas(vertices, triangles)
    flip = areas2 < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    if np.any(_degenerate_triangles(vertices, triangles, areas2)):
        raise AssemblyError("degenerate chart triangle")

    labels, n_logical = _component_labels(vertices.shape[0], identifications)
    lam = np.zeros(n_logical)
    np.maximum.at(lam, labels, conformal_chart)
    lam_min = np.full(n_logical, np.inf)
    np.minimum.at(lam_min, labels, conformal_chart)
    if np.any(lam - lam_min > 1e-9 * (np.abs(lam) + 1.0)):
        raise AssemblyError("identified vertices carry unequal conformal factors")
    if np.any(lam <= 0):
        raise AssemblyError("conformal factor must be positive")

    tri_logical = labels[triangles]
    edges, counts, chart_rep, inverse = _edge_census(tri_logical, triangles)
    if np.any(counts > 2):
        raise AssemblyError("edge shared by more than two triangles")
    bmask = counts == 1
    boundary_edge_chart = chart_rep[bmask]
    loops = _walk_loops(edges[bmask]) if bmask.any() else ()

    tags = {}
    if tags_chart:
        for name, ids in tags_chart.items():
            tags[name] = frozenset(int(labels[i]) for i in ids)

    return SurfaceMesh(
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        identifications=_freeze(identifications),
        logical=_freeze(labels),
        n_logical=n_logical,
        conformal_factor=_freeze(lam),
        boundary_loops=loops,
        boundary_edge_chart=_freeze(boundary_edge_chart),
        edges=_freeze(edges),
        # census edge c joins corners c and c+1, so corner c faces edge c+1
        opposite_edge=_freeze(inverse.reshape(3, -1).T[:, [1, 2, 0]]),
        tags=tags,
    )


def with_conformal_factor(mesh: SurfaceMesh, lam_logical) -> SurfaceMesh:
    lam = np.asarray(lam_logical, dtype=float)
    if lam.shape != (mesh.n_logical,):
        raise InvalidParameterError("conformal factor must have one value per logical vertex")
    if np.any(lam <= 0):
        raise InvalidParameterError("conformal factor must be positive")
    return replace(mesh, conformal_factor=_freeze(lam.copy()))


# ---------------------------------------------------------------------------
# measurements and validation
# ---------------------------------------------------------------------------

def boundary_edge_lengths(mesh: SurfaceMesh, conformal=None) -> np.ndarray:
    """Physical length of each boundary edge: chart length times mean endpoint lambda.

    `conformal` (per logical vertex) replaces the mesh's own factor.
    """
    uv = mesh.boundary_edge_chart
    if len(uv) == 0:
        return np.zeros(0)
    lam = mesh.conformal_factor if conformal is None else np.asarray(conformal, float)
    chord = np.linalg.norm(mesh.vertices[uv[:, 0]] - mesh.vertices[uv[:, 1]], axis=1)
    return chord * lam[mesh.logical[uv]].mean(axis=1)


def boundary_length(mesh: SurfaceMesh) -> float:
    return float(boundary_edge_lengths(mesh).sum())


def euler_characteristic(mesh: SurfaceMesh) -> int:
    return mesh.n_logical - len(mesh.edges) + mesh.n_triangles


def validate_mesh(mesh: SurfaceMesh) -> list[str]:
    """Re-derive the combinatorial structure and report every invariant violation."""
    report: list[str] = []
    areas2 = _triangle_doubled_areas(mesh.vertices, mesh.triangles)
    bad = _degenerate_triangles(mesh.vertices, mesh.triangles, areas2) | (areas2 < 0)
    if np.any(bad):
        report.append(f"{int(bad.sum())} chart triangles degenerate or misoriented")
    if np.any(mesh.conformal_factor <= 0):
        report.append("conformal factor not strictly positive")
    # equal factors across identified pairs are structural here (one logical
    # slot per class); assemble_mesh rejects unequal chart inputs up front

    edges, counts, _, _ = _edge_census(mesh.logical[mesh.triangles], mesh.triangles)
    if np.any(counts > 2):
        report.append("edge shared by more than two triangles")
    derived = {tuple(e) for e in edges[counts == 1]}
    stored = set()
    for loop in mesh.boundary_loops:
        for i in range(len(loop)):
            stored.add(tuple(sorted((loop[i], loop[(i + 1) % len(loop)]))))
    if derived != stored:
        missing = len(derived - stored)
        extra = len(stored - derived)
        report.append(f"boundary loops disagree with single-triangle edges "
                      f"({missing} open edges unlisted, {extra} stale loop edges)")
    return report


# ---------------------------------------------------------------------------
# graded 1-D grids
# ---------------------------------------------------------------------------

def _fill_graded(a: float, b: float, h_a: float, h_b: float, h_max: float,
                 growth: float = 0.4) -> np.ndarray:
    """Nodes on [a, b] with end spacings h_a, h_b growing toward h_max.

    The node density 1/h is integrated by the trapezoid rule on steps of
    h_max / 8, refined near a fine end by steps of h / 32 that grow
    geometrically with h, so the rule costs O(log(h_max / h_a)) samples there.
    """
    span = b - a
    h_a = min(h_a, h_max)
    h_b = min(h_b, h_max)
    if span <= 1.2 * min(h_a, h_b):
        return np.array([a, b])
    xs = np.linspace(a, b, max(64, int(8 * span / h_max) + 1))
    ratio = 1.0 + growth / 32.0
    for end, h_end, inward in ((a, h_a, 1.0), (b, h_b, -1.0)):
        if h_end < h_max:
            steps = np.arange(int(math.log(h_max / h_end) / math.log(ratio)) + 1)
            d = h_end / growth * (ratio ** steps - 1.0)  # d_{i+1} - d_i = h(d_i) / 32
            xs = np.union1d(xs, end + inward * d[d < span])
    h = np.minimum(h_max, np.minimum(h_a + growth * (xs - a), h_b + growth * (b - xs)))
    w = 1.0 / h
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(xs))])
    n = max(1, int(round(cum[-1])))
    nodes = np.interp(np.linspace(0.0, cum[-1], n + 1), cum, xs)
    nodes[0], nodes[-1] = a, b
    return nodes


NECK_SEGMENTS = 16  # segments along a boundary neck's arc and around an interior rim


@dataclass(frozen=True)
class _ArcRequest:
    """A pinned subdivision of NECK_SEGMENTS equal steps inside a 1-D parameter interval."""
    center: float
    half_width: float


def _parameter_grid(total: float, base_h: float, arcs: Sequence[_ArcRequest]):
    """Grid on [0, total] honoring pinned arcs; returns (nodes, per-arc index lists)."""
    if not arcs:
        n = max(8, int(round(total / base_h)))
        return np.linspace(0.0, total, n + 1), []
    order = sorted(range(len(arcs)), key=lambda i: arcs[i].center)
    prev_end = 0.0
    nodes = [np.array([0.0])]
    spans = []
    prev_h = base_h
    for i in order:
        arc = arcs[i]
        lo, hi = arc.center - arc.half_width, arc.center + arc.half_width
        fine = 2.0 * arc.half_width / NECK_SEGMENTS
        if lo <= prev_end + 1e-12:
            raise InvalidParameterError("refined intervals overlap or touch the chart seam")
        gap = _fill_graded(prev_end, lo, prev_h, fine, base_h)
        nodes.append(gap[1:])
        arc_nodes = np.linspace(lo, hi, NECK_SEGMENTS + 1)
        start = sum(len(x) for x in nodes)
        nodes.append(arc_nodes[1:])
        spans.append((i, start - 1, NECK_SEGMENTS + 1))
        prev_end, prev_h = hi, fine
    if prev_end >= total - 1e-12:
        raise InvalidParameterError("refined interval touches the chart seam")
    nodes.append(_fill_graded(prev_end, total, prev_h, base_h, base_h)[1:])
    grid = np.concatenate(nodes)
    index_lists = [None] * len(arcs)
    for i, start, length in spans:
        index_lists[i] = np.arange(start, start + length)
    return grid, index_lists


# ---------------------------------------------------------------------------
# attachment bookkeeping shared with the gluing module
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcSite:
    """Boundary attachment request: loop + angular position, physical half-length rho."""
    loop: int
    theta: float
    rho: float


@dataclass(frozen=True)
class HoleSite:
    """Interior attachment request: chart point and physical rim radius rho."""
    point: tuple[float, float]
    rho: float


@dataclass(frozen=True)
class Interface:
    """Ordered chart vertex chain where a neck glues on, with the local density.

    Builders return one interface per site, arcs first, each kind in site order.
    """
    chart_ids: np.ndarray
    lam: float


@dataclass(frozen=True, eq=False)
class Component:
    """Chart arrays of one surface, as `assemble_mesh` takes them, and its interfaces.

    A glue concatenates the chart arrays of its components and assembles the
    glued mesh once; `mesh` assembles a component alone, for a plain surface.
    """
    vertices: np.ndarray
    triangles: np.ndarray
    identifications: np.ndarray
    conformal_chart: np.ndarray
    interfaces: tuple[Interface, ...]

    @cached_property
    def mesh(self) -> SurfaceMesh:
        return assemble_mesh(self.vertices, self.triangles, self.identifications,
                             self.conformal_chart)


def _smoothstep(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def _blend_to_site(lam_chart: np.ndarray, points: np.ndarray, center, lam_p: float,
                   r_flat: float) -> np.ndarray:
    """Flatten the conformal factor to lam_p inside r_flat, untouched outside 2*r_flat."""
    d = np.linalg.norm(points - np.asarray(center), axis=1)
    w = _smoothstep((d - r_flat) / max(r_flat, 1e-300))
    return lam_p * (1.0 - w) + lam_chart * w


def _patch_rings(center, h0: float, resolution: float, r_start: float, keep):
    """Concentric graded point rings around a refinement center.

    Spacing grows ~0.42 * r from h0 up to the background resolution; `keep`
    filters candidate points (inside the domain, outside other exclusions).
    Returns the points and the exclusion radius the patch covers.
    """
    pts = []
    r = r_start
    ring = 0
    while r < 40.0:
        s = min(resolution, max(h0, 0.42 * r))
        n = max(8, int(round(TWO_PI * r / s)))
        offs = (ring % 2) * math.pi / n
        ang = offs + TWO_PI * np.arange(n) / n
        q = np.asarray(center) + r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        mask = keep(q, s)
        if np.any(mask):
            pts.append(q[mask])
        if s >= 0.98 * resolution and r > 2.0 * resolution:
            break
        r += 1.05 * s
        ring += 1
    return (np.concatenate(pts) if pts else np.zeros((0, 2))), r + 0.55 * resolution


# ---------------------------------------------------------------------------
# neck sites: graded patches, rims cut open, log collars
# ---------------------------------------------------------------------------

# below this rim radius a structured collar keeps the tiniest triangles away
# from the Delaunay stage, whose lifted-paraboloid predicates lose them
COLLAR_RADIUS = 1e-3

# below this chart half-width a boundary arc on a disk is refused: its patch
# points come closer than Qhull resolves in the band.  Probed on two-disk,
# catenoid+disk, Moebius+disk and three-disk chains at resolutions 0.02-0.1,
# every build passed at rho >= 1.5e-6 and 11 of 16 lost points at rho 1e-6.
MIN_ARC_HALF_WIDTH = 5e-6


def placed_rim_radius(r_rim: float) -> float:
    """Chart radius at which the Delaunay stage sees a rim; clearances count from it."""
    return max(r_rim, COLLAR_RADIUS)


def _ring_points(center, radius: float, m: int) -> np.ndarray:
    ang = TWO_PI * np.arange(m) / m
    return np.asarray(center) + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _ring_strips(rings: np.ndarray) -> np.ndarray:
    """Two triangles per cell between consecutive closed rings (rows of vertex ids)."""
    a, d = rings[:-1], rings[1:]
    b, c = np.roll(a, -1, axis=1), np.roll(d, -1, axis=1)
    return np.concatenate([np.stack([a, b, c], axis=2),
                           np.stack([a, c, d], axis=2)], axis=1).reshape(-1, 3)


def _qhull_triangles(points: np.ndarray) -> np.ndarray:
    from scipy.spatial import Delaunay  # imported on first use: most meshes never need it
    tri = Delaunay(points)
    if tri.coplanar.size:
        raise AssemblyError("triangulation dropped input points")
    return tri.simplices


def _site_mesh(head: np.ndarray, background: np.ndarray, arcs, holes, resolution: float,
               inside, pinned: np.ndarray | None = None, rings=None):
    """Chart triangulation refined around neck sites, with a hole cut at each rim.

    Points are `head` (placed first), then the rims, the `background` points
    outside every patch (or `pinned`), then the patches.  `arcs` holds the
    (centre, spacing) of boundary-arc patches and `holes` the (centre, rim
    radius) of interior rims of NECK_SEGMENTS segments; `inside(q, s)` keeps
    patch points at spacing s within the chart.  The Delaunay stage sees each rim at
    COLLAR_RADIUS or more, and a structured log collar descends from there to
    the true rim.  On a disk chart, `rings` gives the (counts, offsets) of the
    centre and bulk rings that make up `background`, `head` being the boundary
    circle, and `_band_delaunay` triangulates; otherwise Qhull does.
    Returns the points, the triangles and each hole's true rim ids.
    """
    m = NECK_SEGMENTS
    rims = [(c, placed_rim_radius(r_rim)) for c, r_rim in holes]
    patches = ([(c, h0, 1.9 * h0, 0.0) for c, h0 in arcs]
               + [(c, TWO_PI * r / m, r + TWO_PI * r / m, r) for c, r in rims])
    patch_pts, exclusions = [], []  # exclusions: (centre, radius)
    for c, h0, r_start, r_hole in patches:

        def keep(q, s, _c=c, _r=r_hole):
            ok = inside(q, s) & (np.linalg.norm(q - _c, axis=1) > _r + 0.45 * s)
            for e, rr in exclusions:
                ok &= np.linalg.norm(q - e, axis=1) > 0.8 * rr
            return ok

        pts, r_excl = _patch_rings(c, h0, resolution, r_start, keep)
        patch_pts.append(pts)
        exclusions.append((c, r_excl + r_hole))
    far = np.ones(len(background), dtype=bool)
    for c, rr in exclusions:
        far &= np.linalg.norm(background - c, axis=1) > rr
    if pinned is not None:
        far |= pinned
    rim_pts = [_ring_points(c, r, m) for c, r in rims]
    sections = [head] + rim_pts + [background[far]] + patch_pts
    points = np.concatenate([s for s in sections if len(s)])
    offsets = len(head) + m * np.arange(len(rims) + 1)
    rim_ids = [np.arange(o, o + m) for o in offsets[:-1]]

    if rings is None:
        triangles = _qhull_triangles(points)
    else:
        ring_counts, ring_offsets = rings
        first = np.cumsum([0] + ring_counts[:-1])  # of each ring in `background`
        # the rings the band split keeps are whole, so they lie at consecutive ids
        kept_id = offsets[-1] + np.cumsum(far) - 1
        triangles = _band_delaunay(points, np.append(kept_id[first], 0),
                                   np.array(ring_counts + [len(head)]),
                                   np.array(ring_offsets + [0.0]),
                                   exclusions, uniform_boundary=not arcs)
    for ids in rim_ids:
        triangles = triangles[~np.isin(triangles, ids).all(axis=1)]

    collar_pts, collar_tris, true_rim_ids = [], [], []
    n = len(points)
    for (c, r_rim), ids in zip(holes, rim_ids):
        if r_rim >= COLLAR_RADIUS:
            true_rim_ids.append(ids)
            continue
        n_rings = max(2, int(math.ceil(math.log(COLLAR_RADIUS / r_rim) / math.log(1.3))))
        radii = np.geomspace(r_rim, COLLAR_RADIUS, n_rings + 1)[:-1]
        collar_pts += [_ring_points(c, r, m) for r in radii]
        rings = np.vstack([np.arange(n, n + n_rings * m).reshape(n_rings, m), ids])
        collar_tris.append(_ring_strips(rings))
        true_rim_ids.append(rings[0])
        n += n_rings * m
    if collar_pts:
        points = np.concatenate([points] + collar_pts)
        triangles = np.concatenate([triangles] + collar_tris)
    return points, triangles, true_rim_ids


# ---------------------------------------------------------------------------
# disk
# ---------------------------------------------------------------------------

def _cotangents(points: np.ndarray, apex: np.ndarray, p: np.ndarray,
                q: np.ndarray) -> np.ndarray:
    e1 = points[p] - points[apex]
    e2 = points[q] - points[apex]
    return (np.einsum("ij,ij->i", e1, e2)
            / np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]))


def _ring_delaunay(points: np.ndarray, starts: np.ndarray, counts: np.ndarray,
                   offsets: np.ndarray) -> np.ndarray | None:
    """Delaunay triangulation of points on concentric rings, by merging the rings.

    Ring r holds the vertices starts[r] + k at angles offsets[r] + 2*pi*k/counts[r];
    ring 0 is the one-vertex centre or a full ring, which then bounds the
    triangulation on the inside (its edges are left to the caller's Delaunay
    test).  Each edge of ring r >= 1 takes as apex the
    vertex of ring r-1 nearest its bisector: of that ring's vertices it sees
    the edge under the largest angle, so the triangles between two rings are
    those of their Delaunay triangulation (Guibas-Stolfi merge, 1985).  Ring
    r-1's edges then take the ring-r vertex between the outer edges whose apexes
    flank them.  Returns None when a ring edge fails the Delaunay test (opposite
    angles summing past pi): the triangulation then joins rings that are not
    consecutive, which coarse disks (resolution above ~0.64) do.
    """
    ring = np.repeat(np.arange(1, len(counts)), counts[1:])  # ring of each outer edge
    first = np.concatenate([[0], np.cumsum(counts[1:])])  # edge 0 of ring r at first[r-1]
    e = np.arange(len(ring)) - first[ring - 1]
    n, n_in = counts[ring], counts[ring - 1]
    apex = np.floor((offsets[ring] - offsets[ring - 1]) / TWO_PI * n_in
                    + (e + 0.5) * n_in / n + 0.5).astype(np.int64)
    outward = np.stack([starts[ring] + e, starts[ring] + (e + 1) % n,
                        starts[ring - 1] + apex % n_in], axis=1)
    # edge k of ring r follows the edges l of ring r+1 with apex_l <= k (unwrapped
    # from ring r+1's first apex); sorted keys answer that for every ring at once
    base = np.concatenate([[0], np.cumsum(counts + 1)])
    apex0 = apex[first[:-1]]
    key = base[ring - 1] + apex - apex0[ring - 1]
    mid = ring < len(counts) - 1
    n_first = counts[0] if counts[0] > 1 else 0  # a full ring 0 has edges too
    r = np.concatenate([np.zeros(n_first, dtype=np.int64), ring[mid]])
    k = np.concatenate([np.arange(n_first), e[mid]])
    j = np.searchsorted(key, base[r] + (k - apex0[r]) % counts[r], side="right") - first[r]
    inward = np.stack([starts[r] + (k + 1) % counts[r], starts[r] + k,
                       starts[r + 1] + j % counts[r + 1]], axis=1)
    ring_edges = outward[mid, :2]
    cot_sum = (_cotangents(points, outward[mid, 2], ring_edges[:, 0], ring_edges[:, 1])
               + _cotangents(points, inward[n_first:, 2], ring_edges[:, 0], ring_edges[:, 1]))
    if np.any(cot_sum < -1e-12):  # ties (cocircular quads) sum to rounding noise
        return None
    return np.concatenate([outward, inward])


def _split_ring_delaunay(points: np.ndarray, ring_ids: np.ndarray, band: np.ndarray,
                         piece: np.ndarray) -> bool:
    """Whether each edge of a split ring bounds one triangle on each side and passes
    `_ring_delaunay`'s test, so that the two triangulations join into one Delaunay
    triangulation (an edge that is locally Delaunay everywhere makes it global)."""
    m = len(ring_ids)
    pos = np.full(len(points), -1)
    pos[ring_ids] = np.arange(m)
    apexes = []
    for tris in (band, piece):
        a = pos[tris]
        b = np.roll(a, -1, axis=1)  # edge c joins corners c and c+1, opposite corner c+2
        fwd = (a >= 0) & (b >= 0) & ((b - a) % m == 1)
        back = (a >= 0) & (b >= 0) & ((a - b) % m == 1)
        t, c = np.nonzero(fwd | back)
        edge = np.where(fwd[t, c], a[t, c], b[t, c])
        if not np.array_equal(np.bincount(edge, minlength=m), np.ones(m, dtype=np.int64)):
            return False
        apex = np.empty(m, dtype=np.int64)
        apex[edge] = tris[t, (c + 2) % 3]
        apexes.append(apex)
    nxt = np.roll(ring_ids, -1)
    cot_sum = (_cotangents(points, apexes[0], ring_ids, nxt)
               + _cotangents(points, apexes[1], ring_ids, nxt))
    return bool(np.all(cot_sum >= -1e-12))


def _band_delaunay(points: np.ndarray, starts: np.ndarray, counts: np.ndarray,
                   offsets: np.ndarray, exclusions, uniform_boundary: bool) -> np.ndarray:
    """Delaunay triangulation of a disk chart whose neck patches cut a band of rings.

    Ring i of the chart (0: the centre, last: the boundary circle) lies at
    radius i / (len(counts) - 1); `exclusions` holds the (centre, radius) of
    the disks the patches cover.  The band runs between split rings that every
    exclusion disk clears by two ring spacings.  The inner disk is ring-merged,
    the outer annulus too when the boundary is the uniform ring, and Qhull runs
    on the band's points and split rings only (dropping its triangles spanned
    by one split ring).  The pieces must pass `_split_ring_delaunay`; otherwise
    Qhull triangulates the whole chart.
    """
    nr = len(counts) - 1
    near = min(float(np.linalg.norm(c)) - rr for c, rr in exclusions)
    far = max(float(np.linalg.norm(c)) + rr for c, rr in exclusions)
    lo = int(math.floor(near * nr)) - 2  # outer ring of the inner disk
    hi = int(math.ceil(far * nr)) + 2  # inner ring of the outer annulus
    splits, pieces, off_band = [], [], []
    if lo >= 1:
        splits.append(lo)
        pieces.append(_ring_delaunay(points, starts[:lo + 1], counts[:lo + 1],
                                     offsets[:lo + 1]))
        off_band += range(lo)
    if uniform_boundary and hi < nr:
        splits.append(hi)
        pieces.append(_ring_delaunay(points, starts[hi:], counts[hi:], offsets[hi:]))
        off_band += range(hi + 1, nr + 1)
    if not splits or any(p is None for p in pieces):
        return _qhull_triangles(points)
    in_band = np.ones(len(points), dtype=bool)
    for i in off_band:
        in_band[starts[i]:starts[i] + counts[i]] = False
    band_ids = np.flatnonzero(in_band)
    band = band_ids[_qhull_triangles(points[band_ids])]
    ring_ids = [starts[i] + np.arange(counts[i]) for i in splits]
    for ids in ring_ids:
        band = band[~np.isin(band, ids).all(axis=1)]
    if not all(_split_ring_delaunay(points, ids, band, piece)
               for ids, piece in zip(ring_ids, pieces)):
        return _qhull_triangles(points)
    return np.concatenate([band] + pieces)


def _disk_component(resolution: float, arc_sites: Sequence[ArcSite] = (),
                    hole_sites: Sequence[HoleSite] = (),
                    field: Callable[[float, float], float] | None = None) -> Component:
    base_lam = (lambda xy: np.ones(len(xy))) if field is None else \
        (lambda xy: np.array([field(x, y) for x, y in xy]))

    arc_meta = []
    for site in arc_sites:
        if site.loop != 0:
            raise InvalidParameterError("disk has a single boundary loop")
        p = np.array([math.cos(site.theta), math.sin(site.theta)])
        lam_p = float(base_lam(p[None])[0])
        w = site.rho / lam_p  # chart angle; arclength = angle on the unit circle
        if w < MIN_ARC_HALF_WIDTH:
            raise InvalidGluingError(f"boundary neck arc half-width {w:.3g} is below "
                                     f"the meshable floor {MIN_ARC_HALF_WIDTH:g}")
        arc_meta.append((site, p, lam_p, w))

    requests = [_ArcRequest(site.theta % TWO_PI, w) for site, p, lam_p, w in arc_meta]
    angles, arc_index_lists = _parameter_grid(TWO_PI, resolution, requests)
    angles = angles[:-1]  # 2*pi duplicates the angle-0 node on a circle
    boundary_pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    rim_meta = []
    for site in hole_sites:
        p = np.asarray(site.point, dtype=float)
        lam_p = float(base_lam(p[None])[0])
        r_rim = site.rho / lam_p
        if np.linalg.norm(p) + 2.0 * placed_rim_radius(r_rim) >= 1.0:
            raise InvalidGluingError("interior neck disk reaches the boundary")
        rim_meta.append((site, p, lam_p, r_rim))

    nr = max(3, int(round(1.0 / resolution)))
    bulk = [np.zeros((1, 2))]
    ring_counts, ring_offsets = [1], [0.0]  # the centre, then the bulk rings
    for i in range(1, nr):
        r = i / nr
        n = max(6, int(round(TWO_PI * r / resolution)))
        offs = (i % 2) * math.pi / n
        ang = offs + TWO_PI * np.arange(n) / n
        bulk.append(r * np.stack([np.cos(ang), np.sin(ang)], axis=1))
        ring_counts.append(n)
        ring_offsets.append(offs)
    bulk_pts = np.concatenate(bulk)

    rim_ids = []
    if arc_meta or rim_meta:
        points, triangles, rim_ids = _site_mesh(
            boundary_pts, bulk_pts,
            [(p, 2.0 * w / NECK_SEGMENTS) for site, p, lam_p, w in arc_meta],
            [(p, r_rim) for site, p, lam_p, r_rim in rim_meta],
            resolution, lambda q, s: np.linalg.norm(q, axis=1) <= 1.0 - 0.45 * s,
            rings=(ring_counts, ring_offsets))
    else:
        # points are the boundary ring, then the centre and the bulk rings
        points = np.concatenate([boundary_pts, bulk_pts])
        n_boundary = len(boundary_pts)
        starts = n_boundary + np.cumsum([0] + ring_counts[:-1])
        triangles = _ring_delaunay(points, np.append(starts, 0),
                                   np.array(ring_counts + [n_boundary]),
                                   np.array(ring_offsets + [0.0]))
        if triangles is None:
            triangles = _qhull_triangles(points)

    lam_chart = base_lam(points)
    for site, p, lam_p, _ in arc_meta + rim_meta:
        lam_chart = _blend_to_site(lam_chart, points, p, lam_p, math.sqrt(site.rho) / lam_p)

    interfaces = [Interface(np.asarray(idxs), lam_p)
                  for (site, p, lam_p, w), idxs in zip(arc_meta, arc_index_lists)]
    interfaces += [Interface(ids, lam_p)
                   for (site, p, lam_p, r_rim), ids in zip(rim_meta, rim_ids)]
    return Component(points, triangles, np.zeros((0, 2), dtype=np.int64), lam_chart,
                     tuple(interfaces))


def build_disk_mesh(resolution: float) -> SurfaceMesh:
    """Unit-disk mesh with one boundary loop and lambda = 1."""
    return build_spec_mesh(UnitDisk(), resolution).mesh


# ---------------------------------------------------------------------------
# cylinder and Moebius band
# ---------------------------------------------------------------------------

def _grid_triangles(n_rows: int, n_cols: int):
    """Two triangles per cell of a row-major node grid; returns (triangles, idx)."""
    idx = np.arange(n_rows * n_cols).reshape(n_rows, n_cols)
    a = idx[:-1, :-1].ravel()
    b = idx[:-1, 1:].ravel()
    c = idx[1:, 1:].ravel()
    d = idx[1:, :-1].ravel()
    triangles = np.concatenate([np.stack([a, b, c], axis=1),
                                np.stack([a, c, d], axis=1)])
    return triangles, idx


def _grid_mesh(t_nodes: np.ndarray, th_nodes: np.ndarray):
    """Tensor-product triangulation of [t] x [theta]; returns (points, triangles, idx)."""
    tt, hh = np.meshgrid(t_nodes, th_nodes, indexing="ij")
    points = np.stack([hh.ravel(), tt.ravel()], axis=1)  # chart x = theta, y = t
    triangles, idx = _grid_triangles(len(t_nodes), len(th_nodes))
    return points, triangles, idx


def _cylinder_component(T: float, density: float, resolution: float,
                        arc_sites: Sequence[ArcSite] = ()) -> Component:
    if T <= 0:
        raise InvalidParameterError("cylinder height T must be positive")
    if density <= 0:
        raise InvalidParameterError("boundary density must be positive")
    requests, fine_by_loop = [], {0: resolution, 1: resolution}
    for site in arc_sites:
        if site.loop not in (0, 1):
            raise InvalidParameterError("cylinder has boundary loops 0 (t=0) and 1 (t=T)")
        w = site.rho / density
        requests.append(_ArcRequest(site.theta % TWO_PI, w))
        fine_by_loop[site.loop] = min(fine_by_loop[site.loop], 2.0 * w / NECK_SEGMENTS)
    th_nodes, arc_cols = _parameter_grid(TWO_PI, resolution, requests)
    t_nodes = _fill_graded(0.0, T, fine_by_loop[0], fine_by_loop[1], resolution)
    points, triangles, idx = _grid_mesh(t_nodes, th_nodes)
    seam = np.stack([idx[:, 0], idx[:, -1]], axis=1)
    interfaces = []
    for site, cols in zip(arc_sites, arc_cols):
        row = 0 if site.loop == 0 else len(t_nodes) - 1
        interfaces.append(Interface(idx[row, np.asarray(cols)], density))
    return Component(points, triangles, seam, np.full(len(points), density),
                     tuple(interfaces))


def build_cylinder_mesh(T: float, rho_b: float = 1.0, resolution: float = 0.05) -> SurfaceMesh:
    """Flat cylinder [0, T] x S^1 with two boundary circles and lambda = rho_b."""
    return build_spec_mesh(FlatCylinder(T, rho_b), resolution).mesh


def _mobius_component(T: float, density: float, resolution: float,
                      arc_sites: Sequence[ArcSite] = ()) -> Component:
    if T <= 0:
        raise InvalidParameterError("Moebius chart height T must be positive")
    if density <= 0:
        raise InvalidParameterError("boundary density must be positive")
    half_requests = []
    site_half = []
    for site in arc_sites:
        if site.loop != 0:
            raise InvalidParameterError("Moebius band has a single boundary loop (t=T)")
        w = site.rho / density
        theta = site.theta % TWO_PI
        section = int(theta // math.pi)  # the arc must stay inside one half-chart
        center_h = theta - section * math.pi
        if center_h - w <= 0 or center_h + w >= math.pi:
            raise InvalidParameterError("attachment arc crosses a half-chart meridian")
        half_requests.append(_ArcRequest(center_h, w))
        site_half.append(section)
    half, arc_cols_half = _parameter_grid(math.pi, resolution, half_requests)
    half = half[:-1]  # the antipodal map needs theta and theta+pi on the same grid
    n_half = len(half)
    th_nodes = np.concatenate([half, half + math.pi, [TWO_PI]])
    fine = min([resolution] + [2.0 * r.half_width / NECK_SEGMENTS for r in half_requests])
    t_nodes = _fill_graded(0.0, T, resolution, fine, resolution)
    points, triangles, idx = _grid_mesh(t_nodes, th_nodes)
    seam = np.stack([idx[:, 0], idx[:, -1]], axis=1)
    antipodal = np.stack([idx[0, np.arange(n_half)],
                          idx[0, np.arange(n_half) + n_half]], axis=1)
    interfaces = []
    top = len(t_nodes) - 1
    for cols, section in zip(arc_cols_half, site_half):
        cols = np.asarray(cols) + section * n_half
        interfaces.append(Interface(idx[top, cols], density))
    return Component(points, triangles, np.concatenate([seam, antipodal]),
                     np.full(len(points), density), tuple(interfaces))


def build_mobius_mesh(T: float, resolution: float = 0.05,
                      rho_b: float = 1.0) -> SurfaceMesh:
    """Moebius band as [0, T] x S^1 with (0, theta) ~ (0, theta + pi)."""
    return build_spec_mesh(MobiusCylinder(T, rho_b), resolution).mesh


def build_spec_mesh(spec, resolution: float, arc_sites: Sequence[ArcSite] = (),
                    hole_sites: Sequence[HoleSite] = ()) -> Component:
    """Component mesh for a non-glued metric description."""
    if not (0.0 < resolution < 1.0):
        raise InvalidParameterError("resolution must lie in (0, 1)")
    if isinstance(spec, UnitDisk):
        return _disk_component(resolution, arc_sites, hole_sites,
                               field=spec.conformal_factor_field)
    if isinstance(spec, FlatCylinder):
        if hole_sites:
            return _cylinder_holes_component(spec, resolution, arc_sites, hole_sites)
        return _cylinder_component(spec.T, spec.boundary_density, resolution, arc_sites)
    if isinstance(spec, MobiusCylinder):
        if hole_sites:
            raise InvalidParameterError("interior gluing on the Moebius band is not supported")
        return _mobius_component(spec.T, spec.boundary_density, resolution, arc_sites)
    raise InvalidParameterError(f"cannot mesh {type(spec).__name__}")


def _cylinder_holes_component(spec: FlatCylinder, resolution: float,
                              arc_sites: Sequence[ArcSite],
                              hole_sites: Sequence[HoleSite]) -> Component:
    """Cylinder with interior holes: a base grid carved around each site."""
    if arc_sites:
        raise InvalidParameterError("mixed boundary and interior sites are not supported")
    T, density = spec.T, spec.boundary_density
    holes = []
    for site in hole_sites:
        p = np.asarray(site.point, dtype=float)  # chart (theta, t)
        r_rim = site.rho / density
        reach = 2.0 * placed_rim_radius(r_rim)
        if not (reach < p[1] < T - reach):
            raise InvalidGluingError("interior neck disk reaches the cylinder boundary")
        if not (reach < p[0] < TWO_PI - reach):
            raise InvalidGluingError("interior neck disk crosses the chart seam")
        holes.append((p, r_rim))

    n_th = max(8, int(round(TWO_PI / resolution)))
    n_t = max(2, int(round(T / resolution)))
    grid_th, grid_t = np.meshgrid(np.linspace(0.0, TWO_PI, n_th + 1),
                                  np.linspace(0.0, T, n_t + 1))
    base = np.stack([grid_th.ravel(), grid_t.ravel()], axis=1)

    def inside(q, s):
        return ((q[:, 1] > 0.45 * s) & (q[:, 1] < T - 0.45 * s)
                & (q[:, 0] > 0.45 * s) & (q[:, 0] < TWO_PI - 0.45 * s))

    # the seam columns must survive with identical t-grids on both sides
    seam_cols = (base[:, 0] == 0.0) | (base[:, 0] == TWO_PI)
    points, triangles, rim_ids = _site_mesh(np.zeros((0, 2)), base, (), holes, resolution,
                                            inside, pinned=seam_cols)

    # identify the chart seam: vertices at theta=0 and theta=2*pi share t values
    left = np.where(points[:, 0] == 0.0)[0]
    right = np.where(points[:, 0] == TWO_PI)[0]
    left = left[np.argsort(points[left, 1])]
    right = right[np.argsort(points[right, 1])]
    if len(left) != len(right) or not np.allclose(points[left, 1], points[right, 1]):
        raise AssemblyError("cylinder seam columns do not match")
    seam = np.stack([left, right], axis=1)

    interfaces = [Interface(ids, density) for ids in rim_ids]
    return Component(points, triangles, seam, np.full(len(points), density),
                     tuple(interfaces))


# ---------------------------------------------------------------------------
# log-graded planar annulus (radial quadrature mesh)
# ---------------------------------------------------------------------------

def build_log_annulus_mesh(r_in: float, r_out: float, n_radial: int,
                           n_angular: int) -> SurfaceMesh:
    """Planar annulus with geometrically graded radii, lambda = 1."""
    if not (0 < r_in < r_out):
        raise InvalidParameterError("need 0 < r_in < r_out")
    radii = np.geomspace(r_in, r_out, n_radial + 1)
    points = np.concatenate([_ring_points((0.0, 0.0), r, n_angular) for r in radii])
    triangles = _ring_strips(np.arange(len(points)).reshape(n_radial + 1, n_angular))
    return assemble_mesh(points, triangles, [], np.ones(len(points)))
