"""Triangulated surfaces with chart coordinates, seam identifications, and a
boundary density per chart vertex.

A surface is a union of flat chart pieces; logical vertices are equivalence
classes of chart vertices under the identification list.  The metric is
conformal to the flat chart metric, so in two dimensions the Dirichlet energy
is chart-only and the metric enters solely through boundary lengths: a
boundary edge's length is its chart length times the mean density of its chart
ends, each its chart density times its logical vertex's conformal factor (1
unless `with_conformal_factor` sets one).  Identified chart vertices may carry
different densities: each chart's boundary is measured on that chart.
`assemble_mesh` owns the P1 geometry: each triangle's edge vectors give its
doubled area, which orients or refuses it, and its corner cotangents, summed
into each unique edge's weight (`edge_weights`, shared by
`with_conformal_factor`), and labels the boundary loops in one pass.

Site-free disks put their points on concentric rings, and their Delaunay
triangulation comes from merging consecutive rings (`_ring_delaunay`), or from
Qhull where the rings are too coarse to merge; site-free cylinders and Moebius
bands are tensor grids, whose seams pair grid indices.  `place_sites` places
every neck site on its chart and makes every refusal of one; a build places
each chart's sites once, before anything is meshed.  Every chart with neck
sites goes through `_sited_chart`: its boundary circle or rows graded around
each arc (`_disk_boundary`), graded patches clear of every site
(`_site_points`), a Delaunay stage, and each site cut open at its ring: a
rim's circle, or the half-ellipse of an arc's reach, confocal with the arc
(`_arc_site`), which `gluing` fills with the arc's flat collar chart.  The
Delaunay stage keeps the site-free layout's cells (the disk's ring merge, or
the grid's rectangles) away from the sites (`_layout_split`), and Qhull
(`scipy.spatial`, imported only when needed) sees only the sites'
neighbourhoods (`_band_delaunay`, logged at DEBUG).  A certificate on the
interface (`_interface_delaunay`) joins the pieces, or the chart is refused
with `AssemblyError`.  `check_mesh_budget` refuses, before anything is built,
meshes estimated above MAX_MESH_VERTICES and grid charts lower than
MIN_CHART_HEIGHT.

Every surface chart carries one constant boundary density, which
`with_conformal_factor` multiplies by any other.  Builders return a
`Component`: chart arrays, that density and the neck interfaces.  A glued mesh
is assembled once from its components' arrays; a component's own `mesh` is
assembled only when a plain surface asks for it.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import AssemblyError, InvalidGluingError, InvalidParameterError

TWO_PI = 2.0 * math.pi
FILL_GROWTH = 0.4  # spacing growth per unit length of a graded 1-D grid (_fill_graded)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# metric descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitDisk:
    """Euclidean unit disk, boundary density 1."""


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
    conformal_factor: np.ndarray      # (n_logical,) positive, 1 unless set
    chart_density: np.ndarray         # (nv,) finite, nonnegative; read on the boundary
    boundary_loops: tuple[tuple[int, ...], ...]  # logical ids, ascending; by lowest id
    boundary_edge_chart: np.ndarray   # (nb, 2) chart endpoints of the unique chart edge
    edges: np.ndarray                 # (ne, 2) unique logical edges (lo, hi), lexicographic
    edge_weights: np.ndarray          # (ne,) P1 cotangent weight of each edge
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


def _corner_geometry(vertices: np.ndarray, triangles: np.ndarray):
    """Doubled signed area, degeneracy (relative to the triangle's own edge scale:
    necks can be tiny) and corner cotangents, which carry the sign of the area."""
    p0, p1, p2 = vertices[triangles[:, 0]], vertices[triangles[:, 1]], vertices[triangles[:, 2]]
    e0, e1, e2 = p2 - p1, p0 - p2, p1 - p0  # the edge vector e_c faces corner c
    area2 = e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0])
    scale2 = np.maximum(np.einsum("ij,ij->i", e1, e1), np.einsum("ij,ij->i", e2, e2))
    dots = [np.einsum("ij,ij->i", a, b) for a, b in ((e1, e2), (e2, e0), (e0, e1))]
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate rows are refused
        return area2, np.abs(area2) <= 1e-12 * scale2, -np.stack(dots, axis=1) / area2[:, None]


def _edge_census(tri_logical: np.ndarray, triangles: np.ndarray, cots: np.ndarray):
    """Unique logical edges with adjacency counts, one chart realization and the
    P1 weight each: half the cotangents (`cots`, per corner) of the corners facing it.

    Triangle edge c (c = 0, 1, 2) joins corners c and c+1, faces corner c+2 and
    sits at position c * n_tri + t of the census; the chart realization of a
    unique edge is its first position.
    """
    n = int(tri_logical.max()) + 1 if tri_logical.size else 1
    key = _edge_keys(tri_logical, n).T.ravel()
    order = np.argsort(key, kind="stable")  # stable: each run starts at its first position
    sorted_key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = sorted_key[1:] != sorted_key[:-1]
    facing = cots[:, [2, 0, 1]].T.ravel()
    weights = 0.5 * np.bincount(np.cumsum(new) - 1, weights=facing[order])
    starts = np.flatnonzero(new)
    first = order[starts]
    counts = np.diff(np.append(starts, len(key)))
    chart = np.stack([triangles.T.ravel()[first], triangles[:, [1, 2, 0]].T.ravel()[first]],
                     axis=1)
    return np.stack(np.divmod(sorted_key[starts], n), axis=1), counts, chart, weights


def _boundary_loops(edges: np.ndarray, n: int) -> tuple[tuple[int, ...], ...]:
    """Vertices of each loop of the boundary `edges` among n vertices, ascending,
    loops in order of their lowest vertex (`_component_labels` numbers them so)."""
    on = np.bincount(edges.ravel(), minlength=n)
    bad = np.flatnonzero((on != 0) & (on != 2))
    if len(bad):
        raise AssemblyError(f"boundary vertex {bad[0]} lies on {on[bad[0]]} boundary edges")
    ids = np.flatnonzero(on)
    labels = _component_labels(len(ids), np.searchsorted(ids, edges))[0]
    order = np.argsort(labels, kind="stable")
    loops = np.split(ids[order], np.flatnonzero(np.diff(labels[order])) + 1)
    return tuple(tuple(loop.tolist()) for loop in loops)


def assemble_mesh(vertices, triangles, identifications, density_chart,
                  tags_chart: dict[str, Sequence[int]] | None = None) -> SurfaceMesh:
    """Build a SurfaceMesh from chart data, deriving logical structure and loops.

    `density_chart` is each chart vertex's boundary density, finite and
    nonnegative; the conformal factor starts at 1."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64).copy()
    identifications = (np.asarray(identifications, dtype=np.int64).reshape(-1, 2)
                       if len(identifications) else np.zeros((0, 2), dtype=np.int64))
    density_chart = np.asarray(density_chart, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise AssemblyError("vertices must be (nv, 2)")
    if density_chart.shape != (vertices.shape[0],):
        raise AssemblyError("boundary density must be given per chart vertex")
    if not np.all(np.isfinite(density_chart) & (density_chart >= 0)):
        raise AssemblyError("boundary density must be finite and nonnegative")

    areas2, degenerate, cots = _corner_geometry(vertices, triangles)
    flip = areas2 < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    # swapping corners 1 and 2 negates the area, so the cotangents change sign too
    cots[flip] = -cots[flip][:, [0, 2, 1]]
    if np.any(degenerate):
        raise AssemblyError("degenerate chart triangle")

    labels, n_logical = _component_labels(vertices.shape[0], identifications)
    edges, counts, chart_rep, weights = _edge_census(labels[triangles], triangles, cots)
    if np.any(counts > 2):
        raise AssemblyError("edge shared by more than two triangles")
    bmask = counts == 1

    tags = {name: frozenset(labels[np.asarray(ids, dtype=np.int64)].tolist())
            for name, ids in (tags_chart or {}).items()}
    return SurfaceMesh(
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        identifications=_freeze(identifications),
        logical=_freeze(labels),
        n_logical=n_logical,
        conformal_factor=_freeze(np.ones(n_logical)),
        chart_density=_freeze(density_chart),
        boundary_loops=_boundary_loops(edges[bmask], n_logical) if bmask.any() else (),
        boundary_edge_chart=_freeze(chart_rep[bmask]),
        edges=_freeze(edges),
        edge_weights=_freeze(weights),
        tags=tags,
    )


def with_conformal_factor(mesh: SurfaceMesh, lam_logical) -> SurfaceMesh:
    """The mesh with the factor `lam_logical`, refused unless finite and positive.

    The factor multiplies the mesh's built boundary density, so on a
    unit-density mesh (disks, glued disks, cylinders and Moebius bands of
    density 1) it is the boundary density."""
    lam = np.array(lam_logical, dtype=float)
    if lam.shape != (mesh.n_logical,):
        raise InvalidParameterError("conformal factor must have one value per logical vertex")
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise InvalidParameterError("conformal factor must be finite and positive")
    return replace(mesh, conformal_factor=_freeze(lam))


# ---------------------------------------------------------------------------
# measurements and validation
# ---------------------------------------------------------------------------

def boundary_edge_lengths(mesh: SurfaceMesh) -> np.ndarray:
    """Physical length of each boundary edge: chart length times the mean density
    of its chart ends, each the conformal factor times the chart density."""
    uv = mesh.boundary_edge_chart
    if len(uv) == 0:
        return np.zeros(0)
    chord = np.linalg.norm(mesh.vertices[uv[:, 0]] - mesh.vertices[uv[:, 1]], axis=1)
    return chord * (mesh.conformal_factor[mesh.logical[uv]] * mesh.chart_density[uv]).mean(axis=1)


def boundary_length(mesh: SurfaceMesh) -> float:
    return float(boundary_edge_lengths(mesh).sum())


def euler_characteristic(mesh: SurfaceMesh) -> int:
    return mesh.n_logical - len(mesh.edges) + mesh.n_triangles


def validate_mesh(mesh: SurfaceMesh) -> list[str]:
    """Re-derive the combinatorial structure and report every invariant violation."""
    report: list[str] = []
    areas2, degenerate, cots = _corner_geometry(mesh.vertices, mesh.triangles)
    bad = degenerate | (areas2 < 0)
    if np.any(bad):
        report.append(f"{int(bad.sum())} chart triangles degenerate or misoriented")
    if np.any(mesh.conformal_factor <= 0):
        report.append("conformal factor not strictly positive")
    if not np.all(np.isfinite(mesh.chart_density) & (mesh.chart_density >= 0)):
        report.append("chart density negative or not finite")

    edges, counts, _, weights = _edge_census(mesh.logical[mesh.triangles], mesh.triangles, cots)
    if np.any(counts > 2):
        report.append("edge shared by more than two triangles")
    if not np.array_equal(weights, mesh.edge_weights):
        report.append("edge weights disagree with the chart geometry")
    derived = {tuple(e) for e in edges[counts == 1].tolist()}
    stored = {tuple(sorted(e)) for e in mesh.logical[mesh.boundary_edge_chart].tolist()}
    if derived != stored:
        report.append(f"boundary edges disagree with single-triangle edges "
                      f"({len(derived - stored)} open edges unlisted, "
                      f"{len(stored - derived)} stale boundary edges)")
    return report


# ---------------------------------------------------------------------------
# graded 1-D grids
# ---------------------------------------------------------------------------

def _fill_graded(a: float, b: float, h_a: float, h_b: float, h_max: float,
                 growth: float = FILL_GROWTH) -> np.ndarray:
    """Nodes on [a, b], end spacings h_a, h_b growing by `growth` per unit length to h_max.

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


@dataclass(frozen=True, eq=False)
class Component:
    """Chart arrays of one surface, as `assemble_mesh` takes them, its boundary
    density and its interfaces: the ordered chart vertex chains where necks glue
    on, one per site, arcs first, each kind in site order, with the chart size
    each site was placed at (an arc's reach, a rim's radius).

    A glue concatenates the chart arrays of its components and assembles the
    glued mesh once; `mesh` assembles a component alone, for a plain surface.
    """
    vertices: np.ndarray
    triangles: np.ndarray
    identifications: np.ndarray
    density: float
    interfaces: tuple[np.ndarray, ...]
    sizes: tuple[float, ...]

    @cached_property
    def mesh(self) -> SurfaceMesh:
        return assemble_mesh(self.vertices, self.triangles, self.identifications,
                             np.full(len(self.vertices), self.density))


def _patch_rings(site: _Site, resolution: float, keep):
    """Concentric graded point rings around a site's centre, from `site.r_start` to
    past its reach, spacing growing ~0.42 * r from `site.h0` up to the background
    resolution; `keep` filters candidate points (inside the domain, outside other
    exclusions).  Returns the points and the exclusion radius the patch covers.
    """
    pts = []
    r = site.r_start
    ring = 0
    while r < 40.0:
        s = min(resolution, max(site.h0, 0.42 * r))
        n = max(8, int(round(TWO_PI * r / s)))
        offs = (ring % 2) * math.pi / n
        ang = offs + TWO_PI * np.arange(n) / n + site.phase
        q = np.asarray(site.centre) + r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        mask = keep(q, s)
        if np.any(mask):
            pts.append(q[mask])
        if s >= 0.98 * resolution and r > max(2.0 * resolution, site.reach):
            break
        r += 1.05 * s
        ring += 1
    return (np.concatenate(pts) if pts else np.zeros((0, 2))), r + 0.55 * resolution


# ---------------------------------------------------------------------------
# neck sites: graded patches, rims and arcs cut open
# ---------------------------------------------------------------------------

# the least chart radius of a rim and reach of an arc, from which clearances
# count: smaller rings lose triangles to the Delaunay stage's predicates
RIM_FLOOR, ARC_FLOOR = 1e-3, 2.5e-4
RIM_RADIUS = 0.08  # chart radius of an interior rim where its chart has room
# an arc's reach where its chart has room: its NECK_SEGMENTS columns are then a
# resolution step apart from resolution 0.06 down, so all near it refines with h
ARC_REACH = 0.32


def _unit(angles: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _ring_points(center, radius: float, m: int) -> np.ndarray:
    return np.asarray(center) + radius * _unit(TWO_PI * np.arange(m) / m)


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


@dataclass(frozen=True, eq=False)
class _Site:
    """A neck site as the site mesher sees it: the ring `outer` where it is cut
    open, within `reach` of `centre`, and `clear(q, s)`, which keeps points q at
    spacing s off the ring's inside.  The graded patch around `centre` starts
    at radius `r_start` with spacing `h0`, turned by `phase`."""
    centre: np.ndarray
    outer: np.ndarray
    reach: float
    h0: float
    r_start: float
    clear: Callable[[np.ndarray, float], np.ndarray]
    phase: float = 0.0


def _hole_site(placed: Placement, width: float, resolution: float) -> _Site:
    """An interior rim: one ring at its placed radius r, of segments a resolution
    step long on radius `width` (RIM_RADIUS at least), its neck's widest rim."""
    centre, r = placed
    m = max(NECK_SEGMENTS, int(round(TWO_PI * max(RIM_RADIUS, width) / resolution)))
    h0 = TWO_PI * r / m
    return _Site(centre, _ring_points(centre, r, m), r, h0, r + h0,
                 lambda q, s: np.linalg.norm(q - centre, axis=1) > r + 0.45 * s)


def _arc_angles(R: float, w: float, m: int) -> np.ndarray:
    """Angles nu of the m + 1 columns of an arc of half-length w and reach R, at equal
    steps along the half-ellipse -w cosh(mu_R - i nu), cosh(mu_R) = R / w."""
    nu = np.linspace(0.0, math.pi, 64 * m + 1)
    speed = np.hypot(math.sqrt((R - w) * (R + w)), w * np.sin(nu))  # |dz / dnu|
    s = np.concatenate([[0.0], np.cumsum(speed[1:] + speed[:-1])])  # trapezoids, symmetric
    return np.interp(np.linspace(0.0, s[-1], m + 1), s, nu)


def _frame(theta: float, row):
    """Maps of an arc's coordinate z onto the chart and back: z -> exp(i (theta + z))
    on the unit circle (row None), z -> (theta + x, t0 + inward y) on the grid row
    (t0, inward)."""
    if row is None:
        turn = cmath.exp(1j * theta)
        return (lambda z: turn * np.exp(1j * z)), (lambda q: -1j * np.log(q / turn))
    origin, flip = complex(theta, row[0]), (np.conj if row[1] < 0 else np.asarray)
    return (lambda z: origin + flip(z)), (lambda q: flip(q - origin))


def _arc_site(placed: Placement, w: float, width: float, resolution: float, frame,
              normal: float) -> _Site:
    """A boundary arc of chart half-length w, cut open at its placed reach R.

    In a coordinate z = x + iy along the arc (x) and inward (y), the chart
    boundary is the real line, and `frame` (`_frame`) maps z to complex chart
    coordinates and back.  The site's ring is the half-ellipse z = -w cosh(mu_R
    - i nu), cosh(mu_R) = R / w, from -R to R on the boundary (the arc itself
    when R = w), with max(NECK_SEGMENTS, round(pi `width` / resolution)) + 1
    nodes at the angles of `_arc_angles`; `gluing` fills it with the arc's
    collar.  The patch's rings are turned to the outward `normal`.
    """
    (carry, local), R = frame, placed.size
    b = math.sqrt((R - w) * (R + w))  # the inward semi-axis
    nu = _arc_angles(R, w, max(NECK_SEGMENTS, int(round(math.pi * width / resolution))))
    z = -R * np.cos(nu) + 1j * b * np.sin(nu)
    z.imag[[0, -1]] = 0.0  # sin(pi) is not 0 in floating point
    q = carry(z)
    ring = np.stack([q.real, q.imag], axis=1)
    h0 = float(np.linalg.norm(ring[1] - ring[0]))  # the ring's steps are equal

    def clear(q, s):  # outside the half-ellipse widened by 0.45 s
        z = local(q[:, 0] + 1j * q[:, 1])
        return (z.real / (R + 0.45 * s)) ** 2 + (z.imag / (b + 0.45 * s)) ** 2 > 1.0

    return _Site(placed.centre, ring, R, h0, b + h0, clear, normal)


class Placement(NamedTuple):
    """A neck site on its chart: the chart centre, and the chart size (an arc's
    reach, or a rim's radius)."""
    centre: np.ndarray
    size: float


def place_sites(spec, arc_sites: Sequence[ArcSite] = (),
                hole_sites: Sequence[HoleSite] = ()) -> list[Placement]:
    """Place a chart's neck sites, arcs first and each kind in site order.

    Every refusal of a site is made here, before anything is meshed.
    `InvalidParameterError`: an unknown chart, a T or boundary density that
    is not positive, an arc on a loop the chart lacks.  `InvalidGluingError`:
    rho not below a quarter of an arc's clearance on its loop (the angle to
    the nearest other arc there times lam, lam the chart's boundary density,
    or 2 pi lam alone); arc floors f = max(rho / lam, ARC_FLOOR) that overlap
    each other or a grid chart's theta seam; a rim whose floor f = max(rho /
    lam, RIM_FLOOR), doubled, reaches its room (the chart distance to the
    boundary, rows or seam); two rims closer than 4 (f_i + f_j).  An arc is
    placed at R = max(rho / lam, min(ARC_REACH, d / 4, T / 3 on a grid)), d the
    chart distance to the nearest rim, seam or other arc on its loop (along
    it), so arc spans [-R, R] stay apart; rim i at R_i = max(f_i, min(RIM_RADIUS,
    room_i / 3, (d_ij / 4 - f_j) / 2 over rims j)), so 2 R_i < room_i and
    4 (R_i + R_j) < d_ij.
    """
    if isinstance(spec, UnitDisk):
        lam = 1.0
        arcs = [np.array([math.cos(s.theta), math.sin(s.theta)]) for s in arc_sites]
        loops, seam = (0,), []

        def room(p):
            return 1.0 - np.linalg.norm(p)

        def arc_caps(p):
            return [ARC_REACH]
    elif isinstance(spec, (FlatCylinder, MobiusCylinder)):
        T, lam = spec.T, spec.boundary_density
        if not T > 0:
            raise InvalidParameterError("chart height T must be positive")
        if not lam > 0:
            raise InvalidParameterError("boundary density must be positive")
        mobius = isinstance(spec, MobiusCylinder)
        arcs = [np.array([s.theta % TWO_PI, 0.0 if s.loop == 0 and not mobius else T])
                for s in arc_sites]
        loops, seam = ((0,) if mobius else (0, 1)), [(0.0, 0.0)]

        def room(p):  # np.min keeps a NaN
            return np.min([p[0], TWO_PI - p[0], p[1], T - p[1]])

        def arc_caps(p):
            return [ARC_REACH, T / 3.0, min(p[0], TWO_PI - p[0]) / 4.0]
    else:
        raise InvalidParameterError(f"cannot mesh {type(spec).__name__}")
    for site in arc_sites:
        if site.loop not in loops:
            raise InvalidParameterError(f"{type(spec).__name__} has boundary loops {loops}")

    centres = [np.asarray(s.point, dtype=float) for s in hole_sites]
    floors = [max(s.rho / lam, ARC_FLOOR) for s in arc_sites]
    caps = [arc_caps(c) + [np.linalg.norm(c - p) / 4.0 for p in centres] for c in arcs]
    for loop in sorted({site.loop for site in arc_sites}):
        on = [i for i, site in enumerate(arc_sites) if site.loop == loop]
        gaps = [(TWO_PI * lam, arc_sites[on[0]].rho)] if len(on) == 1 else []
        for k, i in enumerate(on):
            for j in on[k + 1:]:
                d = abs((arc_sites[i].theta - arc_sites[j].theta + math.pi) % TWO_PI - math.pi)
                gaps.append((d * lam, max(arc_sites[i].rho, arc_sites[j].rho)))
                caps[i].append(d / 4.0)
                caps[j].append(d / 4.0)
        if any(not rho < gap / 4.0 for gap, rho in gaps):
            raise InvalidGluingError("rho is not below a quarter of the attachment clearance")
        spans = list(seam)
        for i in on:
            mid = (arc_sites[i].theta - _turn(spec, arc_sites)) % TWO_PI
            spans.append((mid - floors[i], mid + floors[i]))
        spans.sort()  # as `_disk_boundary` takes them, the first again after the last
        if any(nxt <= hi for (_, hi), (nxt, _) in
               zip(spans, spans[1:] + [(spans[0][0] + TWO_PI, 0.0)])):
            raise InvalidGluingError("boundary neck arcs overlap each other or the chart seam")

    if any(not s.rho > 0 for s in hole_sites):
        raise InvalidGluingError("interior neck rho must be positive")
    rim_floors = [max(s.rho / lam, RIM_FLOOR) for s in hole_sites]
    dist = [[np.linalg.norm(a - b) for b in centres] for a in centres]
    for i, f in enumerate(rim_floors):
        if not 2.0 * f < room(centres[i]):
            raise InvalidGluingError("interior neck disk reaches the chart's boundary or seam")
        if any(dist[i][j] <= 4.0 * (f + rim_floors[j]) for j in range(i + 1, len(rim_floors))):
            raise InvalidGluingError("interior neck disks too close together")
    placed = [Placement(c, max(s.rho / lam, min(cap))) for s, c, cap in zip(arc_sites, arcs, caps)]
    for i, (c, f) in enumerate(zip(centres, rim_floors)):
        caps = [(dist[i][j] / 4.0 - g) / 2.0 for j, g in enumerate(rim_floors) if j != i]
        placed.append(Placement(c, max(f, min([RIM_RADIUS, room(c) / 3.0] + caps))))
    return placed


def _site_points(head: np.ndarray, background: np.ndarray, sites: Sequence[_Site],
                 resolution: float, inside, pinned: np.ndarray):
    """Points of a chart refined around neck sites, for the Delaunay stage.

    Points are `head` (placed first), then each site's outer ring, the
    `background` points outside every patch (or `pinned`), then the patches;
    `inside(q, s)` keeps patch points at spacing s within the chart.  Returns
    the points, the id of each background point (-1 where a patch dropped it),
    the ids of each site's outer ring, and the (centre, radius) disk each patch
    covers.
    """
    patch_pts, exclusions = [], []

    def keep(q, s):  # clear of every site and of the earlier patches
        ok = inside(q, s)
        for other in sites:
            ok &= other.clear(q, s)
        for e, rr in exclusions:
            ok &= np.linalg.norm(q - e, axis=1) > 0.8 * rr
        return ok

    for site in sites:
        pts, r_excl = _patch_rings(site, resolution, keep)
        patch_pts.append(pts)
        exclusions.append((site.centre, r_excl))
    far = np.ones(len(background), dtype=bool)
    for c, rr in exclusions:
        far &= np.linalg.norm(background - c, axis=1) > rr
    far |= pinned
    outer = [site.outer for site in sites]
    sections = [head] + outer + [background[far]] + patch_pts
    points = np.concatenate([s for s in sections if len(s)])
    ends = len(head) + np.cumsum([0] + [len(r) for r in outer])
    outer_ids = [np.arange(a, b) for a, b in zip(ends[:-1], ends[1:])]
    background_ids = np.where(far, ends[-1] + np.cumsum(far) - 1, -1)
    return points, background_ids, outer_ids, exclusions


# ---------------------------------------------------------------------------
# disk
# ---------------------------------------------------------------------------

def _cotangents(points: np.ndarray, apex: np.ndarray, p: np.ndarray,
                q: np.ndarray) -> np.ndarray:
    """Cotangent of the angle at each apex facing its edge (p, q), either orientation."""
    area2, _, cots = _corner_geometry(points, np.stack([apex, p, q], axis=1))
    return cots[:, 0] * np.sign(area2)


def _ring_delaunay(points: np.ndarray, starts: np.ndarray, counts: np.ndarray,
                   offsets: np.ndarray) -> np.ndarray | None:
    """Delaunay triangulation of points on concentric rings, by merging the rings.

    Ring r holds the vertices starts[r] + k at angles offsets[r] + 2*pi*k/counts[r];
    ring 0 is the one-vertex centre.  Each edge of ring r >= 1 takes as apex the
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
    r, k = ring[mid], e[mid]
    j = np.searchsorted(key, base[r] + (k - apex0[r]) % counts[r], side="right") - first[r]
    inward = np.stack([starts[r] + (k + 1) % counts[r], starts[r] + k,
                       starts[r + 1] + j % counts[r + 1]], axis=1)
    ring_edges = outward[mid, :2]
    cot_sum = (_cotangents(points, outward[mid, 2], ring_edges[:, 0], ring_edges[:, 1])
               + _cotangents(points, inward[:, 2], ring_edges[:, 0], ring_edges[:, 1]))
    if np.any(cot_sum < -1e-12):  # ties (cocircular quads) sum to rounding noise
        return None
    return np.concatenate([outward, inward])


def _edge_keys(tris: np.ndarray, n: int) -> np.ndarray:
    """Key lo * n + hi of each triangle edge; edge c joins corners c and c+1."""
    nxt = np.roll(tris, -1, axis=1)
    return np.minimum(tris, nxt) * n + np.maximum(tris, nxt)


def _interface_delaunay(points: np.ndarray, edges: np.ndarray, band: np.ndarray,
                        piece: np.ndarray) -> bool:
    """Whether each interface edge bounds one triangle of `band` and one of `piece`
    and passes `_ring_delaunay`'s test, so that the two triangulations join into one
    Delaunay triangulation (an edge that is locally Delaunay everywhere makes it global)."""
    n = len(points)
    key = _edge_keys(edges, n)[:, 0]
    order = np.argsort(key)
    key, edges = key[order], edges[order]
    on = np.zeros(n, dtype=bool)
    on[edges] = True
    apexes = []
    for tris in (band, piece):
        tris = tris[on[tris].sum(axis=1) >= 2]
        keys = _edge_keys(tris, n)
        t, c = np.nonzero(np.isin(keys, key))
        pos = np.searchsorted(key, keys[t, c])
        if not np.array_equal(np.bincount(pos, minlength=len(key)),
                              np.ones(len(key), dtype=np.int64)):
            return False
        apex = np.empty(len(key), dtype=np.int64)
        apex[pos] = tris[t, (c + 2) % 3]
        apexes.append(apex)
    p, q = edges[:, 0], edges[:, 1]
    cot_sum = _cotangents(points, apexes[0], p, q) + _cotangents(points, apexes[1], p, q)
    return bool(np.all(cot_sum >= -1e-12))


def _drop_pockets(tris: np.ndarray, iface: np.ndarray, n: int) -> np.ndarray:
    """The triangles joined, across edges off the interface, to a vertex off it.

    Qhull fills the convex hull of its points; the part beyond the interface
    (the pockets) is spanned by interface vertices alone.
    """
    keys = _edge_keys(tris, n).ravel()
    cross = ~np.isin(keys, _edge_keys(iface, n)[:, 0])
    tri = np.repeat(np.arange(len(tris)), 3)[cross]
    keys = keys[cross]
    order = np.argsort(keys, kind="stable")
    keys, tri = keys[order], tri[order]
    same = np.flatnonzero(keys[1:] == keys[:-1])
    graph = sp.coo_matrix((np.ones(len(same)), (tri[same], tri[same + 1])),
                          shape=(len(tris), len(tris)))
    labels = connected_components(graph, directed=False)[1]
    on = np.zeros(n, dtype=bool)
    on[iface] = True
    return tris[np.isin(labels, labels[~on[tris].all(axis=1)])]


def _band_delaunay(points: np.ndarray, piece: np.ndarray, iface: np.ndarray) -> np.ndarray:
    """Delaunay triangulation of a chart part of which is known: `piece` holds
    Delaunay triangles on some of the points, and meets the rest of the chart
    along the edges `iface`.

    Qhull sees only the points off the piece and the interface vertices (the
    band), and its triangles beyond the interface are dropped.  The interface
    must pass `_interface_delaunay`, or the chart is refused.
    """
    off = np.zeros(len(points), dtype=bool)
    off[piece] = True
    off[iface] = False
    band_ids = np.flatnonzero(~off)
    logger.debug("Delaunay band: Qhull on %d of %d points", len(band_ids), len(points))
    band = _drop_pockets(band_ids[_qhull_triangles(points[band_ids])], iface, len(points))
    if not _interface_delaunay(points, iface, band, piece):
        raise AssemblyError("band and layout triangles fail the interface certificate")
    return np.concatenate([band, piece])


def _disk_boundary(grid: np.ndarray, blocks):
    """Boundary angles of a circle (a disk's, or a grid chart's row) whose arc
    sites pin `blocks` of it.

    `grid` holds the uniform circle's angles and `blocks` the (start, end, end
    spacing) of each arc site's span, whose nodes the site places.  Between
    blocks the uniform nodes stay, except within three steps of a block, where
    a graded fill runs from the block's end spacing to the uniform one.
    Returns the angles of the nodes outside the blocks, ascending from the
    first block's end.
    """
    n = len(grid)
    du = TWO_PI / n
    blocks = sorted(blocks)
    parts = []
    for i, (_, hi, h) in enumerate(blocks):
        nxt, _, h_nxt = blocks[(i + 1) % len(blocks)]
        nxt += TWO_PI if i + 1 == len(blocks) else 0.0
        ks = np.arange(math.ceil(hi / du + 3.0), math.floor(nxt / du - 3.0) + 1)
        if len(ks):
            parts += [_fill_graded(hi, ks[0] * du, h, du, du)[1:-1], grid[ks % n],
                      _fill_graded(ks[-1] * du, nxt, du, h_nxt, du)[1:-1]]
        else:
            parts.append(_fill_graded(hi, nxt, h, h_nxt, du)[1:-1])
    return np.concatenate(parts)


class _DiskLayout(NamedTuple):
    """The site-free disk's points, the boundary circle first, then the centre
    and the bulk rings, with the rest of their `_ring_delaunay` arguments."""
    points: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray


def _disk_layout(resolution: float, turn: float) -> _DiskLayout:
    """Uniform circle and concentric bulk rings, all turned by `turn`."""
    n_b = max(8, int(round(TWO_PI / resolution)))
    nr = max(3, int(round(1.0 / resolution)))
    i = np.arange(1, nr)  # the bulk rings, at radii i / nr
    n = np.maximum(6, np.round(TWO_PI * (i / nr) / resolution).astype(np.int64))
    offs = (i % 2) * math.pi / n
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)  # node k of its ring
    angles = np.repeat(offs, n) + TWO_PI * k / np.repeat(n, n) + turn
    bulk = np.repeat(i / nr, n)[:, None] * _unit(angles)
    circle = _unit(np.linspace(0.0, TWO_PI, n_b + 1)[:-1] + turn)
    counts = np.append(1, n)  # the centre, then the bulk rings
    return _DiskLayout(np.concatenate([circle, np.zeros((1, 2)), bulk]),
                       np.append(n_b + np.cumsum(counts) - counts, 0),
                       np.append(counts, n_b), np.concatenate([[turn], offs + turn, [turn]]))


def _layout_split(points: np.ndarray, layout_xy: np.ndarray, cells: np.ndarray,
                  actual: np.ndarray, exclusions, margin: float):
    """The site-free layout's Delaunay triangles that a chart with neck sites keeps.

    The layout is the vertices `layout_xy` and its Delaunay `cells`:
    triangles, or a grid's rectangles, whose cocircular corners are kept or
    dropped together, so that Qhull never splits a kept cell's tie the other
    way.  `actual` maps the layout's vertices to `points` (-1 where a site
    dropped them).  A vertex is clear when it is kept, lies more than `margin`
    beyond every patch's exclusion disk, and more than `margin` from every
    point a site placed off the layout.  The cells on clear vertices are kept,
    so Qhull sees only the sites' neighbourhoods, but not those with every
    corner on a dropped cell: Qhull would cover them, and might split their
    ties the other way.  Returns the triangles kept and the interface edges.
    """
    from scipy.spatial import cKDTree  # charts with sites call Qhull anyway
    clear = actual >= 0
    # points placed off the layout; those inside a patch lie beyond margin anyway
    fixed = np.delete(points, actual[clear], axis=0)
    for c, rr in exclusions:
        clear &= np.linalg.norm(layout_xy - c, axis=1) > rr + margin
        fixed = fixed[np.linalg.norm(fixed - c, axis=1) > rr]
    if len(fixed):  # only vertices in their bounding box, widened by margin, come near
        lo, hi = fixed.min(axis=0) - margin, fixed.max(axis=0) + margin
        ids = np.flatnonzero(clear & np.all((layout_xy >= lo) & (layout_xy <= hi), axis=1))
        clear[ids[cKDTree(fixed).query(layout_xy[ids])[0] <= margin]] = False
    kept = np.logical_and.reduce([clear[c] for c in cells.T])
    n = len(layout_xy)
    near = np.zeros(n, dtype=bool)  # only kept triangles on these meet a dropped one
    near[cells[~kept]] = True
    kept = np.tile(kept & ~np.logical_and.reduce([near[c] for c in cells.T]), cells.shape[1] - 2)
    tris = _fan(cells)
    dropped = tris.compress(~kept, axis=0)
    border = tris.compress(kept & np.logical_or.reduce([near[c] for c in tris.T]), axis=0)
    shared = np.intersect1d(_edge_keys(border, n), _edge_keys(dropped, n))
    return actual[tris.compress(kept, axis=0)], actual[np.stack([shared // n, shared % n], 1)]


def _sited_chart(layout: np.ndarray, cells: np.ndarray, rows, pinned: np.ndarray,
                 sites: Sequence[_Site], resolution: float, inside, margin: float):
    """Mesh a chart with neck sites from its site-free layout: vertices and
    Delaunay `cells` (`_layout_split`).

    Each of `rows` is a boundary row regraded by `_disk_boundary`: its layout
    ids, their angles, its new angles (each ascending) and points, placed
    first; a node stays where its angle does.  `pinned` layout nodes off the
    rows stay however near a site.  Returns the points, triangles, ids of each
    site's ring, and each layout vertex's point id (-1: dropped).
    """
    actual = np.full(len(layout), -1)
    on_rows = np.zeros(len(layout), dtype=bool)
    head = [np.zeros((0, 2))]
    for ids, theta, angles, pts in rows:
        at = np.minimum(np.searchsorted(angles, theta), len(angles) - 1)
        actual[ids] = np.where(angles[at] == theta, sum(map(len, head)) + at, -1)
        on_rows[ids] = True
        head.append(pts)
    points, background_ids, outer_ids, exclusions = _site_points(
        np.concatenate(head), layout[~on_rows], sites, resolution, inside, pinned[~on_rows])
    actual[~on_rows] = background_ids
    triangles = _band_delaunay(points, *_layout_split(points, layout, cells, actual,
                                                       exclusions, margin))
    for ids in outer_ids:  # cut each site open at its ring
        triangles = triangles[~np.isin(triangles, ids).all(axis=1)]
    return points, triangles, tuple(outer_ids), actual


def _disk_component(spec: UnitDisk, resolution: float, arc_sites: Sequence[ArcSite],
                    placed: Sequence[Placement], widths: Sequence[float]) -> Component:
    turn = _turn(spec, arc_sites)
    layout = _disk_layout(resolution, turn)
    n_b = layout.counts[-1]
    layout_tris = _ring_delaunay(*layout)
    if layout_tris is None:  # coarse rings, which the Delaunay triangulation skips
        layout_tris = _qhull_triangles(layout.points)
    no_pairs = np.zeros((0, 2), dtype=np.int64)  # the disk has no seam
    if not placed:
        return Component(layout.points, layout_tris, no_pairs, 1.0, (), ())
    sites, blocks = [], []
    for site, p, width in zip(arc_sites, placed, widths):  # chart angle = arclength
        arc = _arc_site(p, site.rho, width, resolution, _frame(site.theta, None), site.theta)
        sites.append(arc)
        mid = (site.theta - turn) % TWO_PI
        blocks.append((mid - p.size, mid + p.size, arc.h0))
    sites += [_hole_site(p, w, resolution)
              for p, w in zip(placed[len(arc_sites):], widths[len(arc_sites):])]
    circle = np.linspace(0.0, TWO_PI, n_b + 1)[:-1]
    angles = _disk_boundary(circle, blocks) if blocks else circle
    points, triangles, ids, _ = _sited_chart(
        layout.points, layout_tris, [(np.arange(n_b), circle, angles, _unit(angles + turn))],
        np.zeros(len(layout.points), dtype=bool), sites, resolution,
        lambda q, s: np.linalg.norm(q, axis=1) <= 1.0 - 0.45 * s,
        2.0 / (len(layout.counts) - 1))
    return Component(points, triangles, no_pairs, 1.0, ids, tuple(p.size for p in placed))


def build_disk_mesh(resolution: float) -> SurfaceMesh:
    """Unit-disk mesh with one boundary loop and lambda = 1."""
    return build_spec_mesh(UnitDisk(), resolution).mesh


# ---------------------------------------------------------------------------
# cylinder and Moebius band
# ---------------------------------------------------------------------------

def _grid_cells(n_rows: int, n_cols: int):
    """Cells (a, b, c, d), counterclockwise from the lower left, of a row-major
    node grid; returns (cells, idx)."""
    idx = np.arange(n_rows * n_cols).reshape(n_rows, n_cols)
    cells = np.stack([idx[:-1, :-1], idx[:-1, 1:], idx[1:, 1:], idx[1:, :-1]], axis=-1)
    return cells.reshape(-1, 4), idx


def _fan(cells: np.ndarray) -> np.ndarray:
    """Triangles (c_0, c_i, c_i+1) of convex cells, fan position first, then cell."""
    return np.concatenate([np.stack([cells[:, 0], cells[:, i], cells[:, i + 1]], axis=1)
                           for i in range(1, cells.shape[1] - 1)])


def _grid_component(spec, resolution: float, arc_sites: Sequence[ArcSite],
                    placed: Sequence[Placement], widths: Sequence[float]) -> Component:
    """Flat cylinder or Moebius band on the chart (theta, t) in [0, 2 pi] x [0, T].

    The layout is a uniform tensor grid, a plain chart's mesh.  The cylinder's
    loop 0 is its t = 0 row and loop 1 its t = T row; the Moebius band's one
    loop is its t = T row, and its t = 0 row the antipodal seam.  Grid indices
    give the identifications: the theta seam's (in t order), then the antipodal
    ones (in theta order).  `_sited_chart` keeps the seam columns and boundary
    rows, but for a row with arcs, graded as the disk's circle with the theta
    seam a block of its own, so an arc may not cross it.
    """
    T, density = spec.T, spec.boundary_density
    mobius = isinstance(spec, MobiusCylinder)
    if mobius:  # the antipodal map needs theta and theta + pi on the same grid
        half = np.linspace(0.0, math.pi, max(8, int(round(math.pi / resolution))) + 1)[:-1]
        theta = np.concatenate([half, half + math.pi, [TWO_PI]])
    else:
        theta = np.linspace(0.0, TWO_PI, max(8, int(round(TWO_PI / resolution))) + 1)
    t = np.linspace(0.0, T, max(2, int(round(T / resolution))) + 1)
    grid_th, grid_t = np.meshgrid(theta, t)
    base = np.stack([grid_th.ravel(), grid_t.ravel()], axis=1)  # chart x = theta, y = t
    cells, idx = _grid_cells(len(t), len(theta))
    pairs = idx[:, [0, -1]]  # the theta seam, then the Moebius band's antipodal row
    if mobius:
        pairs = np.concatenate([pairs, idx[0, :-1].reshape(2, -1).T])
    if not placed:
        return Component(base, _fan(cells), pairs, density, (), ())

    du = TWO_PI / (len(theta) - 1)
    sites, blocks = [], {}
    for site, p, width in zip(arc_sites, placed, widths):
        th, t0 = p.centre  # a site's (theta, t), t0 its boundary row
        inward = 1.0 if t0 == 0.0 else -1.0
        arc = _arc_site(p, site.rho / density, width, resolution, _frame(th, (t0, inward)),
                        -inward * 0.5 * math.pi)
        sites.append(arc)
        blocks.setdefault(t0, [(0.0, 0.0, du)]).append((th - p.size, th + p.size, arc.h0))
    sites += [_hole_site(p, w, resolution)
              for p, w in zip(placed[len(arc_sites):], widths[len(arc_sites):])]
    rows = []
    for t0, row_blocks in blocks.items():
        angles = np.concatenate([[0.0], _disk_boundary(theta[:-1], row_blocks), [TWO_PI]])
        rows.append((idx[t == t0][0], theta, angles,
                     np.stack([angles, np.full(len(angles), t0)], axis=1)))

    def inside(q, s):
        return ((q[:, 1] > 0.45 * s) & (q[:, 1] < T - 0.45 * s)
                & (q[:, 0] > 0.45 * s) & (q[:, 0] < TWO_PI - 0.45 * s))

    edge = np.zeros(len(base), dtype=bool)  # the pairs need the seam columns kept
    edge[idx[:, [0, -1]]] = edge[idx[[0, -1]]] = True
    points, triangles, ids, actual = _sited_chart(
        base, cells, rows, edge, sites, resolution, inside, 2.0 * max(du, t[1]))  # two grid steps
    return Component(points, triangles, actual[pairs], density, ids, tuple(p.size for p in placed))


def build_mobius_mesh(T: float, resolution: float = 0.05) -> SurfaceMesh:
    """Moebius band as [0, T] x S^1 with (0, theta) ~ (0, theta + pi), lambda = 1."""
    return build_spec_mesh(MobiusCylinder(T), resolution).mesh


MAX_MESH_VERTICES = 1_000_000  # 50x the finest mesh of any test, criterion or preset
# Cylinders and Moebius bands lower than 7e-5 (2.5e-4 at boundary density 0.01)
# failed their FEM solve at every resolution from 0.005 to 0.3.  The height
# decides, not the cell aspect resolution / T: the failing aspect fell from 4e3
# to 9e1 as the resolution went from 0.3 to 0.005.
MIN_CHART_HEIGHT = 1e-3


def check_mesh_budget(specs, resolution: float) -> None:
    """Refuse a resolution outside (0, 1), a cylinder or Moebius band lower
    than MIN_CHART_HEIGHT, or a resolution at which the site-free layouts of
    `specs` (disks, cylinders, Moebius bands) hold more than MAX_MESH_VERTICES
    logical vertices together, before any of them is built."""
    if not (0.0 < resolution < 1.0):
        raise InvalidParameterError("resolution must lie in (0, 1)")
    if any(0.0 < spec.T < MIN_CHART_HEIGHT for spec in specs if not isinstance(spec, UnitDisk)):
        raise InvalidParameterError(f"chart height T below {MIN_CHART_HEIGHT:g} is too low "
                                    f"to mesh and solve")
    n = sum(math.pi / resolution / resolution if isinstance(spec, UnitDisk)  # the rings
            else (spec.T / resolution + 1.0) * TWO_PI / resolution for spec in specs)
    if n > MAX_MESH_VERTICES:
        raise InvalidParameterError(f"about {n:.2g} mesh vertices at resolution {resolution}, "
                                    f"above the budget of {MAX_MESH_VERTICES:.0e}")


def _turn(spec, arc_sites: Sequence[ArcSite]) -> float:
    """The angle a chart's layout is turned by: a disk's puts its first arc on a
    circle node, so a disk with one arc meshes alike at every angle."""
    return arc_sites[0].theta if arc_sites and isinstance(spec, UnitDisk) else 0.0


def mesh_placed(spec, resolution: float, arc_sites: Sequence[ArcSite],
                placed: Sequence[Placement], widths: Sequence[float],
                built: dict | None = None) -> Component:
    """Mesh a chart from its `place_sites` placements; site i counts from `widths[i]`.

    `built`, kept across calls, meshes alike charts once: a chart whose arcs
    match a meshed one's relative to the turn (`_turn`), with equal widths and
    rims (and turn, since rims are not turned), takes that mesh, turned.
    """
    turn, built = _turn(spec, arc_sites), {} if built is None else built
    key = (spec, resolution, tuple(widths),
           tuple((a.loop, a.theta - turn, a.rho) for a in arc_sites),
           tuple((*p.centre, p.size, turn) for p in placed[len(arc_sites):]))
    if key not in built:
        build = _disk_component if isinstance(spec, UnitDisk) else _grid_component
        built[key] = (turn, build(spec, resolution, arc_sites, placed, widths))
    first, comp = built[key]
    if turn == first:
        return comp
    c, s = math.cos(turn - first), math.sin(turn - first)
    return replace(comp, vertices=comp.vertices @ np.array([[c, s], [-s, c]]))


def build_spec_mesh(spec, resolution: float, arc_sites: Sequence[ArcSite] = (),
                    hole_sites: Sequence[HoleSite] = ()) -> Component:
    """Component mesh for a non-glued metric description."""
    placed = place_sites(spec, arc_sites, hole_sites)  # refuses an unknown chart too
    check_mesh_budget([spec], resolution)
    return mesh_placed(spec, resolution, arc_sites, placed, [p.size for p in placed])


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
