"""Neck gluings between surface components.

Boundary necks are squares of physical side 2*rho whose two opposite sides are
identified node-for-node with boundary arcs of the components; the remaining
two sides become new boundary, so the total boundary length is unchanged.
Interior necks are thin flat cylinders (circumference 2*pi*rho, length 2*rho)
replacing a pair of removed disks, leaving the boundary untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, InvalidGluingError, InvalidParameterError
from .meshes import (ArcSite, Component, FlatCylinder, HoleSite, MobiusCylinder,
                     SurfaceMesh, UnitDisk, _grid_triangles, assemble_mesh,
                     build_spec_mesh, placed_rim_radius)

TWO_PI = 2.0 * math.pi

BOUNDARY_NECK = "boundary-square"
INTERIOR_NECK = "interior-cylinder"
NECK_SEGMENTS = 16  # segments along a boundary neck's arc and around an interior rim


@dataclass(frozen=True)
class Attachment:
    """Where a neck lands: a boundary point (loop, theta) or an interior chart point."""
    component: int
    loop: int = 0
    theta: float = 0.0
    point: tuple[float, float] | None = None

    @property
    def interior(self) -> bool:
        return self.point is not None


@dataclass(frozen=True)
class GluedFamily:
    """A rho-family of surfaces: components joined by necks of one kind."""
    components: tuple
    rho: float
    pairs: tuple[tuple[Attachment, Attachment], ...]
    neck_kind: str = BOUNDARY_NECK


MetricSpec = UnitDisk | FlatCylinder | MobiusCylinder | GluedFamily


def _density_at(spec, att: Attachment) -> float:
    if isinstance(spec, UnitDisk):
        if spec.conformal_factor_field is None:
            return 1.0
        if att.interior:
            return float(spec.conformal_factor_field(*att.point))
        return float(spec.conformal_factor_field(math.cos(att.theta), math.sin(att.theta)))
    if isinstance(spec, (FlatCylinder, MobiusCylinder)):
        return spec.boundary_density
    raise InvalidParameterError(f"cannot attach to {type(spec).__name__}")


def _check_boundary_clearance(family: GluedFamily) -> None:
    """rho must stay below a quarter of the smallest attachment-arc clearance."""
    by_loop: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for a, b in family.pairs:
        for att in (a, b):
            lam = _density_at(family.components[att.component], att)
            by_loop.setdefault((att.component, att.loop), []).append(
                (att.theta % TWO_PI, lam))
    clearance = math.inf
    for (_c, _l), entries in by_loop.items():
        if len(entries) == 1:
            clearance = min(clearance, TWO_PI * entries[0][1])
            continue
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                d = abs(entries[i][0] - entries[j][0])
                d = min(d, TWO_PI - d)
                clearance = min(clearance, d * min(entries[i][1], entries[j][1]))
    if not family.rho < clearance / 4.0:
        raise InvalidGluingError(
            f"rho={family.rho} exceeds a quarter of the attachment clearance {clearance}")


def _check_interior_clearance(family: GluedFamily) -> None:
    by_comp: dict[int, list[tuple[np.ndarray, float]]] = {}
    for a, b in family.pairs:
        for att in (a, b):
            if not att.interior:
                raise InvalidParameterError("interior gluing needs interior attachment points")
            lam = _density_at(family.components[att.component], att)
            by_comp.setdefault(att.component, []).append(
                (np.asarray(att.point, float), lam))
    for comp, entries in by_comp.items():
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                pi, li = entries[i]
                pj, lj = entries[j]
                r_i = placed_rim_radius(family.rho / li)
                r_j = placed_rim_radius(family.rho / lj)
                if np.linalg.norm(pi - pj) <= 4.0 * (r_i + r_j):
                    raise InvalidGluingError("interior neck disks too close together")


# ---------------------------------------------------------------------------
# mesh-level assembly
# ---------------------------------------------------------------------------

class _Builder:
    """Accumulates chart pieces, identifications and tags; assembles once at the end."""

    def __init__(self):
        self.points: list[np.ndarray] = []
        self.triangles: list[np.ndarray] = []
        self.idents: list[np.ndarray] = []
        self.lam: list[np.ndarray] = []
        self.tags: dict[str, list[int]] = {}
        self.offset = 0
        self.x_cursor = 0.0

    def add(self, points: np.ndarray, triangles: np.ndarray, lam: np.ndarray,
            identifications: np.ndarray = (),
            tag_ids: dict[str, np.ndarray] | None = None) -> int:
        """Place a chart piece right of the previous ones; returns its first chart id."""
        shift = np.array([self.x_cursor - points[:, 0].min(), 0.0])
        self.points.append(points + shift)
        self.triangles.append(triangles + self.offset)
        if len(identifications):
            self.idents.append(identifications + self.offset)
        self.lam.append(lam)
        base = self.offset
        if tag_ids:
            for name, ids in tag_ids.items():
                self.tags.setdefault(name, []).extend(int(i) + base for i in ids)
        self.offset += len(points)
        self.x_cursor += (points[:, 0].max() - points[:, 0].min()) + 2.0
        return base

    def add_component(self, comp: Component) -> int:
        return self.add(comp.vertices, comp.triangles, comp.conformal_chart,
                        comp.identifications)

    def identify(self, pairs: np.ndarray) -> None:
        self.idents.append(np.asarray(pairs, dtype=np.int64))

    def finish(self) -> SurfaceMesh:
        idents = (np.concatenate(self.idents) if self.idents
                  else np.zeros((0, 2), dtype=np.int64))
        return assemble_mesh(np.concatenate(self.points),
                             np.concatenate(self.triangles),
                             idents,
                             np.concatenate(self.lam),
                             tags_chart={k: v for k, v in self.tags.items()})


def _graded_strip(rho: float, lam1: float, lam2: float, rows: int, cols: int,
                  width: float, y0: float):
    """Chart grid of a neck of physical length 2*rho and physical width `width`.

    The density runs linearly from lam1 (row 0) to lam2 (row `rows`); each row
    spans `width` physically in `cols` steps, from y0 * (its chart width).
    Returns (points, triangles, lam, idx) with idx[row, col] the node ids.
    """
    lam_mid = lam1 + (lam2 - lam1) * (np.arange(rows) + 0.5) / rows
    xs = np.concatenate([[0.0], np.cumsum((2.0 * rho / rows) / lam_mid)])
    rows_lam = lam1 + (lam2 - lam1) * np.arange(rows + 1) / rows
    chart_width = width / rows_lam
    lo = y0 * chart_width
    ys = np.linspace(lo, lo + chart_width, cols + 1, axis=1)
    pts = np.stack([np.repeat(xs, cols + 1), ys.ravel()], axis=1)
    tris, idx = _grid_triangles(rows + 1, cols + 1)
    return pts, tris, np.repeat(rows_lam, cols + 1), idx


def _find_interface(comp: Component, att: Attachment):
    for iface in comp.interfaces:
        site = iface.site
        if att.interior and isinstance(site, HoleSite):
            if np.allclose(site.point, att.point):
                return iface
        elif not att.interior and isinstance(site, ArcSite):
            if site.loop == att.loop and math.isclose(site.theta, att.theta):
                return iface
    raise AssemblyError("component was not prepared with the requested attachment")


def glue_boundary(components: list[Component], family: GluedFamily) -> SurfaceMesh:
    """Join prepared components with square boundary necks (node-matched)."""
    builder = _Builder()
    bases = [builder.add_component(c) for c in components]
    m = NECK_SEGMENTS
    for a, b in family.pairs:
        if a.interior or b.interior:
            raise InvalidParameterError("boundary gluing needs boundary attachments")
        if_a = _find_interface(components[a.component], a)
        if_b = _find_interface(components[b.component], b)
        for iface in (if_a, if_b):
            if len(iface.chart_ids) != m + 1:
                raise AssemblyError("attachment arc discretization does not match the neck")
        # a square: side 2*rho both ways, centred on the arc
        pts, tris, lam, idx = _graded_strip(family.rho, if_a.lam, if_b.lam, m, m,
                                            2.0 * family.rho, -0.5)
        side = np.concatenate([idx[:, 0], idx[:, m]])
        base = builder.add(pts, tris, lam, tag_ids={"neck_boundary": side})
        ids_a = if_a.chart_ids + bases[a.component]
        ids_b = if_b.chart_ids + bases[b.component]
        row0 = idx[0] + base
        rowN = idx[m] + base
        builder.identify(np.stack([ids_a, row0], axis=1))
        builder.identify(np.stack([ids_b, rowN[::-1]], axis=1))
    return builder.finish()


def glue_interior(components: list[Component], family: GluedFamily) -> SurfaceMesh:
    """Join prepared components with interior cylinder necks; boundary unchanged."""
    builder = _Builder()
    bases = [builder.add_component(c) for c in components]
    m = NECK_SEGMENTS
    for a, b in family.pairs:
        if not (a.interior and b.interior):
            raise InvalidParameterError("interior gluing needs interior attachments")
        if_a = _find_interface(components[a.component], a)
        if_b = _find_interface(components[b.component], b)
        for iface in (if_a, if_b):
            if len(iface.chart_ids) != m:
                raise AssemblyError("rim discretization does not match the neck")
        # a tube: circumference 2*pi*rho, seam at columns 0 and m
        n_len = max(2, int(round(m / math.pi)))
        pts, tris, lam, idx = _graded_strip(family.rho, if_a.lam, if_b.lam, n_len, m,
                                            TWO_PI * family.rho, 0.0)
        base = builder.add(pts, tris, lam)
        builder.identify(np.stack([idx[:, 0] + base, idx[:, m] + base], axis=1))
        ids_a = if_a.chart_ids + bases[a.component]
        ids_b = if_b.chart_ids + bases[b.component]
        row0 = idx[0, :m] + base
        rowN = idx[n_len, :m] + base
        builder.identify(np.stack([ids_a, row0], axis=1))
        reflect = (m - np.arange(m)) % m
        builder.identify(np.stack([ids_b[reflect], rowN], axis=1))
    return builder.finish()


# ---------------------------------------------------------------------------
# family driver
# ---------------------------------------------------------------------------

def prepare_components(family: GluedFamily, resolution: float) -> list[Component]:
    """Mesh each component with the neck sites of the family's attachments."""
    if family.rho <= 0:
        raise InvalidParameterError("neck parameter rho must be positive")
    if family.neck_kind == BOUNDARY_NECK:
        _check_boundary_clearance(family)
    elif family.neck_kind == INTERIOR_NECK:
        _check_interior_clearance(family)
    else:
        raise InvalidParameterError(f"unknown neck kind {family.neck_kind!r}")
    arc_sites: dict[int, list[ArcSite]] = {i: [] for i in range(len(family.components))}
    hole_sites: dict[int, list[HoleSite]] = {i: [] for i in range(len(family.components))}
    for a, b in family.pairs:
        for att in (a, b):
            if att.interior:
                hole_sites[att.component].append(
                    HoleSite(tuple(att.point), family.rho, NECK_SEGMENTS))
            else:
                arc_sites[att.component].append(
                    ArcSite(att.loop, att.theta, family.rho, NECK_SEGMENTS))
    built: dict = {}  # equal specs with equal sites mesh identically: build each once
    comps = []
    for i, spec in enumerate(family.components):
        key = (spec, tuple(arc_sites[i]), tuple(hole_sites[i]))
        if key not in built:
            built[key] = build_spec_mesh(spec, resolution, key[1], key[2])
        comps.append(built[key])
    return comps


def build_glued_mesh(family: GluedFamily, resolution: float) -> SurfaceMesh:
    comps = prepare_components(family, resolution)
    if family.neck_kind == BOUNDARY_NECK:
        return glue_boundary(comps, family)
    return glue_interior(comps, family)


def build_metric_mesh(spec: MetricSpec, resolution: float) -> SurfaceMesh:
    """Mesh any metric description, glued families included."""
    if isinstance(spec, GluedFamily):
        return build_glued_mesh(spec, resolution)
    return build_spec_mesh(spec, resolution).mesh
