"""Neck gluings between surface components.

Boundary necks are squares of physical side 2*rho whose two opposite sides are
identified node-for-node with boundary arcs of the components; the remaining
two sides become new boundary, so the total boundary length is unchanged.
Interior necks are thin flat cylinders (circumference 2*pi*rho, length 2*rho)
replacing a pair of removed disks, leaving the boundary untouched.

`prepare_components` checks the family and meshes each component with one
neck site per attachment; every mesh builder returns one interface per site,
in site order.  `glue` joins all necks in one pass, taking each attachment's
interface by that position, and assembles the glued mesh once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, InvalidGluingError, InvalidParameterError
from .meshes import (NECK_SEGMENTS, ArcSite, Component, FlatCylinder, HoleSite,
                     MobiusCylinder, SurfaceMesh, UnitDisk, _fan, _grid_cells,
                     arc_collar, assemble_mesh, build_spec_mesh, placed_rim_radius)

TWO_PI = 2.0 * math.pi

BOUNDARY_NECK = "boundary-square"
INTERIOR_NECK = "interior-cylinder"


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
    """rho must stay below a quarter of the smallest attachment-arc clearance,
    and no arc's span on a cylinder or Moebius band may cross its theta seam."""
    by_loop: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for a, b in family.pairs:
        for att in (a, b):
            spec = family.components[att.component]
            lam = _density_at(spec, att)
            theta = att.theta % TWO_PI
            if isinstance(spec, (FlatCylinder, MobiusCylinder)):
                span = arc_collar(family.rho / lam)[1]
                if theta - span <= 0.0 or theta + span >= TWO_PI:
                    raise InvalidGluingError(
                        f"boundary neck arc at theta={att.theta} crosses the chart seam")
            by_loop.setdefault((att.component, att.loop), []).append((theta, lam))
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
    cells, idx = _grid_cells(rows + 1, cols + 1)
    return pts, _fan(cells), np.repeat(rows_lam, cols + 1), idx


def glue(components: list[Component], family: GluedFamily) -> SurfaceMesh:
    """Join prepared components with the family's necks and assemble the result once.

    Component i's interfaces are taken in the order `prepare_components` gave
    its sites: pair by pair, the first attachment of a pair before the second.
    Charts and necks are placed side by side, left to right.
    """
    m = NECK_SEGMENTS
    pieces = [c.vertices for c in components]
    offsets = np.cumsum([0] + [len(p) for p in pieces])
    triangles = [c.triangles + o for c, o in zip(components, offsets)]
    idents = [c.identifications + o for c, o in zip(components, offsets)]
    lam = [c.conformal_chart for c in components]
    wanted = np.bincount([att.component for pair in family.pairs for att in pair],
                         minlength=len(components))
    if wanted.tolist() != [len(c.interfaces) for c in components]:
        raise AssemblyError("components were not prepared for this family")
    unused = [iter(c.interfaces) for c in components]
    sides = []
    n = int(offsets[-1])
    for a, b in family.pairs:
        if_a, if_b = next(unused[a.component]), next(unused[b.component])
        ids_a = if_a.chart_ids + offsets[a.component]
        ids_b = if_b.chart_ids + offsets[b.component]
        if family.neck_kind == BOUNDARY_NECK:
            # a square: side 2*rho both ways, centred on the arc
            pts, tris, lam_neck, idx = _graded_strip(family.rho, if_a.lam, if_b.lam, m, m,
                                                     2.0 * family.rho, -0.5)
            idx = idx + n
            sides.append(np.concatenate([idx[:, 0], idx[:, m]]))
            idents += [np.stack([ids_a, idx[0]], axis=1),
                       np.stack([ids_b, idx[m, ::-1]], axis=1)]
        else:
            # a tube: circumference 2*pi*rho, seam at columns 0 and m
            rows = max(2, int(round(m / math.pi)))
            pts, tris, lam_neck, idx = _graded_strip(family.rho, if_a.lam, if_b.lam, rows, m,
                                                     TWO_PI * family.rho, 0.0)
            idx = idx + n
            reflect = (m - np.arange(m)) % m
            idents += [np.stack([idx[:, 0], idx[:, m]], axis=1),
                       np.stack([ids_a, idx[0, :m]], axis=1),
                       np.stack([ids_b[reflect], idx[rows, :m]], axis=1)]
        pieces.append(pts)
        triangles.append(tris + n)
        lam.append(lam_neck)
        n += len(pts)
    x_cursor, placed = 0.0, []
    for pts in pieces:
        placed.append(pts + np.array([x_cursor - pts[:, 0].min(), 0.0]))
        x_cursor += (pts[:, 0].max() - pts[:, 0].min()) + 2.0
    return assemble_mesh(np.concatenate(placed), np.concatenate(triangles),
                         np.concatenate(idents), np.concatenate(lam),
                         tags_chart={"neck_boundary": np.concatenate(sides)} if sides else {})


# ---------------------------------------------------------------------------
# family driver
# ---------------------------------------------------------------------------

def prepare_components(family: GluedFamily, resolution: float) -> list[Component]:
    """Mesh each component with one neck site per attachment, in pair order."""
    if family.rho <= 0:
        raise InvalidParameterError("neck parameter rho must be positive")
    if family.neck_kind not in (BOUNDARY_NECK, INTERIOR_NECK):
        raise InvalidParameterError(f"unknown neck kind {family.neck_kind!r}")
    interior = family.neck_kind == INTERIOR_NECK
    if any(att.interior != interior for pair in family.pairs for att in pair):
        where = "interior" if interior else "boundary"
        raise InvalidParameterError(f"{family.neck_kind} necks need {where} attachments")
    if interior:
        _check_interior_clearance(family)
    else:
        _check_boundary_clearance(family)
    sites: list[list] = [[] for _ in family.components]
    for pair in family.pairs:
        for att in pair:
            sites[att.component].append(
                HoleSite(tuple(att.point), family.rho) if interior
                else ArcSite(att.loop, att.theta, family.rho))
    built: dict = {}  # equal specs with equal sites mesh identically: build each once
    comps = []
    for spec, own in zip(family.components, sites):
        key = (spec, tuple(own))
        if key not in built:
            built[key] = (build_spec_mesh(spec, resolution, (), key[1]) if interior
                          else build_spec_mesh(spec, resolution, key[1]))
        comps.append(built[key])
    return comps


def build_glued_mesh(family: GluedFamily, resolution: float) -> SurfaceMesh:
    return glue(prepare_components(family, resolution), family)


def build_metric_mesh(spec: MetricSpec, resolution: float) -> SurfaceMesh:
    """Mesh any metric description, glued families included."""
    if isinstance(spec, GluedFamily):
        return build_glued_mesh(spec, resolution)
    return build_spec_mesh(spec, resolution).mesh
