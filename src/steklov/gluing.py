"""Neck gluings between surface components.

Boundary necks are squares of physical side 2*rho whose two opposite sides are
identified node-for-node with boundary arcs of the components; the remaining
two sides become new boundary, so the total boundary length is unchanged.
Interior necks are thin flat cylinders (circumference 2*pi*rho, length 2*rho)
replacing a pair of removed disks, leaving the boundary untouched.

`prepare_components` checks the neck kind and has `meshes.place_sites` place
every component's sites, which makes every refusal before any chart is
meshed.  It then meshes each component with one neck site per attachment;
every mesh builder returns one interface per site, in site order.  `glue`
joins all necks in one pass, taking each attachment's interface by that
position, and assembles the glued mesh once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, InvalidParameterError
from .meshes import (NECK_SEGMENTS, ArcSite, Component, HoleSite, SurfaceMesh, _fan,
                     _grid_cells, assemble_mesh, build_spec_mesh, check_mesh_budget,
                     place_sites)

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
    sites = [([], []) for _ in family.components]  # (arcs, holes) of each component
    for pair in family.pairs:
        for att in pair:
            arcs, holes = sites[att.component]
            if interior:
                holes.append(HoleSite(tuple(att.point), family.rho))
            else:
                arcs.append(ArcSite(att.loop, att.theta, family.rho))
    for spec, (arcs, holes) in zip(family.components, sites):
        place_sites(spec, arcs, holes)  # every refusal comes before any chart is meshed
    check_mesh_budget(family.components, resolution)
    built: dict = {}  # equal specs with equal sites mesh identically: build each once
    comps = []
    for spec, (arcs, holes) in zip(family.components, sites):
        key = (spec, tuple(arcs), tuple(holes))
        if key not in built:
            built[key] = build_spec_mesh(spec, resolution, *key[1:])
        comps.append(built[key])
    return comps


def build_glued_mesh(family: GluedFamily, resolution: float) -> SurfaceMesh:
    return glue(prepare_components(family, resolution), family)
