"""Neck gluings between surface components.

Boundary necks are squares of physical side 2*rho whose two opposite sides are
identified node-for-node with boundary arcs of the components; the remaining
two sides become new boundary, so the total boundary length is unchanged.
Interior necks, tubes of circumference 2*pi*rho and length 2*rho between two
removed disks, are one flat chart with their collars (`_neck_chart`).

`prepare_components` checks the neck kind, has `meshes.place_sites` place
each component's sites once (every refusal comes before any chart is meshed),
gives both rims of an interior neck one segment count, and meshes each
component from its placements (`meshes.mesh_placed`), one interface per site
in site order.  `glue` joins all necks in one pass, taking each attachment's
interface by that position, and assembles the glued mesh once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, InvalidParameterError
from .meshes import (NECK_SEGMENTS, ArcSite, Component, HoleSite, SurfaceMesh, _fan,
                     _fill_graded, _grid_cells, assemble_mesh,
                     check_mesh_budget, mesh_placed, place_sites)
from .meshes import build_spec_mesh  # noqa: F401 -- a binding bench/tracer.py wraps

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

def _square(rho: float, lam1: float, lam2: float, m: int):
    """A boundary neck's rows, row nodes and row densities: a square of physical
    side 2*rho, m cells each way, its density linear from lam1 to lam2."""
    lam_mid = lam1 + (lam2 - lam1) * (np.arange(m) + 0.5) / m
    xs = np.concatenate([[0.0], np.cumsum((2.0 * rho / m) / lam_mid)])
    rows_lam = lam1 + (lam2 - lam1) * np.arange(m + 1) / m
    return xs, np.linspace(-rho / rows_lam, rho / rows_lam, m + 1, axis=1), rows_lam


def _neck_chart(rho: float, rings, lams):
    """An interior neck's rows, row nodes and row densities: one flat chart
    [0, H] x S^1 with a column per rim segment, m of them.

    The Dirichlet energy sees only angles.  Around a rim of chart radius R (read
    off its ring) on a chart of density lam, rho < |z - p| < R lam is the flat
    cylinder [0, log(R lam) - log(rho)] x S^1 (logs apart: no ratio overflows),
    and the tube scaled by 1 / rho is [0, 2] x S^1; H sums the three.  Rows
    grow by a factor 1 + pi / m per step from 2 pi / m at both ends."""
    m = len(rings[0])
    du = TWO_PI / m
    H = 2.0 + sum(math.log(np.linalg.norm(r[1] - r[0]) / (2.0 * math.sin(math.pi / m)) * lam)
                  - math.log(rho) for r, lam in zip(rings, lams))
    s = _fill_graded(0.0, H, du, du, H, growth=0.5 * du)
    return s, np.tile(np.linspace(0.0, TWO_PI, m + 1), (len(s), 1)), np.interp(s, [0.0, H], lams)


def glue(components: list[Component], family: GluedFamily) -> SurfaceMesh:
    """Join prepared components with the family's necks and assemble the result once.

    Component i's interfaces are taken in the order `prepare_components` gave
    its sites: pair by pair, the first attachment of a pair before the second.
    Each neck end takes the boundary density of its end's component.
    """
    pieces = [c.vertices for c in components]
    offsets = np.cumsum([0] + [len(p) for p in pieces])
    triangles = [c.triangles + o for c, o in zip(components, offsets)]
    idents = [c.identifications + o for c, o in zip(components, offsets)]
    lam = [np.full(len(c.vertices), c.density) for c in components]
    wanted = np.bincount([att.component for pair in family.pairs for att in pair],
                         minlength=len(components))
    if wanted.tolist() != [len(c.interfaces) for c in components]:
        raise AssemblyError("components were not prepared for this family")
    unused = [iter(c.interfaces) for c in components]
    sides = []
    n = int(offsets[-1])
    for a, b in family.pairs:
        ca, cb = components[a.component], components[b.component]
        ring_a, ring_b = next(unused[a.component]), next(unused[b.component])
        ids_a, ids_b = ring_a + offsets[a.component], ring_b + offsets[b.component]
        if family.neck_kind == BOUNDARY_NECK:
            xs, ys, rows_lam = _square(family.rho, ca.density, cb.density, NECK_SEGMENTS)
        elif len(ids_a) != len(ids_b):
            raise AssemblyError("the two rims of an interior neck differ in segments")
        else:
            xs, ys, rows_lam = _neck_chart(family.rho, (ca.vertices[ring_a], cb.vertices[ring_b]),
                                           (ca.density, cb.density))
        cells, idx = _grid_cells(*ys.shape)
        idx = idx + n
        k = ys.shape[1] - 1
        if family.neck_kind == BOUNDARY_NECK:  # sides 0 and k become boundary
            sides.append(np.concatenate([idx[:, 0], idx[:, k]]))
            idents += [np.stack([ids_a, idx[0]], axis=1),
                       np.stack([ids_b, idx[-1, ::-1]], axis=1)]
        else:  # the seam at columns 0 and k
            reflect = (k - np.arange(k)) % k
            idents += [np.stack([idx[:, 0], idx[:, k]], axis=1),
                       np.stack([ids_a, idx[0, :k]], axis=1),
                       np.stack([ids_b[reflect], idx[-1, :k]], axis=1)]
        pieces.append(np.stack([np.repeat(xs, k + 1), ys.ravel()], axis=1))
        triangles.append(_fan(cells) + n)
        lam.append(np.repeat(rows_lam, k + 1))
        n += len(pieces[-1])
    return assemble_mesh(np.concatenate(pieces), np.concatenate(triangles),
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
    placed = [place_sites(spec, *s) for spec, s in zip(family.components, sites)]
    check_mesh_budget(family.components, resolution)  # both refuse before any meshing
    widths = [[] for _ in family.components]  # both rims of a neck count from the wider
    unused = [iter(p) for p in placed]
    for pair in family.pairs if interior else ():
        width = max(next(unused[att.component]).size for att in pair)
        for att in pair:
            widths[att.component].append(width)
    built: dict = {}  # equal specs with equal sites mesh identically: build each once
    comps = []
    for spec, (arcs, holes), at, w in zip(family.components, sites, placed, widths):
        key = (spec, tuple(arcs), tuple(holes), tuple(w))
        if key not in built:
            built[key] = mesh_placed(spec, resolution, arcs, at, w)
        comps.append(built[key])
    return comps


def build_glued_mesh(family: GluedFamily, resolution: float) -> SurfaceMesh:
    return glue(prepare_components(family, resolution), family)
