"""Neck gluings between surface components.

Boundary necks are squares of physical side 2*rho whose two opposite sides are
glued to boundary arcs of the components; the remaining two sides become new
boundary, so the total boundary length is unchanged.  Each arc reaches its
component through one flat collar chart (`_collar`).  Interior necks, tubes of
circumference 2*pi*rho and length 2*rho between two removed disks, are one
flat chart with their collars (`_neck_chart`).  So rho reaches a neck only
through its charts' heights and boundary densities: a square's sides carry rho
and a collar's sides rho sinh(mu), on their own chart vertices.

`prepare_components` checks the neck kind, has `meshes.place_sites` place
each component's sites once (every refusal comes before any chart is meshed),
gives both ends of a neck one segment count, and meshes each component from
its placements (`meshes.mesh_placed`), one interface per site in site order.
Alike components are meshed once: a disk whose sites match a meshed disk's up
to the turn of its layout takes that mesh, turned (`mesh_placed`).
`glue` joins all necks in one pass, taking each attachment's interface by that
position, and assembles the glued mesh once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, InvalidParameterError
from .meshes import (ArcSite, Component, HoleSite, SurfaceMesh, _fan, _fill_graded,
                     _grid_cells, _arc_angles, assemble_mesh, check_mesh_budget, mesh_placed,
                     place_sites)
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

def _collar(rho: float, lam: float, R: float, nu: np.ndarray):
    """A boundary arc's collar, one flat chart [0, mu_R] x [0, pi] with w = rho /
    lam and cosh(mu_R) = R / w: rows mu, row nodes nu and row densities.

    The Dirichlet energy sees only angles, and z = -w cosh(mu - i nu) maps the
    chart onto the region between the arc (mu = 0) and its site's half-ellipse
    (`meshes._arc_site`).  The sides nu = 0, pi lie on the boundary, where a
    row's density is the mean of rho sinh(mu) over its half of each next step,
    rho sinh(c) sinh(d) / d on c +- d: the sides' length lam (R - w) is exact.
    mu_R = log(R + sqrt(R^2 - w^2)) - log(w) overflows nowhere.  Rows grow by a
    factor 1 + pi / (2 m) per step from pi / m at both ends, m the segments."""
    du, log_rho = math.pi / (len(nu) - 1), math.log(rho)
    mu_R = math.log(R + math.sqrt((R - rho / lam) * (R + rho / lam))) - log_rho + math.log(lam)
    mu = _fill_graded(0.0, mu_R, du, du, mu_R, growth=0.5 * du)
    ends = np.concatenate([[0.0], 0.5 * (mu[1:] + mu[:-1]), [mu_R]])
    c, d = 0.5 * (ends[1:] + ends[:-1]), 0.5 * np.diff(ends)
    density = 0.5 * (np.exp(log_rho + c) - np.exp(log_rho - c)) * np.sinh(d) / d
    return mu, np.tile(nu, (len(mu), 1)), density


def _neck_chart(rho: float, rings, lams):
    """An interior neck's rows and row nodes: one flat chart [0, H] x S^1 with a
    column per rim segment, m of them.

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
    return s, np.tile(np.linspace(0.0, TWO_PI, m + 1), (len(s), 1))


def glue(components: list[Component], family: GluedFamily) -> SurfaceMesh:
    """Join prepared components with the family's necks and assemble the result once.

    Component i's interfaces are taken in the order `prepare_components` gave
    its sites: pair by pair, the first attachment of a pair before the second.
    Each neck end takes the boundary density of its end's component.  A
    boundary neck's square is the chart [0, 2] x [-1, 1] of density rho, graded
    as 1 - cos to its corners, with ceil((m + 1) / 2) + 1 rows for the m + 1
    columns; its column at -cos(nu) meets the arc at -w cos(nu), through the
    arc's collar unless R = w.
    """
    pieces = [c.vertices for c in components]
    offsets = np.cumsum([0] + [len(p) for p in pieces])
    triangles = [c.triangles + o for c, o in zip(components, offsets)]
    idents = [c.identifications + o for c, o in zip(components, offsets)]
    density = [np.full(len(c.vertices), c.density) for c in components]
    wanted = np.bincount([att.component for pair in family.pairs for att in pair],
                         minlength=len(components))
    if wanted.tolist() != [len(c.interfaces) for c in components]:
        raise AssemblyError("components were not prepared for this family")
    unused = [iter(zip(c.interfaces, c.sizes)) for c in components]
    sides = []

    def chart(rows, nodes, rows_density):
        """Add the neck chart with nodes (rows[i], nodes[i, j]) and each row's
        boundary density (or one for all); its chart ids."""
        cells, idx = _grid_cells(*nodes.shape)
        idx += sum(map(len, pieces))
        pieces.append(np.stack([np.repeat(rows, nodes.shape[1]), nodes.ravel()], axis=1))
        triangles.append(_fan(cells) + idx[0, 0])
        density.append(np.repeat(np.broadcast_to(rows_density, rows.shape), nodes.shape[1]))
        return idx

    for pair in family.pairs:
        ends = [(components[att.component], *next(unused[att.component]), offsets[att.component])
                for att in pair]
        (ca, ring_a, _, off_a), (cb, ring_b, _, off_b) = ends
        if len(ring_a) != len(ring_b):
            raise AssemblyError("the two ends of a neck differ in segments")
        if family.neck_kind == INTERIOR_NECK:
            idx = chart(*_neck_chart(family.rho, (ca.vertices[ring_a], cb.vertices[ring_b]),
                                     (ca.density, cb.density)), 1.0)  # no boundary to read it
            k = len(ring_a)
            reflect = (k - np.arange(k)) % k  # the seam at columns 0 and k
            idents += [np.stack([idx[:, 0], idx[:, k]], axis=1),
                       np.stack([ring_a + off_a, idx[0, :k]], axis=1),
                       np.stack([ring_b[reflect] + off_b, idx[-1, :k]], axis=1)]
            continue
        arcs = []
        for comp, ring, R, offset in ends:
            nu, ids = _arc_angles(R, family.rho / comp.density, len(ring) - 1), ring + offset
            if R > family.rho / comp.density:  # a collar between the site's ring and the arc
                idx = chart(*_collar(family.rho, comp.density, R, nu))
                idents.append(np.stack([ids, idx[-1]], axis=1))
                ids = idx[0]
            arcs.append((ids, -np.cos(nu)))
        (ids_a, y_a), (ids_b, y_b) = arcs
        x = 1.0 - np.cos(np.linspace(0.0, math.pi, (len(y_a) + 1) // 2 + 1))
        idx = chart(x, np.linspace(y_a, y_b, len(x)), family.rho)
        sides.append(np.concatenate([idx[:, 0], idx[:, -1]]))  # they become boundary
        idents += [np.stack([ids_a, idx[0]], axis=1), np.stack([ids_b, idx[-1, ::-1]], axis=1)]
    return assemble_mesh(np.concatenate(pieces), np.concatenate(triangles),
                         np.concatenate(idents), np.concatenate(density),
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
    widths = [[] for _ in family.components]  # both ends of a neck count from the wider
    unused = [iter(p) for p in placed]
    for pair in family.pairs:
        width = max(next(unused[att.component]).size for att in pair)
        for att in pair:
            widths[att.component].append(width)
    built: dict = {}  # alike components are meshed once (`mesh_placed`)
    return [mesh_placed(spec, resolution, arcs, at, w, built)
            for spec, (arcs, _), at, w in zip(family.components, sites, placed, widths)]


def build_glued_mesh(family: GluedFamily, resolution: float) -> SurfaceMesh:
    return glue(prepare_components(family, resolution), family)
