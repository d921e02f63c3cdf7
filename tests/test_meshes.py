import hashlib
import logging
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import steklov as sk
from steklov import meshes
from steklov.experiments import annulus_self_glued, chain_family
from steklov.meshes import (COLLAR_RADIUS, NECK_SEGMENTS, ArcSite, _fill_graded,
                            _ring_delaunay, assemble_mesh)
from test_dtn import corner_block_stiffness
from test_gluing import TIED_CELLS_CHAIN

TWO_PI = 2 * math.pi


class TestDisk:
    def test_boundary_length(self, disk_mesh):
        assert sk.boundary_length(disk_mesh) == pytest.approx(TWO_PI, rel=5e-3)
        assert len(disk_mesh.boundary_loops) == 1
        assert sk.euler_characteristic(disk_mesh) == 1

    def test_refinement_shrinks_polygon_gap(self, disk_mesh, coarse_disk_mesh):
        gap_fine = TWO_PI - sk.boundary_length(disk_mesh)
        gap_coarse = TWO_PI - sk.boundary_length(coarse_disk_mesh)
        assert 0 < gap_fine < gap_coarse
        # inscribed-polygon error is quadratic in the spacing
        assert gap_fine < 0.35 * gap_coarse

    def test_validate_clean(self, disk_mesh):
        assert sk.validate_mesh(disk_mesh) == []

    def test_unit_conformal_factor(self, disk_mesh):
        assert np.all(disk_mesh.conformal_factor == 1.0)

    def test_invalid_resolution(self):
        with pytest.raises(sk.InvalidParameterError):
            sk.build_disk_mesh(0.0)
        with pytest.raises(sk.InvalidParameterError):
            sk.build_disk_mesh(-0.1)
        with pytest.raises(sk.InvalidParameterError):
            sk.build_disk_mesh(1.5)
        # every surface shares the check, whichever builder it goes through
        with pytest.raises(sk.InvalidParameterError):
            sk.build_spec_mesh(sk.UnitDisk(), 1.5)
        with pytest.raises(sk.InvalidParameterError):
            sk.build_spec_mesh(sk.FlatCylinder(1.0, 1.0), 0.0).mesh
        with pytest.raises(sk.InvalidParameterError):
            sk.build_mobius_mesh(1.0, float("nan"))


SITE_FREE_RESOLUTIONS = [0.2, 0.1, 0.05, 0.03, 0.02, math.sqrt(math.pi / 2e4)]


def _site_free_disk_points(resolution, turn=0.0):
    """The site-free disk's point layout, ring by ring: boundary circle, centre,
    bulk rings, every ring turned by `turn`."""
    n = max(8, int(round(TWO_PI / resolution)))
    angles = np.linspace(0.0, TWO_PI, n + 1)[:-1] + turn
    points = [np.stack([np.cos(angles), np.sin(angles)], axis=1), np.zeros((1, 2))]
    nr = max(3, int(round(1.0 / resolution)))
    for i in range(1, nr):
        r = i / nr
        m = max(6, int(round(TWO_PI * r / resolution)))
        ang = (i % 2) * math.pi / m + TWO_PI * np.arange(m) / m + turn
        points.append(r * np.stack([np.cos(ang), np.sin(ang)], axis=1))
    return np.concatenate(points), n


def _qhull_stiffness(vertices):
    from scipy.spatial import Delaunay
    mesh = assemble_mesh(vertices, Delaunay(vertices).simplices, [], np.ones(len(vertices)))
    return sk.assemble_stiffness(mesh)


class TestRingDelaunayDisk:
    """Site-free disks are triangulated by merging rings, not by Qhull."""

    @pytest.fixture(scope="class", params=SITE_FREE_RESOLUTIONS)
    def disk(self, request):
        return request.param, sk.build_disk_mesh(request.param)

    def test_point_layout_unchanged(self, disk):
        resolution, mesh = disk
        points, n_boundary = _site_free_disk_points(resolution)
        assert np.array_equal(mesh.vertices, points)
        assert mesh.boundary_loops == (tuple(range(n_boundary)),)

    @pytest.mark.parametrize("turn", [1.0, 2.5, -0.3])
    def test_turned_layout_matches_the_ring_loop(self, turn):
        # a disk with arcs turns its layout to the first arc; all rings are laid at once
        for resolution in SITE_FREE_RESOLUTIONS:
            points, _ = _site_free_disk_points(resolution, turn)
            assert np.array_equal(meshes._disk_layout(resolution, turn).points, points)

    def test_stiffness_is_delaunay(self, disk):
        _, mesh = disk
        K = sk.assemble_stiffness(mesh).tocoo()
        off = K.row != K.col
        assert K.data[off].max() <= 1e-12 * np.abs(K.data).max()

    def test_stiffness_matches_qhull(self, disk):
        _, mesh = disk
        K_qhull = _qhull_stiffness(mesh.vertices)
        assert abs(sk.assemble_stiffness(mesh) - K_qhull).max() <= 1e-12 * abs(K_qhull).max()

    def test_coarse_rings_fall_back_to_qhull(self):
        # at resolution 0.7 the Delaunay triangulation joins rings two apart
        points, n_boundary = _site_free_disk_points(0.7)
        counts = [1, 6, 6, n_boundary]
        starts = [n_boundary, n_boundary + 1, n_boundary + 7, 0]
        offsets = [0.0, math.pi / 6, 0.0, 0.0]
        assert _ring_delaunay(points, np.array(starts), np.array(counts),
                              np.array(offsets)) is None
        mesh = sk.build_disk_mesh(0.7)
        assert np.array_equal(mesh.vertices, points)
        assert abs(sk.assemble_stiffness(mesh) - _qhull_stiffness(points)).max() == 0.0


# sha256 prefixes of the (little-endian float64 / int64) bytes of vertices,
# triangles and identifications; these meshes must stay bitwise.  The
# self-glued cylinder's triangles were pinned again when grid charts with sites
# left whole-chart Qhull for the layout split: only Delaunay ties moved, and its
# stiffness stayed within 3e-15 of the old one, relative to its largest entry.
# The glued meshes' vertices were pinned again when `glue` stopped shifting
# charts side by side, and the Moebius band's when grid rows became one linspace
PINNED_MESHES = {
    "disk 0.03": (lambda: sk.build_disk_mesh(0.03),
                  ("77c82e616083f18f", "ea5196df09d1eac5", "e3b0c44298fc1c14")),
    "two-disk interior 1e-9": (
        lambda: sk.build_glued_mesh(
            chain_family([sk.UnitDisk()] * 2, 1e-9, "interior-cylinder"), 0.03),
        ("d7fc711ba6f98bff", "b6da4a5a7da2b7b4", "8f33870193513c68")),
    "self-glued cylinder 1e-3": (
        lambda: sk.build_glued_mesh(annulus_self_glued(1.0, 1e-3), 0.05),
        ("2da284120c6007bf", "04e8e312d1915bb4", "548e72f1e8c64742")),
    "Moebius 0.5": (lambda: sk.build_mobius_mesh(0.5, 0.05),
                    ("c65183008f26ee8b", "d022fe0521c66a26", "5c10961b224cba1a")),
}


@pytest.mark.parametrize("case", list(PINNED_MESHES))
def test_meshes_without_arc_sites_are_pinned(case):
    build, digests = PINNED_MESHES[case]
    mesh = build()
    got = tuple(hashlib.sha256(getattr(mesh, name).tobytes()).hexdigest()[:16]
                for name in ("vertices", "triangles", "identifications"))
    assert got == digests


class TestArcSite:
    """Boundary arcs: equally spaced arc nodes, and a half-collar below COLLAR_RADIUS / 4."""

    @pytest.mark.parametrize("w", [0.1, 1e-4, 1e-10])
    def test_rings_end_on_the_circle(self, w):
        theta = 2.5
        centre = np.array([math.cos(theta), math.sin(theta)])
        site, half = meshes._arc_site(centre, w, lambda z: np.exp(1j * (theta + z)), theta)
        arc = site.collar[0] if len(site.collar) else site.outer
        assert len(arc) == NECK_SEGMENTS + 1
        angles = np.unwrap(np.arctan2(arc[:, 1], arc[:, 0]))
        assert angles == pytest.approx(np.linspace(theta - w, theta + w, NECK_SEGMENTS + 1),
                                       rel=0, abs=1e-15)
        ends = [site.outer[[0, -1]]] + [ring[[0, -1]] for ring in site.collar]
        assert np.linalg.norm(np.concatenate(ends), axis=1) == pytest.approx(1.0, abs=1e-15)
        if w < COLLAR_RADIUS / 4:
            # the Delaunay stage meets a near-circle of 8 segments at the collar radius
            assert len(site.outer) == NECK_SEGMENTS // 2 + 1
            reach = np.linalg.norm(site.outer - centre, axis=1)
            assert reach == pytest.approx(COLLAR_RADIUS, rel=0.05)
            assert half == pytest.approx(COLLAR_RADIUS, rel=1e-12)
            depth = 1.0 - np.linalg.norm(np.concatenate(list(site.collar)), axis=1)
            assert depth.min() >= 0.0
        else:
            assert len(site.collar) == 0 and half == w

    @pytest.mark.parametrize("w", [0.1, 1e-4, 1e-10])
    @pytest.mark.parametrize("t0, inward", [(0.0, 1.0), (1.3, -1.0)])
    def test_rings_end_on_the_row(self, w, t0, inward):
        theta = 2.5
        site, half = meshes._arc_site(np.array([theta, t0]), w,
                                      lambda z: theta + z.real + 1j * (t0 + inward * z.imag),
                                      -inward * 0.5 * math.pi)
        rings = list(site.collar) + [site.outer]  # from the arc outwards
        arc = rings[0]
        # exactly on the boundary row, which Qhull meets as a straight line
        assert np.all(arc[:, 1] == t0)
        assert all(np.array_equal(ring[[0, -1], 1], [t0, t0]) for ring in rings)
        assert all(np.all(inward * (ring[1:-1, 1] - t0) > 0) for ring in rings[1:])
        assert arc[:, 0] == pytest.approx(np.linspace(theta - w, theta + w, NECK_SEGMENTS + 1),
                                          rel=0, abs=1e-15)
        assert half == (pytest.approx(COLLAR_RADIUS, rel=1e-12) if w < COLLAR_RADIUS / 4 else w)

    @pytest.mark.parametrize("rho", [1e-4, 1e-10])
    def test_collared_disk_is_valid(self, rho):
        comp = sk.build_spec_mesh(sk.UnitDisk(), 0.05, (meshes.ArcSite(0, 1.0, rho),))
        assert sk.validate_mesh(comp.mesh) == []
        assert len(comp.mesh.boundary_loops) == 1
        assert sk.boundary_length(comp.mesh) == pytest.approx(TWO_PI, rel=1e-3)
        [iface] = comp.interfaces
        assert len(iface) == NECK_SEGMENTS + 1
        chord = np.linalg.norm(comp.vertices[iface[-1]] - comp.vertices[iface[0]])
        assert chord == pytest.approx(2.0 * rho, rel=1e-4)


def _chain(n, rho, kind="boundary-square"):
    return chain_family([sk.UnitDisk()] * n, rho, kind)


BAND_CASES = {
    "two-disk boundary 0.2": (_chain(2, 0.2), 0.03),
    "two-disk boundary 0.025": (_chain(2, 0.025), 0.03),
    "two-disk interior 1e-2": (_chain(2, 1e-2, "interior-cylinder"), 0.03),
    "two-disk interior 1e-9": (_chain(2, 1e-9, "interior-cylinder"), 0.03),
    "three-disk boundary 0.025": (_chain(3, 0.025), 0.035),
    "three-disk interior 1e-3": (_chain(3, 1e-3, "interior-cylinder"), 0.05),
    # grid charts: the uniform base grid is the known piece
    "self-glued cylinder 1e-3": (annulus_self_glued(1.0, 1e-3), 0.05),
    "catenoid+disk 1e-8": (chain_family([sk.critical_catenoid_metric(), sk.UnitDisk()], 1e-8),
                           0.03),
    "Moebius+disk 1e-8": (chain_family([sk.critical_mobius_metric(), sk.UnitDisk()], 1e-8),
                          0.03),
    # the ring layout's tied cells between band vertices once failed the certificate
    "three-disk interior 2e-5, tied cells": TIED_CELLS_CHAIN,
}


def _whole_chart_delaunay(points, *args, **kwargs):
    """Stands in for `_band_delaunay`: scipy.spatial.Delaunay on the whole chart."""
    return meshes._qhull_triangles(points)


def _qhull_sizes(monkeypatch):
    sizes = []
    real = meshes._qhull_triangles
    monkeypatch.setattr(meshes, "_qhull_triangles",
                        lambda points: sizes.append(len(points)) or real(points))
    return sizes


class TestBandDelaunay:
    """Charts with neck sites: Qhull on a band near the sites, the site-free
    layout's triangles elsewhere."""

    @pytest.fixture(scope="class", params=list(BAND_CASES))
    def pair(self, request):
        family, resolution = BAND_CASES[request.param]
        with pytest.MonkeyPatch.context() as mp:
            band_sizes = _qhull_sizes(mp)
            band = sk.build_glued_mesh(family, resolution)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(meshes, "_band_delaunay", _whole_chart_delaunay)
            whole_sizes = _qhull_sizes(mp)
            whole = sk.build_glued_mesh(family, resolution)
        return band, whole, (band_sizes, whole_sizes)

    def test_stiffness_matches_whole_chart_delaunay(self, pair):
        band, whole, _ = pair
        K_whole = sk.assemble_stiffness(whole)
        assert abs(sk.assemble_stiffness(band) - K_whole).max() <= 1e-12 * abs(K_whole).max()

    def test_everything_but_triangles_bitwise_equal(self, pair):
        band, whole, _ = pair
        for name in ("vertices", "identifications", "logical", "conformal_factor",
                     "boundary_edge_chart"):
            assert np.array_equal(getattr(band, name), getattr(whole, name)), name
        assert band.boundary_loops == whole.boundary_loops
        assert band.tags == whole.tags
        assert band.n_triangles == whole.n_triangles

    def test_qhull_sees_only_the_band(self, pair, request):
        *_, (band_sizes, whole_sizes) = pair
        # one call per distinct component; coarse charts leave wide bands (0.5 of
        # the points at resolution 0.05), fine ones narrow bands (0.06 at 0.03)
        assert len(band_sizes) == len(whole_sizes) > 0
        assert all(b < 0.6 * w for b, w in zip(band_sizes, whole_sizes))
        if request.node.callspec.id.startswith("two-disk boundary"):
            # arc sites: only their neighbourhoods, not the outer annulus
            assert max(band_sizes) <= 400

    @pytest.mark.parametrize("case", list(BAND_CASES))
    def test_band_cases_never_fall_back(self, case, caplog):
        family, resolution = BAND_CASES[case]
        with caplog.at_level(logging.DEBUG, logger="steklov.meshes"):
            sk.build_glued_mesh(family, resolution)
        messages = [record.getMessage() for record in caplog.records]
        assert any(m.startswith("Delaunay band: Qhull on") for m in messages)

    @pytest.mark.parametrize("case", ["two-disk interior 1e-2", "two-disk boundary 0.025"])
    def test_certificate_failure_is_refused(self, case, monkeypatch):
        family, resolution = BAND_CASES[case]
        monkeypatch.setattr(meshes, "_interface_delaunay", lambda *args: False)
        sizes = _qhull_sizes(monkeypatch)
        with pytest.raises(sk.AssemblyError, match="interface certificate"):
            sk.build_glued_mesh(family, resolution)
        # the first chart's band, and no Qhull call on a whole chart
        assert len(sizes) == 1

    def test_certificate_checks_the_opposite_angles(self):
        m = 8
        ang = TWO_PI * np.arange(m) / m
        ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        ids = np.arange(m)
        inside = np.stack([ids, np.roll(ids, -1), np.full(m, m)], axis=1)  # fan to the centre
        outside = np.stack([ids, np.roll(ids, -1), m + 1 + ids], axis=1)
        mid = ang + math.pi / m
        edges = np.stack([ids, np.roll(ids, -1)], axis=1)
        for radius, delaunay in ((2.0, True), (1.02, False)):
            apex = radius * np.stack([np.cos(mid), np.sin(mid)], axis=1)
            points = np.concatenate([ring, [[0.0, 0.0]], apex])
            assert meshes._interface_delaunay(points, edges, outside, inside) is delaunay
        # an edge missing from one side fails as well
        assert not meshes._interface_delaunay(points, edges, outside[1:], inside)


def test_scipy_spatial_loads_only_for_qhull_meshes():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sk.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, steklov, steklov.cli, steklov.acceptance\n"
            "import steklov as sk\n"
            "from steklov.experiments import chain_family\n"
            "for mesh in (sk.build_disk_mesh(0.1), sk.build_spec_mesh(sk.FlatCylinder(1.0, 1.0), 0.1).mesh,\n"
            "             sk.build_mobius_mesh(1.0, 0.1)):\n"
            "    sk.steklov_spectrum(mesh, 4)\n"
            "print('scipy.spatial' in sys.modules)\n"
            "sk.build_glued_mesh(chain_family([sk.UnitDisk(), sk.UnitDisk()], 0.1), 0.1)\n"
            "print('scipy.spatial' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


class TestCylinder:
    def test_two_loops_unit_length(self, cylinder_mesh):
        assert len(cylinder_mesh.boundary_loops) == 2
        lengths = _loop_lengths(cylinder_mesh)
        assert lengths == pytest.approx([TWO_PI, TWO_PI], rel=5e-3)
        assert sk.euler_characteristic(cylinder_mesh) == 0

    def test_weighted_boundary_length(self):
        t10 = sk.constant_T10().value
        mesh = sk.build_spec_mesh(sk.FlatCylinder(2 * t10, 1.0 / t10), 0.05).mesh
        assert sk.boundary_length(mesh) == pytest.approx(10.474780655975891, rel=5e-3)

    def test_invalid_height(self):
        with pytest.raises(sk.InvalidParameterError):
            sk.build_spec_mesh(sk.FlatCylinder(0.0, 1.0), 0.1).mesh
        with pytest.raises(sk.InvalidParameterError):
            sk.build_spec_mesh(sk.FlatCylinder(1.0, -2.0), 0.1).mesh

    def test_validate_clean(self, cylinder_mesh):
        assert sk.validate_mesh(cylinder_mesh) == []


class TestMobius:
    def test_single_loop(self, mobius_mesh):
        assert len(mobius_mesh.boundary_loops) == 1
        assert sk.boundary_length(mobius_mesh) == pytest.approx(TWO_PI, rel=5e-3)

    def test_euler_characteristic(self, mobius_mesh):
        assert sk.euler_characteristic(mobius_mesh) == 0

    def test_antipodal_seam_is_interior(self, mobius_mesh):
        # no boundary vertex sits on the t=0 circle
        boundary = set().union(*mobius_mesh.boundary_loops)
        t = mobius_mesh.vertices[:, 1]
        on_seam = set(int(v) for v in mobius_mesh.logical[t == 0.0])
        assert not (boundary & on_seam)

    def test_accepts_critical_height(self):
        t21 = sk.constant_Tk1(2).value
        mesh = sk.build_mobius_mesh(t21, 0.1)
        assert sk.validate_mesh(mesh) == []

    def test_invalid_height(self):
        with pytest.raises(sk.InvalidParameterError):
            sk.build_mobius_mesh(-1.0, 0.1)


class TestValidation:
    def test_deleted_triangle_reported(self, coarse_disk_mesh):
        broken = replace(coarse_disk_mesh, triangles=coarse_disk_mesh.triangles[:-1])
        report = sk.validate_mesh(broken)
        assert any("boundary" in line for line in report)

    def test_stale_edge_weights_reported(self, coarse_disk_mesh):
        assert sk.validate_mesh(coarse_disk_mesh) == []
        # a stretch keeps every triangle counterclockwise but changes its angles
        stretched = replace(coarse_disk_mesh, vertices=coarse_disk_mesh.vertices * [1.0, 1.3])
        assert sk.validate_mesh(stretched) == ["edge weights disagree with the chart geometry"]

    def test_nonpositive_conformal_factor_reported(self, coarse_disk_mesh):
        lam = coarse_disk_mesh.conformal_factor.copy()
        lam[0] = 0.0
        broken = replace(coarse_disk_mesh, conformal_factor=lam)
        report = sk.validate_mesh(broken)
        assert any("positive" in line for line in report)

    def test_with_conformal_factor_checks_positivity(self, coarse_disk_mesh):
        with pytest.raises(sk.InvalidParameterError):
            sk.with_conformal_factor(coarse_disk_mesh,
                                     np.zeros(coarse_disk_mesh.n_logical))

    @pytest.mark.parametrize("entry", ["with_conformal_factor", "DtnOperator.spectrum"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "zero", "negative", "short"])
    def test_bad_conformal_factor_refused(self, coarse_disk_mesh, entry, bad):
        lam = np.ones(coarse_disk_mesh.n_logical)
        if bad == "short":
            lam = lam[:-1]
        else:
            lam[0] = {"nan": np.nan, "inf": np.inf, "zero": 0.0, "negative": -1.0}[bad]
        with pytest.raises(sk.InvalidParameterError):
            if entry == "with_conformal_factor":
                sk.with_conformal_factor(coarse_disk_mesh, lam)
            else:
                sk.build_dtn(coarse_disk_mesh).spectrum(3, conformal=lam)

    def test_assembly_rejects_unequal_identified_densities(self):
        from steklov.meshes import assemble_mesh
        from steklov.errors import AssemblyError
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0],
                        [2.0, 0.0], [3.0, 0.0], [2.5, 1.0]])
        tris = [[0, 1, 2], [3, 4, 5]]
        lam = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 1.0])
        with pytest.raises(AssemblyError):
            assemble_mesh(pts, tris, [[1, 4]], lam)


class TestGrids:
    def test_fill_graded_endpoints_and_spacing(self):
        nodes = _fill_graded(0.0, 2.0, 0.01, 0.05, 0.2)
        assert nodes[0] == 0.0 and nodes[-1] == 2.0
        steps = np.diff(nodes)
        assert np.all(steps > 0)
        assert steps[0] == pytest.approx(0.01, rel=0.6)
        assert steps.max() <= 0.25

    def test_fill_graded_cost_is_logarithmic_in_the_grading(self, monkeypatch):
        nodes = _fill_graded(0.0, 2.0, 1e-7, 0.05, 0.2)
        assert np.diff(nodes)[0] == pytest.approx(1e-7, rel=0.6)
        # a boundary neck at rho 1e-5 grades the arc spacing down to 1.25e-6
        requests = []
        real = np.linspace

        def spy(start, stop, num=50, *args, **kwargs):
            requests.append(num)
            return real(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(meshes.np, "linspace", spy)
        sk.build_glued_mesh(chain_family([sk.UnitDisk()] * 2, 1e-5), 0.03)
        assert requests and max(requests) <= 1e5

    def test_grid_arcs_pin_equal_steps(self):
        # arcs first, in site order, then the hole
        comp = sk.build_spec_mesh(sk.FlatCylinder(1.0, 2.0), 0.1,
                                  (ArcSite(1, 2.0, 0.2), ArcSite(0, 2.0, 0.2)),
                                  (meshes.HoleSite((4.0, 0.5), 0.1),))
        for iface, t0 in zip(comp.interfaces, (1.0, 0.0)):
            arc = comp.vertices[iface]
            assert np.all(arc[:, 1] == t0)
            assert arc[:, 0] == pytest.approx(np.linspace(1.9, 2.1, NECK_SEGMENTS + 1))
        rim = comp.vertices[comp.interfaces[2]]
        assert np.linalg.norm(rim - [4.0, 0.5], axis=1) == pytest.approx(0.05)
        assert sk.validate_mesh(comp.mesh) == []

    def test_overlapping_grid_arcs_rejected(self):
        arcs = (ArcSite(0, 1.0, 0.2), ArcSite(0, 1.3, 0.2))
        with pytest.raises(sk.InvalidGluingError):
            sk.build_spec_mesh(sk.FlatCylinder(1.0), 0.1, arcs)
        # the same arcs on the cylinder's two loops do not meet
        assert len(sk.build_spec_mesh(sk.FlatCylinder(1.0), 0.1,
                                      (arcs[0], replace(arcs[1], loop=1))).interfaces) == 2

    @pytest.mark.parametrize("spec", [sk.FlatCylinder(1.0), sk.MobiusCylinder(1.0)],
                             ids=["cylinder", "mobius"])
    @pytest.mark.parametrize("theta", [0.0, 0.05, TWO_PI - 0.05], ids=["0", "0.05", "2pi-0.05"])
    def test_grid_arc_across_the_seam_rejected(self, spec, theta):
        with pytest.raises(sk.InvalidGluingError):
            sk.build_spec_mesh(spec, 0.1, (ArcSite(0, theta, 0.1),))


class TestAssemblyOrdering:
    """Logical labels and boundary edges come out in one fixed order."""

    @pytest.fixture(scope="class")
    def glued(self):
        family = chain_family([sk.UnitDisk(), sk.UnitDisk()], 0.1)
        return sk.build_glued_mesh(family, 0.08)

    def test_labels_ordered_by_lowest_chart_index(self, glued):
        ids = glued.identifications
        assert len(ids) > 0
        assert np.array_equal(glued.logical[ids[:, 0]], glued.logical[ids[:, 1]])
        labels, first = np.unique(glued.logical, return_index=True)
        assert np.array_equal(labels, np.arange(glued.n_logical))
        assert np.all(np.diff(first) > 0)

    def test_edges_lexicographic_with_first_chart_representative(self, glued):
        tri, lab = glued.triangles, glued.logical[glued.triangles]
        pairs = [(0, 1), (1, 2), (2, 0)]
        logical_e = np.concatenate([lab[:, list(p)] for p in pairs])
        chart_e = np.concatenate([tri[:, list(p)] for p in pairs])
        edges, first, counts = np.unique(np.sort(logical_e, axis=1), axis=0,
                                         return_index=True, return_counts=True)
        boundary = counts == 1
        assert np.array_equal(np.sort(glued.logical[glued.boundary_edge_chart], axis=1),
                              edges[boundary])
        assert np.array_equal(glued.boundary_edge_chart, chart_e[first][boundary])
        assert np.array_equal(glued.edges, edges)

    @pytest.fixture(params=["disk_mesh", "cylinder_mesh", "mobius_mesh", "glued"])
    def any_mesh(self, request):
        return request.getfixturevalue(request.param)

    def test_edge_weights_are_half_the_facing_cotangents(self, any_mesh):
        lo, hi = any_mesh.edges.T
        ref = -np.asarray(corner_block_stiffness(any_mesh)[lo, hi]).ravel()
        assert np.abs(any_mesh.edge_weights - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_conformal_factor_shares_the_edge_weights(self, any_mesh):
        scaled = sk.with_conformal_factor(any_mesh, 3.7 * any_mesh.conformal_factor)
        assert scaled.edge_weights is any_mesh.edge_weights


def _loop_lengths(mesh):
    lengths = []
    from steklov.meshes import boundary_edge_lengths
    edge_len = boundary_edge_lengths(mesh)
    uv = mesh.logical[mesh.boundary_edge_chart]
    for loop in mesh.boundary_loops:
        members = set(loop)
        mask = [int(a) in members and int(b) in members for a, b in uv]
        lengths.append(float(edge_len[mask].sum()))
    return lengths
