import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steklov as sk
from steklov import gluing, meshes
from steklov.gluing import Attachment, GluedFamily, glue, prepare_components
from steklov.meshes import ArcSite, HoleSite
from steklov.experiments import annulus_self_glued, chain_family

TWO_PI = 2 * math.pi
FOUR_PI = 4 * math.pi


def two_disks(rho, kind="boundary-square"):
    return chain_family([sk.UnitDisk(), sk.UnitDisk()], rho, kind)


class TestBoundaryGlue:
    def test_two_disks_connected_one_loop(self):
        mesh = sk.build_glued_mesh(two_disks(0.1), 0.06)
        assert len(mesh.boundary_loops) == 1
        assert sk.euler_characteristic(mesh) == 1  # still a topological disk
        assert sk.validate_mesh(mesh) == []
        assert sk.boundary_length(mesh) == pytest.approx(FOUR_PI, rel=1e-2)

    def test_length_converges_to_disjoint_union(self):
        lengths = [sk.boundary_length(sk.build_glued_mesh(two_disks(rho), 0.06))
                   for rho in (0.2, 0.1, 0.05)]
        gaps = [abs(v - FOUR_PI) for v in lengths]
        assert max(gaps) < 0.01
        # the arc/side exchange cancels exactly; only polygonal error remains
        assert all(g <= 0.02 * rho + 1e-3 for g, rho in zip(gaps, (0.2, 0.1, 0.05)))

    def test_three_disk_chain(self):
        fam = chain_family([sk.UnitDisk()] * 3, 0.1)
        mesh = sk.build_glued_mesh(fam, 0.07)
        assert len(mesh.boundary_loops) == 1
        assert sk.boundary_length(mesh) == pytest.approx(6 * math.pi, rel=1e-2)

    def test_neck_tag_present(self):
        mesh = sk.build_glued_mesh(two_disks(0.1), 0.07)
        tag = mesh.tags["neck_boundary"]
        boundary = set().union(*mesh.boundary_loops)
        assert tag and tag <= boundary

    def test_overlapping_arcs_rejected(self):
        fam = GluedFamily(
            (sk.UnitDisk(), sk.UnitDisk()), 0.3,
            ((Attachment(0, theta=0.5 * math.pi), Attachment(1, theta=0.5 * math.pi)),
             (Attachment(0, theta=0.5 * math.pi + 0.6), Attachment(1, theta=1.5 * math.pi))))
        with pytest.raises(sk.InvalidGluingError):
            sk.build_glued_mesh(fam, 0.08)

    # arcs this small once lost points in Qhull; a half-collar now carries them
    @pytest.mark.parametrize("rho", [1e-6, 1e-7])
    def test_tiny_arcs_build(self, rho):
        family = two_disks(rho)
        for comp in prepare_components(family, 0.03):
            assert [len(i.chart_ids) for i in comp.interfaces] == [meshes.NECK_SEGMENTS + 1]
        mesh = glue(prepare_components(family, 0.03), family)
        assert sk.validate_mesh(mesh) == []
        assert sk.boundary_length(mesh) == pytest.approx(FOUR_PI, abs=1e-2)

    def test_overlapping_half_collars_rejected(self):
        # 1e-4 apart passes the clearance check at rho 1e-10, but the two arcs'
        # half-collars reach 1e-3 along the circle
        fam = GluedFamily(
            (sk.UnitDisk(), sk.UnitDisk()), 1e-10,
            ((Attachment(0, theta=1.0), Attachment(1, theta=1.0)),
             (Attachment(0, theta=1.0 + 1e-4), Attachment(1, theta=4.0))))
        with pytest.raises(sk.InvalidGluingError):
            sk.build_glued_mesh(fam, 0.05)

    # the disk's angle origin is no seam: arcs on it mesh as anywhere else
    @pytest.mark.parametrize("theta", [0.0, 0.05, TWO_PI - 0.05], ids=["0", "0.05", "2pi-0.05"])
    def test_disk_arc_at_any_angle(self, theta):
        def sigma_bar(angle):
            fam = GluedFamily((sk.UnitDisk(), sk.UnitDisk()), 0.1,
                              ((Attachment(0, theta=angle), Attachment(1, theta=0.5 * math.pi)),))
            mesh = sk.build_glued_mesh(fam, 0.05)
            assert sk.validate_mesh(mesh) == []
            return sk.steklov_spectrum(mesh, 4).normalized[1:4]

        assert sigma_bar(theta) == pytest.approx(sigma_bar(math.pi), rel=1e-3)

    def test_mixed_density_chain(self):
        fam = chain_family([sk.critical_catenoid_metric(), sk.UnitDisk()], 0.1)
        mesh = sk.build_glued_mesh(fam, 0.06)
        t10 = sk.constant_T10().value
        want = FOUR_PI / t10 + TWO_PI
        assert sk.validate_mesh(mesh) == []
        assert sk.boundary_length(mesh) == pytest.approx(want, rel=1e-2)


class TestInteriorGlue:
    def test_boundary_length_exactly_additive(self):
        for rho in (0.3, 0.1, 0.02):
            mesh = sk.build_glued_mesh(two_disks(rho, "interior-cylinder"), 0.07)
            single = sk.boundary_length(sk.build_disk_mesh(0.07))
            assert sk.boundary_length(mesh) == pytest.approx(2 * single, rel=1e-12)
            assert len(mesh.boundary_loops) == 2

    def test_annulus_self_glue_raises_genus(self):
        fam = annulus_self_glued(1.0, 0.05)
        mesh = sk.build_glued_mesh(fam, 0.07)
        assert sk.validate_mesh(mesh) == []
        # chi = -2 with two boundary circles: genus went from 0 to 1
        assert sk.euler_characteristic(mesh) == -2
        assert len(mesh.boundary_loops) == 2
        assert sk.boundary_length(mesh) == pytest.approx(FOUR_PI, rel=1e-2)

    def test_equal_components_built_once(self):
        family = two_disks(0.05, "interior-cylinder")
        comps = prepare_components(family, 0.07)
        assert comps[0] is comps[1]
        # the shared component glues exactly like two separately built ones
        site = (HoleSite((0.0, 0.0), 0.05),)
        apart = [sk.build_spec_mesh(sk.UnitDisk(), 0.07, (), site) for _ in range(2)]
        shared, separate = glue(comps, family), glue(apart, family)
        for name in ("vertices", "triangles", "identifications", "logical",
                     "conformal_factor", "boundary_edge_chart"):
            assert np.array_equal(getattr(shared, name), getattr(separate, name))
        assert shared.boundary_loops == separate.boundary_loops

    def test_neck_reaching_boundary_rejected(self):
        fam = GluedFamily(
            (sk.UnitDisk(), sk.UnitDisk()), 0.6,
            ((Attachment(0, point=(0.0, 0.0)), Attachment(1, point=(0.0, 0.0))),),
            "interior-cylinder")
        with pytest.raises(sk.InvalidGluingError):
            sk.build_glued_mesh(fam, 0.1)

    def test_close_interior_points_rejected(self):
        fam = GluedFamily(
            (sk.FlatCylinder(1.0),), 0.2,
            ((Attachment(0, point=(1.5, 0.5)), Attachment(0, point=(1.6, 0.5))),),
            "interior-cylinder")
        with pytest.raises(sk.InvalidGluingError):
            sk.build_glued_mesh(fam, 0.1)

    # tiny rims are meshed at the collar radius 1e-3, and clearances count from there
    def test_tiny_rim_near_disk_boundary_rejected(self):
        fam = GluedFamily(
            (sk.UnitDisk(), sk.UnitDisk()), 1e-7,
            ((Attachment(0, point=(0.9995, 0.0)), Attachment(1, point=(0.0, 0.0))),),
            "interior-cylinder")
        with pytest.raises(sk.InvalidGluingError):
            sk.build_glued_mesh(fam, 0.05)

    def test_tiny_rims_close_together_rejected(self):
        fam = GluedFamily(
            (sk.FlatCylinder(1.0),), 1e-7,
            ((Attachment(0, point=(3.0, 0.5)), Attachment(0, point=(3.0001, 0.5))),),
            "interior-cylinder")
        with pytest.raises(sk.InvalidGluingError):
            sk.build_glued_mesh(fam, 0.06)


class TestUncommonConfigurations:
    def test_nonconstant_field_blends_to_attachment_density(self):
        field = lambda x, y: float(np.exp(0.25 * x))
        fam = GluedFamily(
            (sk.UnitDisk(field), sk.UnitDisk()), 0.08,
            ((Attachment(0, theta=0.5 * math.pi), Attachment(1, theta=1.5 * math.pi)),))
        mesh = sk.build_glued_mesh(fam, 0.06)
        assert sk.validate_mesh(mesh) == []
        assert len(mesh.boundary_loops) == 1
        lam = mesh.conformal_factor[mesh.logical]
        for a, b in mesh.identifications:
            assert lam[a] == pytest.approx(lam[b], rel=1e-9)

    def test_attachment_on_second_cylinder_loop(self):
        fam = GluedFamily(
            (sk.FlatCylinder(1.0), sk.UnitDisk()), 0.08,
            ((Attachment(0, loop=1, theta=0.5 * math.pi),
              Attachment(1, theta=1.5 * math.pi)),))
        mesh = sk.build_glued_mesh(fam, 0.06)
        assert sk.validate_mesh(mesh) == []
        # annulus with a disk capping nothing: still an annulus
        assert len(mesh.boundary_loops) == 2
        assert sk.euler_characteristic(mesh) == 0

    @pytest.mark.parametrize("kind, pair", [
        ("boundary-square",
         (Attachment(0, theta=0.5 * math.pi), Attachment(1, point=(0.0, 0.0)))),
        ("interior-cylinder",
         (Attachment(0, point=(0.0, 0.0)), Attachment(1, theta=1.5 * math.pi))),
    ])
    def test_attachment_kind_checked_before_meshing(self, kind, pair, monkeypatch):
        def unexpected(*args):
            raise AssertionError("a chart was meshed before the attachment check")

        monkeypatch.setattr(gluing, "build_spec_mesh", unexpected)
        fam = GluedFamily((sk.UnitDisk(), sk.UnitDisk()), 0.05, (pair,), kind)
        with pytest.raises(sk.InvalidParameterError):
            sk.build_glued_mesh(fam, 0.1)

    def test_unknown_neck_kind(self):
        fam = GluedFamily((sk.UnitDisk(), sk.UnitDisk()), 0.1,
                          ((Attachment(0, theta=1.0), Attachment(1, theta=1.0)),),
                          "wormhole")
        with pytest.raises(sk.InvalidParameterError):
            sk.build_glued_mesh(fam, 0.1)

    # the Moebius chart is no longer meshed as two half-charts
    def test_mobius_arc_on_a_meridian_builds(self):
        fam = GluedFamily(
            (sk.MobiusCylinder(1.0), sk.UnitDisk()), 0.1,
            ((Attachment(0, theta=math.pi), Attachment(1, theta=1.5 * math.pi)),))
        mesh = sk.build_glued_mesh(fam, 0.1)
        assert sk.validate_mesh(mesh) == []
        assert len(mesh.boundary_loops) == 1
        assert sk.boundary_length(mesh) == pytest.approx(FOUR_PI, rel=1e-2)

    def test_interior_neck_on_a_mobius_band(self):
        fam = GluedFamily(
            (sk.MobiusCylinder(1.0),), 0.05,
            ((Attachment(0, point=(0.5 * math.pi, 0.5)),
              Attachment(0, point=(1.5 * math.pi, 0.5))),),
            "interior-cylinder")
        mesh = sk.build_glued_mesh(fam, 0.07)
        assert sk.validate_mesh(mesh) == []
        assert sk.euler_characteristic(mesh) == -2
        assert len(mesh.boundary_loops) == 1


class TestInterfaceOrder:
    """`glue` takes interface i of a component for the component's i-th site."""

    def test_disk_arcs_in_site_order(self):
        thetas = (4.0, 1.0)  # descending, so not the order of the angle grid
        sites = tuple(ArcSite(0, theta, 0.05) for theta in thetas)
        comp = sk.build_spec_mesh(sk.UnitDisk(), 0.07, sites)
        for iface, theta in zip(comp.interfaces, thetas):
            x, y = comp.vertices[iface.chart_ids].mean(axis=0)
            assert math.atan2(y, x) % TWO_PI == pytest.approx(theta, abs=1e-9)

    @pytest.mark.parametrize("family, comp, points", [
        (annulus_self_glued(1.0, 0.05), 0, [(0.5 * math.pi, 0.5), (1.5 * math.pi, 0.5)]),
        (chain_family([sk.UnitDisk()] * 3, 1e-3, "interior-cylinder"), 1,
         [(-0.35, 0.0), (0.35, 0.0)]),
    ])
    def test_rims_in_site_order(self, family, comp, points):
        component = prepare_components(family, 0.07)[comp]
        assert len(component.interfaces) == len(points)
        for iface, point in zip(component.interfaces, points):
            centroid = component.vertices[iface.chart_ids].mean(axis=0)
            assert centroid == pytest.approx(point, abs=1e-9)


class TestOneAssembly:
    @pytest.mark.parametrize("kind", ["boundary-square", "interior-cylinder"])
    def test_glued_mesh_assembled_once(self, kind, monkeypatch):
        calls = []
        real = gluing.assemble_mesh

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(gluing, "assemble_mesh", counted)
        monkeypatch.setattr(meshes, "assemble_mesh", counted)
        mesh = sk.build_glued_mesh(chain_family([sk.UnitDisk()] * 3, 0.05, kind), 0.08)
        assert calls == [mesh.n_chart]

    def test_plain_surface_assembled_on_request(self, monkeypatch):
        calls = []
        real = meshes.assemble_mesh
        monkeypatch.setattr(meshes, "assemble_mesh",
                            lambda *args: calls.append(1) or real(*args))
        comp = sk.build_spec_mesh(sk.FlatCylinder(1.0), 0.1)
        assert calls == []
        assert comp.mesh is comp.mesh
        assert calls == [1]


class TestCleanliness:
    @pytest.mark.parametrize("kind", ["boundary-square", "interior-cylinder"])
    def test_glue_preserves_validity(self, kind):
        mesh = sk.build_glued_mesh(two_disks(0.08, kind), 0.08)
        assert sk.validate_mesh(mesh) == []

    def test_identified_vertices_share_density(self):
        fam = chain_family([sk.critical_catenoid_metric(), sk.UnitDisk()], 0.1)
        mesh = sk.build_glued_mesh(fam, 0.08)
        lam = mesh.conformal_factor[mesh.logical]
        for a, b in mesh.identifications:
            assert lam[a] == pytest.approx(lam[b], rel=1e-9)


class TestBoundaryNeckProperties:
    """Boundary-neck chains of unit disks at any rho down to 1e-10 and any angle."""

    @settings(max_examples=12, deadline=None)
    @given(n=st.sampled_from([2, 3]),
           log_rho=st.floats(-10.0, -1.0),
           resolution=st.floats(0.03, 0.1),
           angles=st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=4, max_size=4),
           turn=st.floats(1.0, TWO_PI - 1.0))
    def test_chains_build(self, n, log_rho, resolution, angles, turn):
        # the middle disk's second arc keeps 1 rad from its first
        thetas = [angles[0], angles[1], (angles[1] + turn) % TWO_PI, angles[3]]
        pairs = [(Attachment(i, theta=thetas[2 * i]), Attachment(i + 1, theta=thetas[2 * i + 1]))
                 for i in range(n - 1)]
        family = GluedFamily((sk.UnitDisk(),) * n, 10.0 ** log_rho, tuple(pairs))
        mesh = sk.build_glued_mesh(family, resolution)  # no AssemblyError
        assert sk.validate_mesh(mesh) == []
        assert len(mesh.boundary_loops) == 1
        assert sk.boundary_length(mesh) == pytest.approx(TWO_PI * n, rel=0.02)


class TestGridNeckProperties:
    """A cylinder or Moebius band glued to a unit disk at any rho down to 1e-10."""

    @settings(max_examples=12, deadline=None)
    @given(mobius=st.booleans(),
           loop=st.sampled_from([0, 1]),
           T=st.floats(0.3, 2.5),
           density=st.floats(0.5, 2.0),
           log_rho=st.floats(-10.0, -1.0),
           resolution=st.floats(0.03, 0.1),
           theta=st.floats(0.5, TWO_PI - 0.5),
           disk_theta=st.floats(0.0, TWO_PI, exclude_max=True))
    def test_arc_chains_build(self, mobius, loop, T, density, log_rho, resolution, theta,
                              disk_theta):
        spec = sk.MobiusCylinder(T, density) if mobius else sk.FlatCylinder(T, density)
        loop = 0 if mobius else loop
        family = GluedFamily((spec, sk.UnitDisk()), 10.0 ** log_rho,
                             ((Attachment(0, loop=loop, theta=theta),
                               Attachment(1, theta=disk_theta)),))
        comps = prepare_components(family, resolution)
        assert [len(c.interfaces[0].chart_ids) for c in comps] == [meshes.NECK_SEGMENTS + 1] * 2
        mesh = glue(comps, family)
        assert sk.validate_mesh(mesh) == []
        loops = 1 if mobius else 2  # the disk's loop joins the arc's
        assert len(mesh.boundary_loops) == loops
        assert sk.boundary_length(mesh) == pytest.approx(TWO_PI * (loops * density + 1),
                                                         rel=0.02)
