import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steklov as sk
from steklov import closed_form, gluing, meshes
from steklov.gluing import Attachment, GluedFamily, glue, prepare_components
from steklov.meshes import ArcSite, HoleSite
from steklov.experiments import annulus_self_glued, chain_family

TWO_PI = 2 * math.pi
FOUR_PI = 4 * math.pi


def two_disks(rho, kind="boundary-square"):
    return chain_family([sk.UnitDisk(), sk.UnitDisk()], rho, kind)


def arc_nodes(reach, resolution):
    """Nodes of an arc's ring: max(NECK_SEGMENTS, round(pi R / h)) segments."""
    return max(meshes.NECK_SEGMENTS, round(math.pi * reach / resolution)) + 1


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

    # arcs this small once lost points in Qhull; a flat collar now carries them,
    # and the component meets only its ring at the reach ARC_REACH
    @pytest.mark.parametrize("rho", [1e-6, 1e-7])
    def test_tiny_arcs_build(self, rho):
        family = two_disks(rho)
        for comp in prepare_components(family, 0.03):
            assert comp.sizes == (meshes.ARC_REACH,)
            assert [len(i) for i in comp.interfaces] == [arc_nodes(meshes.ARC_REACH, 0.03)]
        mesh = glue(prepare_components(family, 0.03), family)
        assert sk.validate_mesh(mesh) == []
        assert sk.boundary_length(mesh) == pytest.approx(FOUR_PI, abs=1e-2)

    # the collar, the square and the mesh about the arc all refine with h: sigma_1
    # of a boundary neck converges at order >= 1.5 (with half-collars it moved
    # 0.21% per halving of h, order about 0)
    def test_sigma1_converges_in_h(self):
        sigma = [sk.steklov_spectrum(sk.build_glued_mesh(two_disks(1e-3), h), 2).eigenvalues[1]
                 for h in (0.06, 0.03, 0.015)]
        assert abs(sigma[0] - sigma[1]) >= 2.8 * abs(sigma[1] - sigma[2])

    # sigma_2..sigma_5 converge at order 1.5 or more too, with the square's half rows
    def test_higher_sigmas_converge_in_h(self):
        sigma = np.array([sk.steklov_spectrum(sk.build_glued_mesh(two_disks(1e-3), h),
                                              6).eigenvalues[2:6] for h in (0.06, 0.03, 0.015)])
        assert np.all(np.abs(sigma[0] - sigma[1]) >= 2.8 * np.abs(sigma[1] - sigma[2]))

    def test_overlapping_half_collars_rejected(self):
        # 1e-4 apart passes the clearance check at rho 1e-10, but the two arcs'
        # floors, ARC_FLOOR = 2.5e-4 along the circle each, overlap
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

    # a grid chart's theta seam is refused before any chart is meshed: an arc's
    # floor max(w, ARC_FLOOR), w = rho / density, may not reach it, and its reach
    # shrinks to a quarter of its distance to the seam, or to w (the half-collar
    # of reach 1e-3 that refused theta = 5e-4 is gone)
    @pytest.mark.parametrize("grid, rho, theta, refused", [
        (sk.FlatCylinder(1.0), 0.05, 0.01, True),
        (sk.MobiusCylinder(1.0), 0.05, 6.25, True),
        (sk.FlatCylinder(1.0), 1e-8, 5e-4, False),
        (sk.FlatCylinder(1.0), 0.05, 0.2, False),
        (sk.MobiusCylinder(1.0), 1e-8, 2e-3, False),
    ], ids=["cylinder-0.01", "mobius-6.25", "collar-5e-4", "cylinder-0.2", "collar-2e-3"])
    def test_grid_arc_across_the_seam_refused_up_front(self, grid, rho, theta, refused,
                                                        monkeypatch):
        family = GluedFamily((sk.UnitDisk(), grid), rho,
                             ((Attachment(0, theta=1.0), Attachment(1, theta=theta)),))
        if not refused:
            assert sk.validate_mesh(sk.build_glued_mesh(family, 0.1)) == []
            return

        def meshed(*args, **kwargs):
            raise AssertionError("a chart was meshed before the seam check")

        monkeypatch.setattr(gluing, "mesh_placed", meshed)
        with pytest.raises(sk.InvalidGluingError, match="seam"):
            sk.build_glued_mesh(family, 0.1)


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
                     "chart_density", "boundary_edge_chart"):
            assert np.array_equal(getattr(shared, name), getattr(separate, name))
        assert shared.boundary_loops == separate.boundary_loops

    # `meshes._disk_component` turns a disk to put its first arc on a circle node,
    # so alike disks are meshed once and the others get that mesh turned: it glues
    # like disks built apart, up to rounding
    @pytest.mark.parametrize("n_disks, builds", [(2, 1), (3, 2)],
                             ids=["two-disks-boundary", "three-disks-boundary"])
    def test_alike_disks_meshed_once_and_turned(self, n_disks, builds):
        family, h = chain_family([sk.UnitDisk()] * n_disks, 0.05), 0.05
        with mock.patch.object(meshes, "_disk_component", wraps=meshes._disk_component) as built:
            turned = glue(prepare_components(family, h), family)
        assert built.call_count == builds
        assert sk.validate_mesh(turned) == []
        sites = [[] for _ in family.components]
        for pair in family.pairs:
            for att in pair:
                sites[att.component].append(ArcSite(att.loop, att.theta, family.rho))
        separate = glue([sk.build_spec_mesh(sk.UnitDisk(), h, arcs) for arcs in sites], family)
        a, b = np.sort(turned.edge_weights), np.sort(separate.edge_weights)
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
        sigma, want = (sk.steklov_spectrum(m, 8).eigenvalues[1:] for m in (turned, separate))
        assert sigma == pytest.approx(want, rel=1e-12)

    # a rim's segments once followed the physical rho while the ring sat at
    # chart radius rho / lambda, so rims on charts of density 0.5 had 1.99h edges
    @pytest.mark.parametrize("components, ends", [
        ((sk.FlatCylinder(2.0, 0.5),), ((0, (0.5 * math.pi, 1.0)), (0, (1.5 * math.pi, 1.0)))),
        ((sk.UnitDisk(), sk.FlatCylinder(3.0, 0.5)), ((0, (0.0, 0.0)), (1, (3.0, 1.5)))),
    ], ids=["self-glued-cylinder", "disk-cylinder"])
    def test_rim_edges_keep_the_resolution(self, components, ends):
        h = 0.03
        pair = tuple(Attachment(c, point=p) for c, p in ends)
        family = GluedFamily(components, 0.1, (pair,), "interior-cylinder")
        comps = prepare_components(family, h)
        rims = [comp.vertices[ring] for comp in comps for ring in comp.interfaces]
        assert len(rims) == 2 and len(rims[0]) == len(rims[1])
        for rim in rims:
            edges = np.linalg.norm(rim - np.roll(rim, 1, axis=0), axis=1)
            assert edges.max() <= 1.05 * h
        assert sk.validate_mesh(glue(comps, family)) == []

    @pytest.mark.parametrize("family", [
        two_disks(0.05), chain_family([sk.UnitDisk()] * 3, 0.05, "interior-cylinder"),
        annulus_self_glued(1.0, 1e-3),
    ], ids=["two-disks-boundary", "three-disks-interior", "self-glued-cylinder"])
    def test_each_chart_placed_once(self, family):
        calls, place = [], meshes.place_sites

        def counted(*args):
            calls.append(args[0])
            return place(*args)

        with mock.patch.object(gluing, "place_sites", counted), \
                mock.patch.object(meshes, "place_sites", counted):
            sk.build_glued_mesh(family, 0.1)
        assert calls == list(family.components)

    def test_charts_keep_their_coordinates(self):
        # a chart shifted by an offset of order 1 would round its coordinates,
        # of scale rho around the rim, to that offset's ulp
        family = two_disks(1e-9, "interior-cylinder")
        comps = prepare_components(family, 0.03)
        mesh = glue(comps, family)
        starts = np.cumsum([0] + [len(c.vertices) for c in comps])
        for comp, start in zip(comps, starts):
            assert mesh.vertices[start:start + len(comp.vertices)].tobytes() \
                == comp.vertices.tobytes()

    # two unit disks joined at their centres by a tube of circumference 2 pi rho
    # and length 2 rho are conformally the flat cylinder of height 2 log(1/rho) + 2
    @pytest.mark.parametrize("rho", [1e-2, 1e-9, 1e-50, 1e-200])
    def test_exact_interior_neck_reference(self, rho):
        exact = sk.cylinder_spectrum(2.0 * math.log(1.0 / rho) + 2.0, count=7).eigenvalues[1:]
        worst = {}
        for h in (0.06, 0.03):
            mesh = sk.build_glued_mesh(two_disks(rho, "interior-cylinder"), h)
            got = sk.steklov_spectrum(mesh, 7).eigenvalues[1:]
            worst[h] = np.max(np.abs(got - exact) / exact)
        assert worst[0.03] <= 1e-3
        assert worst[0.03] <= worst[0.06] / 3.0

    def test_components_do_not_depend_on_rho(self):
        # rims sit at RIM_RADIUS below it: rho reaches only the neck chart's height
        coarse, fine = (prepare_components(two_disks(rho, "interior-cylinder"), 0.03)
                        for rho in (1e-3, 1e-9))
        for a, b in zip(coarse, fine):
            assert a.density == b.density and len(a.interfaces) == len(b.interfaces)
            for x, y in zip((a.vertices, a.triangles, a.identifications, *a.interfaces),
                            (b.vertices, b.triangles, b.identifications, *b.interfaces)):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()

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

    # clearances count from a rim's floor max(rho / lambda, 1e-3), whatever radius it is placed at
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

        monkeypatch.setattr(gluing, "mesh_placed", unexpected)
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
            x, y = comp.vertices[iface].mean(axis=0)
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
            centroid = component.vertices[iface].mean(axis=0)
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

    def test_boundary_densities_of_a_boundary_neck(self):
        # chart order: the catenoid, the disk, each arc's collar, the square
        rho, t10 = 0.1, sk.constant_T10().value
        fam = chain_family([sk.critical_catenoid_metric(), sk.UnitDisk()], rho)
        comps = prepare_components(fam, 0.08)
        mesh = glue(comps, fam)
        n0, n1 = len(comps[0].vertices), len(comps[1].vertices)
        m = len(comps[0].interfaces[0])  # the square's columns
        square = mesh.n_chart - ((m + 1) // 2 + 1) * m  # its first chart vertex
        # a collar's chart starts at its origin (mu, nu) = (0, 0)
        collars = n0 + n1 + np.flatnonzero(np.all(mesh.vertices[n0 + n1:square] == 0.0, axis=1))
        assert len(collars) == 2  # both arcs reach past their half-length
        uv = mesh.boundary_edge_chart
        density = mesh.chart_density[uv]
        lengths = sk.meshes.boundary_edge_lengths(mesh)

        def within(lo, hi):
            return np.all((uv >= lo) & (uv < hi), axis=1)

        assert np.all(density[within(0, n0)] == 1.0 / t10)
        assert np.all(density[within(n0, n0 + n1)] == 1.0)
        assert np.all(density[within(square, mesh.n_chart)] == rho)
        assert lengths[within(square, mesh.n_chart)].sum() == pytest.approx(4.0 * rho, rel=1e-12)
        nu = mesh.vertices[uv, 1]
        for comp, lo, hi, lam in zip(comps, collars, (collars[1], square), (1.0 / t10, 1.0)):
            for side in (0.0, math.pi):
                on = within(lo, hi) & np.all(nu == side, axis=1)
                assert lengths[on].sum() == pytest.approx(lam * (comp.sizes[0] - rho / lam),
                                                          rel=1e-12)


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
        reach = max(c.sizes[0] for c in comps)  # both ends count from the wider
        assert [len(c.interfaces[0]) for c in comps] == [arc_nodes(reach, resolution)] * 2
        mesh = glue(comps, family)
        assert sk.validate_mesh(mesh) == []
        loops = 1 if mobius else 2  # the disk's loop joins the arc's
        assert len(mesh.boundary_loops) == loops
        assert sk.boundary_length(mesh) == pytest.approx(TWO_PI * (loops * density + 1),
                                                         rel=0.02)


# families the parent refused only after meshing the charts before the bad one
LATE_REFUSALS = {
    "half-collars 1e-4 apart": (GluedFamily(
        (sk.UnitDisk(), sk.UnitDisk()), 1e-10,
        ((Attachment(0, theta=4.0), Attachment(1, theta=1.0)),
         (Attachment(0, theta=1.0), Attachment(1, theta=1.0 + 1e-4)))), sk.InvalidGluingError),
    "rim at (0.999, 0)": (GluedFamily(
        (sk.UnitDisk(), sk.UnitDisk()), 1e-3,
        ((Attachment(0, point=(0.0, 0.0)), Attachment(1, point=(0.999, 0.0))),),
        "interior-cylinder"), sk.InvalidGluingError),
    "disk arc on loop 1": (GluedFamily(
        (sk.UnitDisk(), sk.UnitDisk()), 0.05,
        ((Attachment(0, theta=1.0), Attachment(1, loop=1, theta=1.0)),)),
        sk.InvalidParameterError),
    "cylinder rim at t = 0.001": (GluedFamily(
        (sk.UnitDisk(), sk.FlatCylinder(1.0)), 1e-3,
        ((Attachment(0, point=(0.0, 0.0)), Attachment(1, point=(1.0, 0.001))),),
        "interior-cylinder"), sk.InvalidGluingError),
    "cylinder arc on loop 2": (GluedFamily(
        (sk.UnitDisk(), sk.FlatCylinder(1.0)), 0.05,
        ((Attachment(0, theta=1.0), Attachment(1, loop=2, theta=1.0)),)),
        sk.InvalidParameterError),
}


REFUSALS = (sk.InvalidGluingError, sk.InvalidParameterError)


def _build_refusing_up_front(family, resolution):
    """The glued mesh; a refusal must come before any chart is meshed."""
    with mock.patch.object(gluing, "mesh_placed", wraps=gluing.mesh_placed) as meshed:
        try:
            return sk.build_glued_mesh(family, resolution)
        except REFUSALS:
            assert meshed.call_count == 0, "refused after a chart was meshed"
            raise


# two arcs on one disk, 0.01 apart at rho 1e-3
CLOSE_ARCS = GluedFamily(
    (sk.UnitDisk(), sk.UnitDisk()), 1e-3,
    ((Attachment(0, theta=1.0), Attachment(1, theta=1.0)),
     (Attachment(0, theta=1.01), Attachment(1, theta=4.0))))


# an arc whose floor reaches to 7e-12 of a cylinder's seam: placed at that floor,
# its ring lost a point in Qhull; it is placed at its own half-length instead
SEAM_FLOOR_ARC = GluedFamily(
    (sk.FlatCylinder(1.0),), 1e-4,
    ((Attachment(0, theta=0.0019531250066490108), Attachment(0, theta=0.00025000000664901056)),))


# a three-disk interior chain whose ring layout kept tied cells between band
# vertices, which failed the interface certificate (with its resolution)
TIED_CELLS_CHAIN = (GluedFamily(
    (sk.UnitDisk(),) * 3, 1.995328058182015e-05,
    ((Attachment(0, point=(-0.3713281805322926, -0.2933994878146995)),
      Attachment(1, point=(-0.3194154315583299, -0.2234098057827588))),
     (Attachment(1, point=(-0.2981424902188944, 0.2782810986561523)),
      Attachment(2, point=(0.1187233894662055, -0.12608713787262382)))),
    "interior-cylinder"), 0.04488753618826029)


@st.composite
def gluing_families(draw, interior=st.booleans()):
    """Disks, cylinders and Moebius bands on either neck kind, rho log-uniform
    in [1e-10, 0.3], with arcs clustered near one angle or a seam and rims near
    the edges."""
    interior = draw(interior)
    chart = st.one_of(st.just(sk.UnitDisk()),
                      st.builds(sk.FlatCylinder, st.floats(0.3, 2.0), st.floats(0.5, 2.0)),
                      st.builds(sk.MobiusCylinder, st.floats(0.3, 2.0), st.floats(0.5, 2.0)))
    specs = draw(st.lists(chart, min_size=1, max_size=3))
    rho = 10.0 ** draw(st.floats(-10.0, math.log10(0.3)))
    centre = draw(st.floats(0.0, TWO_PI))
    # an angle near the cluster's centre, near the grid charts' seam, or anywhere
    near = st.one_of(st.floats(-3e-3, 3e-3).map(lambda d: centre + d), st.floats(-3e-3, 3e-3),
                     st.floats(0.0, TWO_PI))
    edge = st.floats(-3.5, -0.5).map(lambda e: 10.0 ** e)  # a distance to an edge

    def attachment():
        c = draw(st.integers(0, len(specs) - 1))
        spec = specs[c]
        if not interior:
            loop = draw(st.integers(0, 1)) if isinstance(spec, sk.FlatCylinder) else 0
            return Attachment(c, loop=loop, theta=draw(near) % TWO_PI)
        if isinstance(spec, sk.UnitDisk):
            r = 1.0 - draw(st.one_of(edge, st.floats(0.1, 1.0)))
            a = draw(near)
            return Attachment(c, point=(r * math.cos(a), r * math.sin(a)))
        x = draw(st.one_of(edge, edge.map(lambda e: TWO_PI - e), st.floats(0.0, TWO_PI)))
        y = draw(st.one_of(edge, edge.map(lambda e: spec.T - e), st.floats(0.0, spec.T)))
        return Attachment(c, point=(x, y))

    pairs = tuple((attachment(), attachment()) for _ in range(draw(st.integers(1, 2))))
    return GluedFamily(tuple(specs), rho, pairs,
                       "interior-cylinder" if interior else "boundary-square")


class TestGluingFamilyProperties:
    """Every family builds a valid mesh, or is refused before any chart is meshed."""

    @settings(max_examples=30, deadline=None)
    @given(family=gluing_families(), resolution=st.floats(0.06, 0.1))
    @example(family=LATE_REFUSALS["half-collars 1e-4 apart"][0], resolution=0.05)
    @example(family=LATE_REFUSALS["rim at (0.999, 0)"][0], resolution=0.05)
    @example(family=LATE_REFUSALS["disk arc on loop 1"][0], resolution=0.05)
    @example(family=LATE_REFUSALS["cylinder rim at t = 0.001"][0], resolution=0.05)
    @example(family=LATE_REFUSALS["cylinder arc on loop 2"][0], resolution=0.05)
    @example(family=CLOSE_ARCS, resolution=0.05)
    @example(family=SEAM_FLOOR_ARC, resolution=0.0625)
    @example(family=TIED_CELLS_CHAIN[0], resolution=TIED_CELLS_CHAIN[1])
    def test_builds_or_is_refused_before_meshing(self, family, resolution):
        try:
            mesh = _build_refusing_up_front(family, resolution)
        except REFUSALS:
            return
        assert sk.validate_mesh(mesh) == []

    @pytest.mark.parametrize("case", list(LATE_REFUSALS))
    def test_late_refusals_come_first(self, case):
        family, error = LATE_REFUSALS[case]
        with pytest.raises(error):
            _build_refusing_up_front(family, 0.05)

    def test_vertex_budget_counts_every_component(self):
        # each disk alone is under the budget at this resolution, the two are not
        with pytest.raises(sk.InvalidParameterError, match="budget"):
            _build_refusing_up_front(two_disks(0.05), 0.0022)


class TestPlacement:
    """`meshes.place_sites` refuses sites for direct builds as for glued ones."""

    @settings(max_examples=60, deadline=None)
    @given(family=gluing_families(interior=st.just(True)))
    def test_placed_rims_keep_their_clearances(self, family):
        for c, spec in enumerate(family.components):
            holes = [HoleSite(att.point, family.rho)
                     for pair in family.pairs for att in pair if att.component == c]
            try:
                placed = meshes.place_sites(spec, (), holes)
            except sk.InvalidGluingError:
                continue
            lam = getattr(spec, "boundary_density", 1.0)
            floor = max(family.rho / lam, meshes.RIM_FLOOR)
            for i, (p, r) in enumerate(placed):
                room = (1.0 - np.linalg.norm(p) if isinstance(spec, sk.UnitDisk)
                        else min(p[0], TWO_PI - p[0], p[1], spec.T - p[1]))
                assert floor <= r <= max(floor, meshes.RIM_RADIUS)
                assert 2.0 * r < room
                for q, s in placed[i + 1:]:
                    assert 4.0 * (r + s) < np.linalg.norm(p - q)

    @pytest.mark.parametrize("arcs, holes", [
        ((ArcSite(0, 1.0, 2.0),), ()),  # rho above a quarter of the clearance 2 pi
        ((), (HoleSite((3.0, 0.5), 1e-7), HoleSite((3.0001, 0.5), 1e-7))),
        ((), (HoleSite((3.0, 0.5), 0.0),)),  # glued families refuse rho <= 0 up front
    ], ids=["rho-2-arc", "close-rims", "rim-rho-0"])
    def test_direct_builds_keep_the_glued_rules(self, arcs, holes):
        spec = sk.UnitDisk() if arcs else sk.FlatCylinder(1.0)
        with pytest.raises(sk.InvalidGluingError):
            sk.build_spec_mesh(spec, 0.05, arcs, holes)

    # a patch once kept points inside a later site's rim or arc, and assembly
    # then found an edge on three triangles
    @pytest.mark.parametrize("d", [11.7e-3, 12.5e-3, 13.3e-3, 25.2e-3, 26.7e-3])
    def test_patches_avoid_every_rim(self, d):
        rims = (HoleSite((0.0, 0.0), 1e-7), HoleSite((d, 0.0), 1e-7))
        assert sk.validate_mesh(sk.build_spec_mesh(sk.UnitDisk(), 0.05, (), rims).mesh) == []

    @pytest.mark.parametrize("gap", [2.05e-3, 2.35e-3, 2.65e-3])
    def test_patches_avoid_every_arc(self, gap):
        arcs = (ArcSite(0, 1.0, 1e-7), ArcSite(0, 1.0 + gap, 1e-7))
        comp = sk.build_spec_mesh(sk.UnitDisk(), 0.05, arcs)
        assert sk.validate_mesh(comp.mesh) == []
        assert sk.boundary_length(comp.mesh) == pytest.approx(TWO_PI, rel=1e-3)


# the presets' glued charts, with each neck kind they take
PRESET_FAMILIES = {
    "two-disks": two_disks,
    "two-disks-interior": lambda rho: two_disks(rho, "interior-cylinder"),
    "mobius-critical": lambda rho: chain_family(
        [closed_form.critical_mobius_metric(), sk.UnitDisk()], rho),
    "catenoid-disk": lambda rho: chain_family(
        [closed_form.critical_catenoid_metric(), sk.UnitDisk()], rho),
    "cylinder-rims": lambda rho: annulus_self_glued(1.0, rho),
}


class TestNecksAtAnyRho:
    """Necks of both kinds on the presets' charts build, pass `validate_mesh`
    and solve at every rho > 0: rho reaches a neck only through its charts'
    heights and boundary densities."""

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(list(PRESET_FAMILIES)),
           rho=st.floats(-323.0, -2.0).map(lambda e: 10.0 ** e)
           | st.sampled_from([5e-324, 1e-300, 1e-16, 1e-12, 1e-10]))
    @example(name="two-disks", rho=5e-324)
    @example(name="two-disks", rho=1e-100)
    @example(name="two-disks", rho=1e-12)
    @example(name="mobius-critical", rho=5e-324)
    @example(name="mobius-critical", rho=1e-100)
    @example(name="mobius-critical", rho=1e-12)
    @example(name="catenoid-disk", rho=5e-324)
    @example(name="catenoid-disk", rho=1e-100)
    @example(name="catenoid-disk", rho=1e-12)
    @example(name="two-disks-interior", rho=5e-324)
    @example(name="cylinder-rims", rho=5e-324)
    def test_builds_and_solves(self, name, rho):
        mesh = _build_refusing_up_front(PRESET_FAMILIES[name](rho), 0.1)
        assert sk.validate_mesh(mesh) == []
        assert np.all(np.isfinite(sk.steklov_spectrum(mesh, 4).eigenvalues))


def three_disk_interior_chains(rng, n):
    """Three unit disks chained by interior necks: holes at radius 0.6 sqrt(U)
    and a uniform angle, resolution uniform in [0.03, 0.1], rho 10^U(-10, -2)."""
    def hole(c):
        r, a = 0.6 * math.sqrt(rng.uniform()), rng.uniform(0.0, TWO_PI)
        return Attachment(c, point=(r * math.cos(a), r * math.sin(a)))

    for _ in range(n):
        resolution, rho = rng.uniform(0.03, 0.1), 10.0 ** rng.uniform(-10.0, -2.0)
        pairs = ((hole(0), hole(1)), (hole(1), hole(2)))
        yield GluedFamily((sk.UnitDisk(),) * 3, rho, pairs, "interior-cylinder"), resolution


def mixed_gluings(rng, n):
    """Arcs on disks, cylinders and Moebius bands, or holes in cylinders: one to
    three charts, one or two necks, rho log-uniform in [1e-10, 0.3] (for half
    the boundary necks in [1e-323, 0.3]), arcs near one angle or anywhere,
    holes near an edge or anywhere, resolution uniform in [0.04, 0.1]."""
    def edge(T):  # a height near either edge of the chart, or anywhere on it
        d = 10.0 ** rng.uniform(-3.5, -0.5)
        return [d, T - d, rng.uniform(0.0, T)][rng.integers(3)]

    for _ in range(n):
        interior = rng.uniform() < 1 / 3
        if interior:
            specs = [sk.FlatCylinder(rng.uniform(0.3, 2.0)) for _ in range(rng.integers(1, 3))]
        else:
            specs = [[sk.UnitDisk(), sk.FlatCylinder(rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0)),
                      sk.MobiusCylinder(rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0))][k]
                     for k in rng.integers(3, size=rng.integers(2, 4))]
        centre = rng.uniform(0.0, TWO_PI)

        def attachment():
            c = int(rng.integers(len(specs)))
            spec = specs[c]
            if interior:
                return Attachment(c, point=(rng.uniform(0.0, TWO_PI), edge(spec.T)))
            loop = int(rng.integers(2)) if isinstance(spec, sk.FlatCylinder) else 0
            near = centre + rng.uniform(-3e-3, 3e-3)
            return Attachment(c, loop=loop, theta=[near, rng.uniform(0.0, TWO_PI)][
                rng.integers(2)] % TWO_PI)

        pairs = tuple((attachment(), attachment()) for _ in range(rng.integers(1, 3)))
        # half the boundary necks reach below 1e-10, down to the subnormal doubles
        low = -10.0 if interior or rng.uniform() < 0.5 else -323.0
        rho = 10.0 ** rng.uniform(low, math.log10(0.3))
        yield (GluedFamily(tuple(specs), rho, pairs,
                           "interior-cylinder" if interior else "boundary-square"),
               rng.uniform(0.04, 0.1))


@pytest.mark.slow
class TestGluingScan:
    """Seeded random gluings (`pytest -m slow`): every one builds a mesh with
    `validate_mesh == []`, or is refused before any chart is meshed."""

    @pytest.mark.parametrize("scan, seed, n", [(three_disk_interior_chains, 1, 600),
                                               (mixed_gluings, 2, 500)],
                             ids=["three-disk interior chains", "mixed gluings"])
    def test_builds_or_is_refused_before_meshing(self, scan, seed, n):
        built = 0
        for i, (family, resolution) in enumerate(scan(np.random.default_rng(seed), n)):
            try:
                mesh = _build_refusing_up_front(family, resolution)
            except REFUSALS:
                continue
            except sk.AssemblyError as exc:
                pytest.fail(f"gluing {i} at resolution {resolution!r}: {exc}\n{family}")
            assert sk.validate_mesh(mesh) == [], (i, resolution, family)
            built += 1
        assert built >= n // 2
