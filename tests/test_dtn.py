import itertools
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

import steklov as sk
from steklov import dtn, meshes
from steklov.dtn import _block_lanczos as block_lanczos, boundary_mass_vector, build_dtn
from steklov.gluing import BOUNDARY_NECK, INTERIOR_NECK
from steklov.meshes import assemble_mesh

TWO_PI = 2 * math.pi


def equilateral_mesh():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    return assemble_mesh(pts, [[0, 1, 2]], [], np.ones(3))


class TestStiffness:
    def test_equilateral_weights(self):
        K = sk.assemble_stiffness(equilateral_mesh()).toarray()
        off = -0.5 / math.tan(math.pi / 3)
        expect = np.full((3, 3), off)
        np.fill_diagonal(expect, -2 * off)
        assert np.allclose(K, expect, atol=1e-14)
        assert np.allclose(K.sum(axis=1), 0.0, atol=1e-14)

    def test_constants_in_kernel(self, disk_mesh):
        K = sk.assemble_stiffness(disk_mesh)
        ones = np.ones(disk_mesh.n_logical)
        assert np.max(np.abs(K @ ones)) < 1e-12

    def test_conformal_factor_never_enters(self, coarse_disk_mesh):
        K1 = sk.assemble_stiffness(coarse_disk_mesh)
        scaled = sk.with_conformal_factor(
            coarse_disk_mesh, 3.7 * coarse_disk_mesh.conformal_factor)
        K2 = sk.assemble_stiffness(scaled)
        assert (K1 - K2).nnz == 0


def corner_block_stiffness(mesh):
    """Reference cotangent stiffness: a 2x2 block per triangle corner, summed as COO."""
    pts, tri = mesh.vertices, mesh.triangles
    lab = mesh.logical[tri]
    rows, cols, vals = [], [], []
    for corner in range(3):
        i, j = (corner + 1) % 3, (corner + 2) % 3
        e1 = pts[tri[:, i]] - pts[tri[:, corner]]
        e2 = pts[tri[:, j]] - pts[tri[:, corner]]
        w = 0.5 * np.einsum("ij,ij->i", e1, e2) / (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        rows += [lab[:, i], lab[:, j], lab[:, i], lab[:, j]]
        cols += [lab[:, j], lab[:, i], lab[:, i], lab[:, j]]
        vals += [-w, -w, w, w]
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(mesh.n_logical, mesh.n_logical)).tocsr()


@pytest.mark.parametrize("build", [
    lambda: sk.build_disk_mesh(0.05),
    lambda: sk.build_spec_mesh(sk.FlatCylinder(1.0, 1.0), 0.06).mesh,
    lambda: sk.build_mobius_mesh(1.0, 0.06),
    lambda: sk.build_glued_mesh(sk.chain_family([sk.UnitDisk()] * 2, 1e-4, INTERIOR_NECK),
                                0.06),
], ids=["disk", "cylinder", "mobius", "glued"])
def test_edgewise_stiffness_matches_corner_blocks(build, monkeypatch):
    mesh = build()

    def no_census(*args):
        raise AssertionError("edge census rerun after assemble_mesh")

    # the stiffness and the Euler characteristic read the census the mesh keeps
    monkeypatch.setattr(meshes, "_edge_census", no_census)
    sk.euler_characteristic(mesh)
    K, ref = sk.assemble_stiffness(mesh), corner_block_stiffness(mesh)
    assert K.nnz == ref.nnz
    assert abs(K - ref).max() <= 1e-15 * abs(ref).max()


def test_negative_leading_eigenvalue_is_a_solver_failure():
    # a chart far below MIN_CHART_HEIGHT, built past the budget check
    mesh = meshes._grid_component(sk.FlatCylinder(1e-5), 0.1, (), (), ()).mesh
    with pytest.raises(sk.SolverError, match="leading eigenvalue"):
        sk.steklov_spectrum(mesh, 8)


class TestBoundaryMass:
    def test_trace_equals_boundary_length(self, disk_mesh):
        mass = boundary_mass_vector(disk_mesh)
        assert mass.sum() == pytest.approx(sk.boundary_length(disk_mesh), rel=1e-12)

    def test_zero_on_interior_vertices(self, coarse_disk_mesh):
        mass = boundary_mass_vector(coarse_disk_mesh)
        boundary = set().union(*coarse_disk_mesh.boundary_loops)
        interior = [i for i in range(coarse_disk_mesh.n_logical) if i not in boundary]
        assert np.all(mass[interior] == 0.0)
        assert np.all(mass[sorted(boundary)] > 0.0)

    def test_linearity_in_density(self, coarse_disk_mesh):
        m1 = boundary_mass_vector(coarse_disk_mesh)
        m2 = boundary_mass_vector(sk.with_conformal_factor(
            coarse_disk_mesh, 2.0 * coarse_disk_mesh.conformal_factor))
        assert np.allclose(m2, 2.0 * m1, rtol=1e-14)


class TestSchurDtn:
    def test_annihilates_constants(self, cylinder_mesh):
        op = build_dtn(cylinder_mesh)
        n = len(op.boundary_index)
        scale = np.max(np.abs(op.matrix))
        assert np.max(np.abs(op.matrix @ np.ones(n))) <= 1e-10 * scale * n

    def test_symmetric_psd(self, coarse_disk_mesh):
        op = build_dtn(coarse_disk_mesh)
        assert np.array_equal(op.matrix, op.matrix.T)
        eigs = np.linalg.eigvalsh(op.matrix)
        assert eigs[0] >= -1e-9 * np.max(np.abs(op.matrix))

    def test_lowest_disk_eigenvalue_near_zero(self, coarse_disk_mesh):
        spec = sk.steklov_spectrum(coarse_disk_mesh, 1)
        assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)


class TestSteklovSpectrum:
    def test_disk_reference_values(self, disk_mesh):
        spec = sk.steklov_spectrum(disk_mesh, 7)
        expect = np.array([0, 1, 1, 2, 2, 3, 3], dtype=float)
        scale = np.maximum(expect, 1e-6)
        assert np.max(np.abs(spec.eigenvalues - expect) / scale) < 5e-3

    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 5.0])
    def test_cylinder_matches_closed_form(self, T):
        mesh = sk.build_spec_mesh(sk.FlatCylinder(T, 1.0), 0.05).mesh
        fem = sk.steklov_spectrum(mesh, 10)
        exact = sk.cylinder_spectrum(T, count=10)
        scale = np.maximum(exact.eigenvalues, 1e-6)
        assert np.max(np.abs(fem.eigenvalues - exact.eigenvalues) / scale) < 5e-3

    def test_mobius_matches_closed_form(self, mobius_mesh):
        fem = sk.steklov_spectrum(mobius_mesh, 6)
        exact = sk.mobius_spectrum(1.0, count=6)
        scale = np.maximum(exact.eigenvalues, 1e-6)
        assert np.max(np.abs(fem.eigenvalues - exact.eigenvalues) / scale) < 5e-3

    def test_count_bounds(self, coarse_disk_mesh):
        n_b = len(build_dtn(coarse_disk_mesh).boundary_index)
        with pytest.raises(sk.InvalidParameterError):
            sk.steklov_spectrum(coarse_disk_mesh, n_b + 1)
        with pytest.raises(sk.InvalidParameterError):
            sk.steklov_spectrum(coarse_disk_mesh, 0)

    def test_convergence_under_refinement(self):
        expect = np.array([0, 1, 1, 2, 2, 3, 3, 4], dtype=float)
        errors = []
        for res in (0.1, 0.05):
            spec = sk.steklov_spectrum(sk.build_disk_mesh(res), 8)
            scale = np.maximum(expect, 1.0)
            errors.append(np.sum(np.abs(spec.eigenvalues - expect) / scale))
        # empirical rate at least first order; quadratic in practice
        assert errors[1] <= 0.6 * errors[0]

    def test_homothety_covariance(self, coarse_disk_mesh):
        op = build_dtn(coarse_disk_mesh)
        base = op.spectrum(6)
        c = 2.5
        scaled = op.spectrum(6, conformal=c * coarse_disk_mesh.conformal_factor)
        assert np.allclose(scaled.eigenvalues, base.eigenvalues / c, rtol=1e-12)
        assert scaled.boundary_length == pytest.approx(c * base.boundary_length)
        assert np.allclose(scaled.normalized, base.normalized, rtol=1e-10)

    def test_interior_conformal_change_is_invisible(self, coarse_disk_mesh):
        op = build_dtn(coarse_disk_mesh)
        base = op.spectrum(6)
        lam = coarse_disk_mesh.conformal_factor.copy()
        boundary = set().union(*coarse_disk_mesh.boundary_loops)
        for i in range(coarse_disk_mesh.n_logical):
            if i not in boundary:
                lam[i] = 9.0
        changed = op.spectrum(6, conformal=lam)
        assert np.array_equal(base.eigenvalues, changed.eigenvalues)
        assert base.boundary_length == changed.boundary_length


def rayleigh_quotient(mesh, trace):
    """f' DtN f / f' M_b f for a boundary trace f, indexed like the DtN's boundary."""
    op = build_dtn(mesh)
    mass = boundary_mass_vector(mesh)[op.boundary_index]
    f = np.asarray(trace, dtype=float)
    return float(f @ (op.matrix @ f)) / float(f @ (mass * f))


class TestRayleigh:
    def test_first_eigenvector_reproduces_sigma1(self, coarse_disk_mesh):
        spec = sk.steklov_spectrum(coarse_disk_mesh, 3, want_vectors=True)
        q = rayleigh_quotient(coarse_disk_mesh, spec.eigenvectors[:, 1])
        assert q == pytest.approx(spec.eigenvalues[1], rel=1e-9)

    def test_constant_trace(self, coarse_disk_mesh):
        op = build_dtn(coarse_disk_mesh)
        q = rayleigh_quotient(coarse_disk_mesh, np.ones(len(op.boundary_index)))
        assert abs(q) < 1e-10

    def test_cos_theta_trace(self, disk_mesh):
        op = build_dtn(disk_mesh)
        reps = _chart_of(disk_mesh, op.boundary_index)
        angles = np.arctan2(disk_mesh.vertices[reps, 1], disk_mesh.vertices[reps, 0])
        q = rayleigh_quotient(disk_mesh, np.cos(angles))
        assert q == pytest.approx(1.0, rel=5e-3)

    def test_minmax_upper_bound_after_deflation(self, coarse_disk_mesh):
        # traces M-orthogonal to the first k eigenvectors have quotient >= sigma_k
        k = 3
        spec = sk.steklov_spectrum(coarse_disk_mesh, k + 1, want_vectors=True)
        op = build_dtn(coarse_disk_mesh)
        mass = boundary_mass_vector(coarse_disk_mesh)[op.boundary_index]
        rng = np.random.default_rng(12)
        for _ in range(5):
            f = rng.standard_normal(len(op.boundary_index))
            for j in range(k):
                u = spec.eigenvectors[:, j]
                f -= (f @ (mass * u)) / (u @ (mass * u)) * u
            assert rayleigh_quotient(coarse_disk_mesh, f) >= \
                spec.eigenvalues[k] * (1 - 1e-9)


def disk_plus_pillow(disk):
    """A disk plus a boundaryless pillow: two triangles glued on all edges."""
    pillow_pts = np.array([[3.0, 0.0], [4.0, 0.0], [3.5, 1.0],
                           [3.0, 0.0], [4.0, 0.0], [3.5, 1.0]]) + 0.0
    pillow_pts[3:] += [2.0, 0.0]
    n0 = disk.n_chart
    pts = np.vstack([disk.vertices, pillow_pts])
    tris = np.vstack([disk.triangles, [[n0, n0 + 1, n0 + 2],
                                       [n0 + 3, n0 + 4, n0 + 5]]])
    idents = np.array([[n0, n0 + 3], [n0 + 1, n0 + 4], [n0 + 2, n0 + 5]])
    return assemble_mesh(pts, tris, idents, np.ones(len(pts)))


class TestGrounding:
    def test_closed_component_is_grounded(self, coarse_disk_mesh):
        union = disk_plus_pillow(coarse_disk_mesh)
        spec = sk.steklov_spectrum(union, 6)
        reference = sk.steklov_spectrum(coarse_disk_mesh, 6)
        assert np.allclose(spec.eigenvalues, reference.eigenvalues, atol=1e-12)

    def test_closed_component_through_both_paths(self, coarse_disk_mesh, monkeypatch):
        union = disk_plus_pillow(coarse_disk_mesh)
        dense = build_dtn(union).spectrum(6, want_vectors=True)
        monkeypatch.setattr(dtn, "schur_dtn", _forbidden)
        pencil = sk.steklov_spectrum(union, 6, want_vectors=True)
        assert np.allclose(pencil.eigenvalues, dense.eigenvalues, rtol=1e-12, atol=1e-12)
        assert pencil.eigenvectors.shape == dense.eigenvectors.shape


def _forbidden(*args, **kwargs):
    raise AssertionError("dense Schur reduction called")


def _routes(caplog):
    """The routes `steklov_spectrum` logged, by the text before each message's colon."""
    return [r.getMessage().split(":")[0] for r in caplog.records if r.name == "steklov.dtn"]


@pytest.fixture(scope="module")
def boundary_neck_mesh():
    family = sk.chain_family([sk.UnitDisk(), sk.UnitDisk()], 0.025, BOUNDARY_NECK)
    return sk.build_glued_mesh(family, 0.05)


@pytest.fixture(scope="module")
def interior_neck_mesh():
    family = sk.chain_family([sk.UnitDisk(), sk.UnitDisk()], 1e-9, INTERIOR_NECK)
    return sk.build_glued_mesh(family, 0.05)


class TestPencil:
    """The sparse shift-invert pencil against the dense Schur DtN."""

    @pytest.fixture(params=["coarse_disk_mesh", "cylinder_mesh", "mobius_mesh"])
    def mesh(self, request):
        return request.getfixturevalue(request.param)

    @pytest.mark.parametrize("mesh, count", [
        pytest.param("coarse_disk_mesh", 8, id="coarse_disk_mesh"),
        pytest.param("cylinder_mesh", 8, id="cylinder_mesh"),
        pytest.param("mobius_mesh", 8, id="mobius_mesh"),
        pytest.param("boundary_neck_mesh", 6, id="boundary_neck_mesh"),
        pytest.param("interior_neck_mesh", 6, id="interior_neck_mesh"),
    ], indirect=["mesh"])
    def test_eigenvalues_match_dense(self, mesh, count):
        pencil = sk.steklov_spectrum(mesh, count)
        dense = build_dtn(mesh).spectrum(count)
        scale = np.max(dense.eigenvalues)
        assert np.allclose(pencil.eigenvalues, dense.eigenvalues, rtol=1e-12,
                           atol=1e-12 * scale)
        assert pencil.boundary_length == pytest.approx(dense.boundary_length, rel=1e-14)

    @pytest.mark.parametrize("resolution", [0.1, 0.07, 0.05])
    def test_count_splitting_a_degenerate_pair(self, resolution):
        # sigma_7 = sigma_8 is a rotation pair, and count = 8 cuts it in half
        mesh = sk.build_spec_mesh(sk.FlatCylinder(0.5), resolution).mesh
        pencil = sk.steklov_spectrum(mesh, 8)
        dense = build_dtn(mesh).spectrum(8)
        scale = np.max(dense.eigenvalues)
        assert np.allclose(pencil.eigenvalues, dense.eigenvalues, rtol=1e-12,
                           atol=1e-12 * scale)

    def test_simple_traces_agree_up_to_sign(self, mesh):
        pencil = sk.steklov_spectrum(mesh, 8, want_vectors=True)
        # one eigenvalue more, so that a pair split at the cut is not taken as simple
        dense = build_dtn(mesh).spectrum(9, want_vectors=True)
        assert np.array_equal(pencil.boundary_index, dense.boundary_index)
        mass = boundary_mass_vector(mesh)[dense.boundary_index]
        simple = [c[0] for c in dense.clusters if len(c) == 1 and c[0] < 8]
        assert simple
        for j in simple:
            overlap = pencil.eigenvectors[:, j] @ (mass * dense.eigenvectors[:, j])
            assert abs(overlap) == pytest.approx(1.0, abs=1e-8)

    # the neck sides' lumped masses lie far below the disks' ones (rho 1e-8) or
    # underflow to 0 (rho 5e-324): the dense route takes the pencil's shift-invert
    # form there, and its traces still cover every boundary vertex, massless or not
    @pytest.mark.parametrize("rho", [1e-8, 5e-324])
    def test_massless_boundary_vertices_match_the_pencil(self, rho):
        family = sk.chain_family([sk.UnitDisk(), sk.UnitDisk()], rho, BOUNDARY_NECK)
        mesh = sk.build_glued_mesh(family, 0.1)
        pencil = sk.steklov_spectrum(mesh, 6, want_vectors=True)
        dense = build_dtn(mesh).spectrum(6, want_vectors=True)
        mass = boundary_mass_vector(mesh)[dense.boundary_index]
        assert mass.min() < 1e-3 * mass.max()
        assert np.any(mass == 0) == (rho < 1e-300)
        assert dense.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert dense.eigenvalues[1:] == pytest.approx(pencil.eigenvalues[1:], rel=1e-10)
        assert dense.eigenvectors.shape == (len(mass), 6)
        for j in (1, 2):  # simple: the traces agree up to sign on every vertex
            u, v = pencil.eigenvectors[:, j], dense.eigenvectors[:, j]
            v = v * np.sign(u @ (mass * v))
            assert np.max(np.abs(u - v)) <= 1e-8 * np.max(np.abs(u))

    # alike disks on a boundary neck have exactly double eigenvalues, one mode on
    # each disk vanishing at the neck; single-vector Lanczos returned sigma_4 =
    # 1.0401 in place of the second copy of sigma_3 = 1.00025 in the first case
    @pytest.mark.parametrize("n_disks, rho, resolution, count", [
        (2, 1e-10, 0.06, 5), (2, 1e-300, 0.06, 5), (3, 1e-300, 0.06, 8)])
    def test_alike_disks_keep_both_copies(self, n_disks, rho, resolution, count):
        family = sk.chain_family([sk.UnitDisk()] * n_disks, rho, BOUNDARY_NECK)
        mesh = sk.build_glued_mesh(family, resolution)
        pencil = sk.steklov_spectrum(mesh, count).eigenvalues
        dense = build_dtn(mesh).spectrum(count).eigenvalues
        assert pencil[1:] == pytest.approx(dense[1:], rel=1e-10)

    def test_reruns_bit_identical(self, coarse_disk_mesh):
        first = sk.steklov_spectrum(coarse_disk_mesh, 8, want_vectors=True)
        second = sk.steklov_spectrum(coarse_disk_mesh, 8, want_vectors=True)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    # coarse disk: 63 boundary DOFs, so count 21 is the largest that Lanczos takes
    @pytest.mark.parametrize("count, spoiled", [
        pytest.param(8, "lanczos", id="lanczos-misses"),
        pytest.param(21, "lanczos", id="lanczos-misses-at-count-21"),
        pytest.param(8, "contract", id="both-routes-miss"),
    ])
    def test_residual_miss_takes_dense_route(self, coarse_disk_mesh, monkeypatch, caplog,
                                             count, spoiled):
        wanted = []

        def spoiled_lanczos(op, n, k):
            theta, y = block_lanczos(op, n, k)
            wanted.append(k)
            return theta, (y + 1e-3 if spoiled == "lanczos" else y)

        monkeypatch.setattr(dtn, "_block_lanczos", spoiled_lanczos)
        caplog.set_level(logging.DEBUG, logger="steklov.dtn")
        if spoiled == "contract":  # no residual can meet a zero tolerance
            monkeypatch.setattr(dtn, "RESIDUAL_RTOL", 0.0)
            with pytest.raises(sk.SolverError, match="residual"):
                sk.steklov_spectrum(coarse_disk_mesh, count)
        else:
            spec = sk.steklov_spectrum(coarse_disk_mesh, count)
            dense = build_dtn(coarse_disk_mesh).spectrum(count)
            assert np.array_equal(spec.eigenvalues, dense.eigenvalues)
        assert wanted == [count]
        assert _routes(caplog) == ["dense DtN"]

    # Moebius bands at density 0.01 where Lanczos misses the residual contract
    # (1.5e-10 to 3e-10) and the dense route meets it
    @pytest.mark.parametrize("T, resolution", [(0.1, 0.05), (0.1, 0.1), (2.0, 0.1)])
    def test_natural_residual_miss_returns_the_dense_spectrum(self, caplog, T, resolution):
        mesh = sk.build_spec_mesh(sk.MobiusCylinder(T, 0.01), resolution).mesh
        caplog.set_level(logging.DEBUG, logger="steklov.dtn")
        spec = sk.steklov_spectrum(mesh, 12)
        assert _routes(caplog) == ["dense DtN"]
        assert np.array_equal(spec.eigenvalues, build_dtn(mesh).spectrum(12).eigenvalues)

    def test_full_count_takes_dense_route(self, coarse_disk_mesh, monkeypatch, caplog):
        n_b = len(build_dtn(coarse_disk_mesh).boundary_index)
        dense = build_dtn(coarse_disk_mesh).spectrum(n_b)
        monkeypatch.setattr(dtn, "_block_lanczos", _forbidden)
        caplog.set_level(logging.DEBUG, logger="steklov.dtn")
        spec = sk.steklov_spectrum(coarse_disk_mesh, n_b)
        assert _routes(caplog) == ["dense DtN"]
        assert np.array_equal(spec.eigenvalues, dense.eigenvalues)

    def test_first_attempt_logs_nothing(self, coarse_disk_mesh, caplog):
        caplog.set_level(logging.DEBUG, logger="steklov.dtn")
        sk.steklov_spectrum(coarse_disk_mesh, 8)
        assert caplog.records == []


@pytest.mark.slow
class TestRouteScan:
    """The CLI's FEM ranges of --surface, --density, --T, --resolution and
    --count (`pytest -m slow`, 250 meshes at 3 counts each): wherever the
    dense DtN meets the residual contract, `steklov_spectrum` returns too."""

    def test_pencil_meets_the_contract_where_the_dense_route_does(self):
        misses = []
        for surface, density, T, resolution in itertools.product(
                [sk.FlatCylinder, sk.MobiusCylinder], [0.01, 0.1, 1.0, 10.0, 100.0],
                [1e-3, 1e-2, 0.1, 0.5, 2.0], [0.05, 0.07, 0.1, 0.2, 0.3]):
            mesh = sk.build_spec_mesh(surface(T, density), resolution).mesh
            operator = build_dtn(mesh)
            for count in (6, 8, 12):
                try:
                    operator.spectrum(count)
                except sk.SolverError:
                    continue
                try:
                    sk.steklov_spectrum(mesh, count)
                except sk.SolverError as exc:
                    misses.append((surface.__name__, density, T, resolution, count, str(exc)))
        assert misses == []


def disk_and_cylinder(disk, cylinder):
    """Disjoint union of a disk and a cylinder as one mesh (an elimination forest)."""
    n0 = disk.n_chart
    return assemble_mesh(
        np.vstack([disk.vertices, cylinder.vertices + [3.0, 0.0]]),
        np.vstack([disk.triangles, cylinder.triangles + n0]),
        np.vstack([disk.identifications, cylinder.identifications + n0]),
        np.concatenate([disk.chart_density, cylinder.chart_density]))


def dense_rhs_dtn(mesh):
    """K_bb - K_bi K_ii^{-1} K_ib by a solve against the dense K_ib."""
    K = sk.assemble_stiffness(mesh)
    b = dtn._boundary_index(mesh)
    interior = np.setdiff1d(np.arange(mesh.n_logical), b)
    pins = np.searchsorted(interior, dtn._grounding_pins(K, b))
    A_ii = dtn._ground(K[interior][:, interior], pins)
    X = splu(A_ii).solve(K[interior][:, b].toarray())
    return K[b][:, b].toarray() - K[b][:, interior] @ X


class TestBoundaryLastSchur:
    """schur_dtn's boundary-last factorization against the dense-RHS formula."""

    @pytest.fixture(params=["coarse_disk_mesh", "cylinder_mesh", "mobius_mesh",
                            "boundary_neck_mesh", "interior_neck_mesh",
                            "disk_plus_pillow", "disk_and_cylinder"])
    def mesh(self, request):
        if request.param == "disk_plus_pillow":
            return disk_plus_pillow(request.getfixturevalue("coarse_disk_mesh"))
        if request.param == "disk_and_cylinder":
            return disk_and_cylinder(request.getfixturevalue("coarse_disk_mesh"),
                                     request.getfixturevalue("cylinder_mesh"))
        return request.getfixturevalue(request.param)

    def test_matches_dense_rhs_formula(self, mesh):
        reference = dense_rhs_dtn(mesh)
        matrix = build_dtn(mesh).matrix
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(matrix - reference)) <= 1e-13 * scale

    def test_interior_ordering_matches_full_lu(self, mesh, monkeypatch):
        K = sk.assemble_stiffness(mesh)
        b = dtn._boundary_index(mesh)
        matrix = sk.schur_dtn(K, b)
        orderings = []

        def full_lu(A, drop_tol, fill_factor, **options):
            lu = splu(A, **options)
            incomplete = spilu(A, drop_tol=drop_tol, fill_factor=fill_factor, **options)
            orderings.append((lu.perm_c, incomplete.perm_c))
            return lu

        monkeypatch.setattr(dtn, "spilu", full_lu)
        assert np.array_equal(sk.schur_dtn(K, b), matrix)
        [(full, incomplete)] = orderings
        assert np.array_equal(full, incomplete)

    def test_reruns_bit_identical(self, coarse_disk_mesh):
        K = sk.assemble_stiffness(coarse_disk_mesh)
        b = dtn._boundary_index(coarse_disk_mesh)
        assert np.array_equal(sk.schur_dtn(K, b), sk.schur_dtn(K, b))

    def test_boundary_length_is_total_mass(self, coarse_disk_mesh):
        rng = np.random.default_rng(3)
        lam = np.exp(0.3 * rng.standard_normal(coarse_disk_mesh.n_logical))
        spec = build_dtn(coarse_disk_mesh).spectrum(4, conformal=lam)
        expect = sk.boundary_length(sk.with_conformal_factor(coarse_disk_mesh, lam))
        assert spec.boundary_length == pytest.approx(expect, rel=1e-14)


# factors the pencil (steklov_spectrum) and the boundary-last matrix (build_dtn)
# of the disks on which relax = panel_size = 30 corrupts SuperLU's heap
FACTOR_GUARD = """
from steklov import build_disk_mesh, build_dtn, steklov_spectrum
for resolution in (0.03, 0.02):
    mesh = build_disk_mesh(resolution)
    steklov_spectrum(mesh, 4)
    build_dtn(mesh)
"""


class TestFactorSettings:
    """`dtn._SPD_FACTOR`'s supernode settings against SuperLU's own defaults."""

    def test_factors_keep_the_heap_intact(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, MALLOC_CHECK_="3", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", FACTOR_GUARD], env=env,
                              capture_output=True, timeout=300)
        assert done.returncode == 0, (done.returncode, done.stderr.decode()[-2000:])

    @pytest.mark.parametrize("mesh, count", [
        pytest.param("coarse_disk_mesh", 8, id="coarse_disk_mesh"),
        pytest.param("cylinder_mesh", 8, id="cylinder_mesh"),
        pytest.param("mobius_mesh", 8, id="mobius_mesh"),
        pytest.param("boundary_neck_mesh", 6, id="boundary_neck_mesh"),
        pytest.param("interior_neck_mesh", 6, id="interior_neck_mesh"),
    ])
    def test_results_match_superlu_defaults(self, mesh, count, request, monkeypatch):
        mesh = request.getfixturevalue(mesh)
        K, b = sk.assemble_stiffness(mesh), dtn._boundary_index(mesh)
        tuned = sk.steklov_spectrum(mesh, count).eigenvalues, sk.schur_dtn(K, b)
        defaults = {key: value for key, value in dtn._SPD_FACTOR.items()
                    if key not in ("relax", "panel_size")}
        assert defaults != dtn._SPD_FACTOR
        monkeypatch.setattr(dtn, "_SPD_FACTOR", defaults)
        plain = sk.steklov_spectrum(mesh, count).eigenvalues, sk.schur_dtn(K, b)
        scale = np.max(plain[0])
        assert np.allclose(tuned[0], plain[0], rtol=1e-12, atol=1e-12 * scale)
        assert np.max(np.abs(tuned[1] - plain[1])) <= 1e-12 * np.max(np.abs(plain[1]))


def _chart_of(mesh, logical_ids):
    rep = np.zeros(mesh.n_logical, dtype=np.int64)
    rep[mesh.logical[::-1]] = np.arange(mesh.n_chart - 1, -1, -1)
    return rep[logical_ids]
