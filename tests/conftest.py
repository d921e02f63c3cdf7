import pytest

from steklov import FlatCylinder, build_disk_mesh, build_mobius_mesh, build_spec_mesh


@pytest.fixture(scope="session")
def disk_mesh():
    return build_disk_mesh(0.05)


@pytest.fixture(scope="session")
def coarse_disk_mesh():
    return build_disk_mesh(0.1)


@pytest.fixture(scope="session")
def cylinder_mesh():
    return build_spec_mesh(FlatCylinder(1.0, 1.0), 0.06).mesh


@pytest.fixture(scope="session")
def mobius_mesh():
    return build_mobius_mesh(1.0, 0.06)
