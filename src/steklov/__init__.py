"""Steklov spectra of two-dimensional surfaces with boundary.

Closed-form circle-invariant spectra on the flat cylinder and Moebius band, a
P1 finite-element Dirichlet-to-Neumann oracle on conformally flat triangle
meshes, neck-gluing degenerations, and the experiments comparing glued
configurations against circle-invariant suprema.
"""

from .closed_form import (Branch, Constant, SupremumResult, all_constants,
                          constant_T10, constant_Tk1, constant_tk,
                          critical_catenoid_metric, critical_mobius_metric,
                          cylinder_spectrum, disk_spectrum, cylinder_sigma2bar_deficit,
                          invariant_supremum, mobius_spectrum,
                          solve_bracketed_root, spectrum_for)
from .dtn import (DtnOperator, assemble_stiffness, build_dtn, schur_dtn,
                  steklov_spectrum)
from .errors import (AssemblyError, BracketError, FactorizationError,
                     InvalidGluingError, InvalidParameterError, ResolutionError,
                     SolverError, SteklovError)
from .experiments import (ComparisonRecord, SweepResult, SweepRow,
                          annulus_self_glued, bound_check, chain_family,
                          cutoff_energy_law, glue_sweep, glued_limit_spectrum,
                          interior_glue_sweep, neck_mass_diagnostic,
                          noninvariant_comparison, touching_disks_sharpness)
from .gluing import (Attachment, GluedFamily, build_glued_mesh, glue, prepare_components)
from .meshes import (FlatCylinder, MobiusCylinder, SurfaceMesh, UnitDisk,
                     boundary_length, build_disk_mesh, build_log_annulus_mesh,
                     build_mobius_mesh, build_spec_mesh, euler_characteristic,
                     validate_mesh, with_conformal_factor)
from .spectra import EMPTY, Spectrum, make_spectrum, merge_spectra

__version__ = "0.1.0"
