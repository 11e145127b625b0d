"""Mesh-free polynomial Galerkin solver for incompressible flow in rotating,
precessing ellipsoidal containers with slip and stress-type boundary
conditions, plus the verification suite for its neutral-mode and decay
properties."""

from .basis import (Basis, build_basis, curl_form_fields, load_basis, poincare_field,
                    project, save_basis, solid_rotation, stream_cross_field)
from .diagnostics import (CSV_HEADER, DiagnosticsContext, DiagnosticsRecord, TimeSeries,
                          constraint_projection, momentum_balance_residual, record)
from .geometry import (Domain, SurfaceRule, half_monomial_integral, monomial_integral,
                       surface_rule, volume_integral)
from .operators import (BC_FORMS, BoundaryCondition, OperatorSet, advection_term, assemble,
                        dump_operator_set, momentum_coupling_identity, residual)
from .polynomials import Polynomial3, VectorField, remainder_mod
from .spectral import (CoercivityResult, KernelReport, NeutralModes, coercivity_constant,
                       neutral_modes, viscous_kernel)
from .timestepper import (BlowUpError, ScenarioConfig, State, initial_coefficients,
                          integrate, run, step)

__version__ = "0.1.0"
