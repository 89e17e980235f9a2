"""Factorization-based solver and verification suite for shape-invariant tanh/sech wells."""

from .coordinate_maps import (
    ChartDomainError, chart_grid, chart_interval, first_derivative_coefficient,
    theta_of_z, w_of_z, z_of_theta,
)
from .fd_oracle import (
    Grid, NumericalError, ScatteringResult, TridiagonalOperator,
    bound_state_eigenvalues, discretize, scattering_amplitudes,
    sech_well_reflection_exact,
)
from .orthopoly import (
    ProportionalityError, assoc_legendre, check_gegenbauer_identity,
    check_legendre_identity, gegenbauer_poly, jacobi_poly, legendre_poly,
    proportionality_constant,
)
from .potentials import PoschlTeller, RosenMorseII, potential_values
from .spectra import (
    GegenbauerReduction, gamma_deformed_residual, gegenbauer_spectrum,
    rosen_morse_eigenfunction,
)
from .susy_core import (
    ClosedFormSuperpotential, PartnerPair, partner_potentials, riccati_residual,
    shape_invariance_remainder, si_level_energy,
)
from .tanh_algebra import (
    HypWave, TanhPoly, as_fraction, eigen_residual_symbolic, eval_wave, ladder_chain,
    ladder_tower,
)

__version__ = "0.1.0"
