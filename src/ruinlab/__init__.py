"""ruinlab: survival probabilities for the Cramer-Lundberg model with investment.

The survival (non-ruin) probability phi(u) of an insurer that invests its
surplus satisfies a second-order integro-differential equation with strong
singularities at u = 0 and at infinity.  This package solves it for all
parameter regimes:

* main regime (risky investment, premiums): power series at the singular
  point, Taylor-series steps of the equivalent third-order equation, and
  normalization against the finite limit at infinity;
* classical and risk-free regimes (b = 0): closed forms, the latter through
  the upper incomplete gamma function;
* capital-stock regime (no premiums): the same equation without premiums,
  from its Frobenius series at the singular point, normalized by the
  exact Mellin transform of the auxiliary Kummer function.

Independent oracles (an equation residual by quadrature and a Monte Carlo
path simulator) validate every solution route.
"""

from .capitalstock import eta_series, exponents, phi_capital_stock, solve_eta
from .closedform import (
    classical_exact,
    lundberg_coefficient,
    riskfree_exact,
    riskfree_tail,
)
from .errors import (
    ConvergenceError,
    IntegrationError,
    NoSolutionError,
    RuinlabError,
    SolverError,
)
from .model import (
    ModelParams,
    PortfolioSpec,
    Regime,
    RegimeInfo,
    classify_regime,
    effective_params,
    safety_loading_sign,
)
from .odes import (
    LinearOde,
    Trajectory,
    companion_volterra_field,
    eta_ode_field,
    integrate,
    main_ode_field,
)
from .presets import PRESETS, Scenario
from .series import SeriesExpansion, choose_u0, eval_series, series_coeffs_main
from .solution import SolutionGrid, TailFit
from .solver import make_grid, phi_second_derivative_at_zero, solve, solve_main
from .specfun import complete_gamma, log_upper_incomplete_gamma, upper_incomplete_gamma
from .verify import McEstimate, ResidualReport, TailEstimate, ide_residual, mc_survival, tail_exponent

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "IntegrationError",
    "LinearOde",
    "McEstimate",
    "ModelParams",
    "NoSolutionError",
    "PRESETS",
    "PortfolioSpec",
    "Regime",
    "RegimeInfo",
    "ResidualReport",
    "RuinlabError",
    "Scenario",
    "SeriesExpansion",
    "SolutionGrid",
    "SolverError",
    "TailEstimate",
    "TailFit",
    "Trajectory",
    "choose_u0",
    "classical_exact",
    "classify_regime",
    "companion_volterra_field",
    "complete_gamma",
    "effective_params",
    "eta_ode_field",
    "eta_series",
    "eval_series",
    "exponents",
    "ide_residual",
    "integrate",
    "log_upper_incomplete_gamma",
    "lundberg_coefficient",
    "main_ode_field",
    "make_grid",
    "mc_survival",
    "phi_capital_stock",
    "phi_second_derivative_at_zero",
    "riskfree_exact",
    "riskfree_tail",
    "safety_loading_sign",
    "series_coeffs_main",
    "solve",
    "solve_eta",
    "solve_main",
    "tail_exponent",
    "upper_incomplete_gamma",
]
