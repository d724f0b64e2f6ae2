"""Simulation and independence testing for the empirical correlation of
coupled mean-reverting (Ornstein-Uhlenbeck) paths.

Subpackages:
    sde         exact path simulation and closed-form process moments
    estimators  path functionals, the correlation statistic, rate estimate
    hypothesis  independence tests, confidence intervals, type-II bounds
    theory      closed-form constants, cumulants, kernel norms
    exact       exact moments of the discrete functionals, quadrature bias
    mc          Monte Carlo replication engine and diagnostics
    cli         command-line interface (yule-ou)
"""

from .errors import (DegenerateStatisticError, GridMismatchError,
                     InsufficientDataError, ParameterError, YuleOuError)
from .estimators import PathPair, YuleStatistics, theta_estimator, yule_rho
from .hypothesis import (ConfidenceInterval, TestOutcome, TestVariant,
                         calibrate_berry_constant, confidence_interval_r, decide,
                         numerator_bound_valid_from, numerator_test, rho_test,
                         rho_test_estimated_theta, sidak_level, spde_type2_bound,
                         type2_bound_numerator, type2_bound_rho)
from .mc import (ExperimentGrid, McReport, PairSample, error_rates, k_statistics,
                 kolmogorov_distance, pair_sample, rate_fit, rejections, run_grid,
                 spde_family_rejections, spde_mode_samples, summarize_cell,
                 wilson_interval, write_reports_csv)
from .sde import (STEP_CAP, CorrelatedPairConfig, SamplePath, default_dt,
                  mean_functional_variance, ou_covariance, simulate_correlated_pair,
                  simulate_ou, stream, write_pair_csv)
from .theory import (ChaosConstants, asymptotic_cumulant, chaos_constants,
                     clt_variance_rho, clt_variance_rho_delta, cumulant_bound_constants,
                     delta_convolution_inner, denominator_lp_bound,
                     edgeworth_kolmogorov_bound, edgeworth_tail, eta_constant,
                     exact_second_moment_Ar, kernel_g_norm, kernel_h_norm,
                     kernel_h_norm_limit, major_tail_bound, wasserstein_scale_bound)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
