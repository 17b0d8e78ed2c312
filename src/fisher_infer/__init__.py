"""Equilibrium computation and statistical inference for sampled Fisher markets.

Buyers with fixed budgets compete for t items drawn i.i.d. from a known
supply distribution.  This package solves the resulting finite markets
exactly (linear and quasilinear utilities), solves the long-run market
in closed form for one-dimensional linear valuations, and quantifies
how fast and in what distribution the sampled equilibria approach the
long-run one: error rates, central limit behavior, variance estimators,
and confidence intervals for welfare, multipliers, utilities, and
revenue.
"""

from .finite import (Certificate, FiniteEquilibrium, KKTReport, equilibrium_to_dict,
                     save_equilibrium, solve_sample_eg, solve_sample_qeg, verify_kkt)
from .inference import (InferenceReport, build_report, ci_beta_u, ci_nsw, default_eta,
                        estimate_omega2, estimate_sigma2_nsw, hessian_numdiff,
                        report_table)
from .longrun import (AsymptoticPack, Envelope, LongRunEquilibrium, asymptotic_pack,
                      dual_grad_pop, dual_value_pop, hessian_longrun_linear,
                      omega2, sigma2_nsw, sigma_beta_u, solve_longrun_eg,
                      solve_longrun_qeg, upper_envelope)
from .markets import (FiniteMarket, Linear1DValuation, LinearMDValuation, LongRunSpec,
                      Uniform01Supply, UniformCubeSupply, dual_subgradient_sample,
                      dual_value_sample, load_spec, normalize_spec, random_linear1d_spec,
                      sample_items, save_spec, spec_from_dict, spec_to_dict)
from .statkit import (KSResult, RateFit, fit_rate, ks_normal_test, normal_cdf,
                      normal_quantile, qq_points, summarize_reps)
from .experiments import (ExperimentConfig, derive_seed, load_config,
                          run_clt_experiment, run_convergence_sweep,
                          run_coverage_experiment, run_experiment, run_qlin_revenue,
                          summary_table)

__version__ = "0.1.0"
