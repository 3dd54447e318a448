"""Head-to-head assessment of two systems scored on the same items.

The package answers one recurring question: given per-item correctness for
two systems, is one actually better, and by enough to matter?  It offers the
frequentist tools (two-proportion z-test, confidence intervals), their
Bayesian counterparts (beta-binomial posteriors, highest-density intervals
with a practical-equivalence region, interval-null Bayes factors, and an
MCMC cross-check), plus simulations that demonstrate where the frequentist
answers quietly depend on intentions: stopping rules and optional stopping.

The names exported here are the ones the command line uses and the report
it writes; each statistical building block stays importable from its
submodule (``paircompare.frequentist``, ``paircompare.posterior``, ...).
"""

__version__ = "0.1.0"

from .bayes import PRIOR_PRESETS
from .config import AnalysisConfig, load_observations, parse_config_file, render_config
from .errors import AssessmentError, ConfigError
from .reporting import AnalysisOutcome, AssessmentReport, run_analysis
from .simulations import optional_stopping_fpr, prior_sensitivity_sweep, stopping_comparison

__all__ = [
    "__version__",
    "AnalysisConfig",
    "AnalysisOutcome",
    "AssessmentError",
    "AssessmentReport",
    "ConfigError",
    "PRIOR_PRESETS",
    "load_observations",
    "optional_stopping_fpr",
    "parse_config_file",
    "prior_sensitivity_sweep",
    "render_config",
    "run_analysis",
    "stopping_comparison",
]
