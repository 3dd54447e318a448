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

import gc

# The imports below (numpy with them) build some 35,000 tracked objects that
# live as long as the process.  The cyclic collector would walk them 37 times
# while they load, and once more, all together, on the first allocation after
# it is back on.  So it stays off while they load; then freeze-and-unfreeze
# moves them, unexamined, to the oldest generation, which only a full
# collection walks, and the collector returns to the state the host left it
# in.  A host that froze objects of its own skips the move, which would thaw
# them.
_collecting = gc.isenabled()
gc.disable()
try:
    from .bayes import PRIOR_PRESETS
    from .config import AnalysisConfig, load_observations, parse_config_file, render_config
    from .errors import AssessmentError, ConfigError
    from .reporting import AnalysisOutcome, AssessmentReport, run_analysis
    from .simulations import optional_stopping_fpr, prior_sensitivity_sweep, stopping_comparison
finally:
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()

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
