"""Monte Carlo simulation and statistical analysis of granular firm-growth models.

The package covers three layers:

* ``distributions`` -- samplers and densities for the heavy-tailed building
  blocks (Pareto and modified inverse gamma samplers, generalized stretched
  exponential and Laplace-sum densities).
* ``model`` -- firm populations made of multiplicative sub-units, their
  concentration index, growth rates and panel simulation.
* ``analysis`` / ``estimation`` / ``panel`` -- the empirical toolkit: size
  binning, volatility moments, curve collapse, kernel densities, tail and
  distribution fits, and a Compustat-shaped panel preprocessing pipeline.

``experiments`` bundles the end-to-end reproduction recipes that the command
line tool (``firmgrowth reproduce ...``) and the acceptance test suite share.
"""

from firmgrowth.distributions import (
    GseParams,
    MigParams,
    gse_pdf,
    laplace_sum_pdf,
    mig_sample,
    pareto_sample,
)
from firmgrowth.model import (
    FirmPopulation,
    FixedCount,
    ModelParams,
    Panel,
    ParetoCount,
    aggregate_firms,
    draw_population,
    fraction_few_subunits,
    simulate_panel,
)

__version__ = "0.1.0"
