"""Compute-and-forward toolkit.

Rate regions, optimal equalizers, and integer coefficient matrices for
Gaussian multiple-access channels with unequal powers, plus desk-scale
nested-lattice encoding and parallel/successive decoding chains with a
Monte-Carlo harness.
"""

from .core import (UNBOUNDED, ChannelInstance, NoiseReport, achievable_rate,
                   chained_variances, effective_matrix, lattice_gram, noise_variance,
                   sigma_para_eval, sigma_para_opt, sigma_succ_eval,
                   sigma_succ_opt, sum_capacity)
from .intsearch import (DominantSolution, dominant_solution, entry_bound,
                        is_unimodular, mod_p_solvability, primitivity,
                        primitivize, rowspan_contains_real)
from .mac_opt import (MacAssignment, mac_mapping, parallel_mac_assignment,
                      parallel_mac_assignments, random_unimodular,
                      successive_mac_assignment, successive_mac_assignments,
                      successive_sum_identity)
from .regions import (AdmissibleMapping, Box, RateRegionSpec, asc_region,
                      is_admissible, mac_region, membership, para_region,
                      region_2d, sic_rates, succ_region)

__version__ = "0.1.0"
