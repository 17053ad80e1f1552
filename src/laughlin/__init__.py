"""Exact computation and sampling for Laughlin states on a cylinder.

Subpackages by theme:

* :mod:`laughlin.lattice` -- orbital lattice, admissibility, renewal points,
  rod partitions.
* :mod:`laughlin.expansion` -- exact integer expansion coefficients and
  Gaussian-weighted amplitudes, with an evaluation oracle and a disk cache.
* :mod:`laughlin.renewal` -- squared norms, irreducible rod weights, the
  activity/renewal model and rod-partition probabilities.
* :mod:`laughlin.correlations` -- finite and infinite-volume occupations and
  pair correlations, quasi-state decomposition, density profiles.
* :mod:`laughlin.hamiltonian` -- gapped frustration-free parent Hamiltonians,
  truncated variants, and a crystal-to-liquid perturbation series.
* :mod:`laughlin.plasma` -- Metropolis sampling of |Psi|^2 in the classical
  plasma form, with particle-excess statistics.
"""

from laughlin.lattice import ModelParams, ConfigError, CapExceeded

__all__ = ["ModelParams", "ConfigError", "CapExceeded"]

__version__ = "0.1.0"
