"""Quasi-exactly-solvable machinery for the planar relativistic sextic oscillator.

Exact operator calculus (opcalc), the physical model (model), the algebraic
spectral block with energy-polynomial recurrences (qes), an independent
numerical radial eigensolver (oracle), reference data as published (tables),
the invariant suite (verify) and a command-line front end (cli).
"""

from .model import (PhysicalParams, SpectralValue, energy_from_epsilon2,
                    eta_squared, qes_field, radial_operator)
from .opcalc import (DiffOperator, GaugeAnsatz, LaurentPoly, QPoly,
                     SpectralLedger, change_variable_sqrt, commutator,
                     compose, gauge_conjugate, monomial_matrix,
                     series_recurrence)
from .qes import (PolynomialFamily, QesSpectrum, RadialWavefunction,
                  ThreeTermRecurrence, algebraic_hamiltonian, critical_roots,
                  derived_recurrence, gauge_search, polynomial_family,
                  published_recurrence, sl2_generators, spectrum,
                  wavefunction)

__version__ = "0.1.0"
