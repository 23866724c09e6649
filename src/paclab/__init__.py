"""Computational laboratory for PAC learning under a fixed input distribution.

Exact probability measures on the real line, concept classes with L1
geometry, the binary-output sigmoidal network with an exact feasible-weight
solver, covering/packing sample-complexity bounds, purely atomic measures
realizing arbitrarily fast sample-complexity growth, and a Monte-Carlo ERM
estimator that brackets measured complexity between the theoretical bounds.
"""

__version__ = "0.1.0"

from .bounds import (FiniteFamily, PackingResult, bi_lower,
                     bi_upper_from_log2, greedy_cover, greedy_packing,
                     hamming_packing, hamming_packing_bound)
from .concepts import (AtomLabeling, GridUnion, IntervalUnion,
                       OrderIntervalFamily, SontagConcept, SontagFamily,
                       cantor_shatter_search, concept_from_json,
                       enumerate_order_class, isolate_points, l1_distance)
from .construction import (ComplexityProfile, ComplexitySchedule,
                           ConstructedInstance, RateFunction, build_measure,
                           theoretical_profile)
from .learner import (ComplexityEstimate, estimate_sample_complexity,
                      gc_deviation)
from .measures import (Atom, AtomicMeasure, CantorMeasure, UniformMeasure,
                       cantor_level_intervals, expect_indicator,
                       measure_from_json)
from .sontag import (SontagParams, net_output, phi,
                     rationally_independent_points, rho, shatter_census,
                     shatter_search, shatter_search_many)
