"""Finite groupoids, their convolution *-algebras, and representation checks."""

from .bisections import (Bisection, bisection_compose, bisection_inverse,
                         enumerate_bisections, left_translate, make_bisection,
                         target_map, unit_bisection)
from .blocks import BlockOperator
from .builders import (disjoint_union, group_groupoid, pair_groupoid, product)
from .errors import (DomainMismatch, FileFormatError, GroupalgError, NotClosed,
                     NotRelationGroupoid, NotTransitive, ShapeMismatch,
                     SystemInvalid, UndefinedProduct, UnknownLabel,
                     UnknownObject, UsageError)
from .groupoid import (FiniteGroupoid, GroupoidMorphism, IsotropyGroup,
                       MultiplierSets, build_from_relation, isotropy,
                       isotropy_bundle, isotropy_parts, morphism_report, multipliers,
                       relation_isomorphism, validate)
from .haar import (HaarSystem, check_left_invariance, convolve, counting_haar,
                   delta, fiber_integrate, function_to_matrix,
                   half_density_inner, i_norm, involute, source_haar,
                   support_fiber_mass, table_convolve, unit_function)
from .inductive import InductiveSystem, LimitResult, check_system, limit
from .orbits import OrbitMatrices, orbit_matrices
from .partial_algebra import (StructureTable, SubspaceBasis,
                              check_star_compatibility, extract_relation,
                              ideal_closure_check, matrix_units_table,
                              multiplier_subspace)
from .report import Report, ReportEntry
from .representations import (ConjugatedRep, HilbertBundle, IndexRep,
                              InducedMeasures, QuasiInvariantMeasure,
                              TransitiveDecomposition, adjoint_operator,
                              canonical_bundle, check_representation,
                              conjugate_rep_on, decompose_transitive,
                              fundamental_family_check, induced_measures,
                              integrate_rep, integrated_blocks,
                              left_regular_rep, transitive_isomorphism_check,
                              operator_norm, operator_norm_bound_check,
                              trivial_rep, uniform_measure)

__version__ = "0.1.0"
