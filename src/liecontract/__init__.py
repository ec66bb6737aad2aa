"""Exact one-parameter contractions of polynomial Poisson structures."""

from .analysis import (ContrDegReport, FundamentalSemiInvariant, KostantReport,
                       ProportionalityCertificate, SuiteReport, contr_deg_report,
                       feigin_suite, fundamental_semiinvariant, kostant_check, regularity,
                       z2_suite)
from .builders import (BUILTIN_ALGEBRAS, FEIGIN_ALGEBRAS, Z2_PAIRS, SymmetricPair,
                       borel_decomposition, build_classical, builtin_algebra,
                       symmetric_pair)
from .contract import (ContractionResult, ContractionWeights, contract,
                       contract_algebra, t_degree)
from .exterior import (Form, MultiVector, differential, pfaffian, schouten_square,
                       wedge, wedge_power)
from .invariants import (GeneratorSet, char_invariants, membership_linear,
                         semi_invariant_weight, t_degree_reduction)
from .lie import (JacobiError, LieAlgebra, RootData, algebra_from_text,
                  algebra_index, algebra_to_text, from_matrices, jacobi_check,
                  lie_poisson_bivector, subalgebra_from_vectors)
from .polyring import (Polynomial, multivariate_gcd, parse_polynomial,
                       poly_compose, poly_div_exact, poly_monic, poly_to_str)

__all__ = [name for name in dir() if not name.startswith("_")]
