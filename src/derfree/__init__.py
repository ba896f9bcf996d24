"""Exact certification of freeness criteria for complexes with derived actions."""

from .field import GF, GF101, QQ, field_from_config, field_to_config
from .linalg import Matrix, kernel_basis, rank, rref, solve, solve_and_project
from .algebra import ArtinAlgebra, adapted_basis, artin_algebra_from_constants
from .monomial import MonomialAlgebra, NotArtinianError, TruncationError, monomial_algebra
from .morphism import AlgebraMorphism, beta0_of_mAB, morphism_from_generator_images
from .complexes import (AMatrix, ChainMap, FreeComplex, betti, cone, direct_sum,
                        free_complex, graded_homology, homology, inf_sup,
                        is_quasi_iso, proj_dim, shift)
from .koszul import KoszulComplex, koszul, koszul_annihilator_check
from .homotopy import (DerivedAnnihilator, Homotopy, derived_annihilator,
                       homotopy_class_eq, solve_homotopy)
from .actions import (ActionCertificate, check_quotient_H_action,
                      induced_action_on_homology, verify_certificate)
from .modules import (FiniteModule, GradedModule, is_free, lemma43_freeness, nu,
                      poincare_truncated)
from .weyl import (WModuleRep, check_lemmaA1, check_weyl_relations, exterior_model,
                   koszul_lift, structure_map)
from .checkers import (InstanceBundle, check_lemma32, check_question, check_thm31,
                       check_thm41, check_thm51, is_exceptional_ci_surjective,
                       koszul_decompose, prop44_divisibility)
from .fixtures import run_fixtures

__version__ = "0.1.0"
