"""Exact-integer ADE root systems and Lie algebras from Seifert-form data.

The package derives everything from one upper-triangular integer matrix per
type: root systems by reflection closure, monodromy and Coxeter operators,
orbit decompositions, the Lie algebra with its geometric bracket signs,
wheel models whose segments realize the roots (planar for A and D, where
one triangle rule gives the bracket signs), and projections to the
rotation-invariant plane.
"""

from .lattice import (AbsoluteCycle, LieType, RelativeCycle, cartan_matrix,
                      is_distinguished, make_type, mixed_intersection, pairing,
                      projective_basis, seifert_form, seifert_matrix,
                      stabilized_pairing_matrix, variation, variation_inverse)
from .liealg import (AlgebraElement, LieAlgebra, bracket, build, check_jacobi,
                     killing_form, n_sign, sl2_triple, slk_model_check)
from .rootsys import (FoldingSpec, OrbitDecomposition, RootSystem,
                      classical_folding, coxeter_matrix, enumerate_roots, fold,
                      monodromy_matrix, orbit_decomposition, reflect,
                      sT_matrices, verify_sT_identity)
from .wheel import (build_wheel, enumerate_classes, geometric_sign,
                    rotation_angle, segment_class, sign_pairs)
from .coxplane import multiplicity_report, plane_basis, project_all, render_svg

__version__ = "0.1.0"
