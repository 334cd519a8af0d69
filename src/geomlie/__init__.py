"""Exact-integer ADE root systems and Lie algebras from Seifert-form data.

The package derives everything from one upper-triangular integer matrix B
per type: root systems height by height on byte keys (one
:class:`RootSystem` that also maps vectors to root indices), the monodromy
B^{-1}B^t = -c, orbit decompositions holding each operator's root
permutation, the Lie algebra whose bracket signs are read off B and whose
laws, sl2 triples and matrix model are each checked once on its own table,
wheel models with one segment-to-root table (planar for A and D, where one
triangle rule gives the bracket signs), and projections to the Coxeter plane.
"""

from .lattice import (LieType, cartan_matrix, make_type, pairing, projective_basis,
                      seifert_matrix, stabilized_pairing_matrix)
from .liealg import (AlgebraElement, LieAlgebra, bracket, build, check_jacobi, check_sl2,
                     killing_form, n_sign, slk_model_check)
from .rootsys import (FoldingSpec, OrbitDecomposition, RootSystem,
                      classical_folding, coxeter_matrix, enumerate_roots, fold,
                      monodromy_matrix, orbit_decomposition, sT_matrices,
                      verify_sT_identity)
from .wheel import build_wheel, enumerate_classes, rotation_angle, segment_class, sign_pairs
from .coxplane import plane_basis, point_clusters, project_all, render_svg

__version__ = "0.1.0"
