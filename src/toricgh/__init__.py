"""Exact combinatorics of convex polytopes: toric g/h-polynomials, flag
vectors, line shellings, rigidity stresses, face decompositions of cones
and the identity/inequality checks that tie them together.

All core objects (polynomials, face lattices, polytopes, cones) are
immutable after construction; internal caches only ever store values that
any thread would recompute identically, so everything here is safe to
share across concurrent tasks.
"""

from toricgh.polynomial import Polynomial, binomial_power, coefficientwise_geq
from toricgh.lattice import FaceLattice, LatticeError
from toricgh.geometry import (
    Cone,
    GeometricPolytope,
    cone_over,
    exact_rank,
    facet_enumeration,
)
from toricgh.toric import (
    FlagVector,
    check_cone_bipyramid,
    check_dehn_sommerville,
    check_g_cascade,
    check_kalai_identity,
    check_monotonicity,
    check_ubt,
    flag_vector,
    g2_closed,
    gtilde,
    toric_g,
    toric_h,
)
from toricgh.shelling import (
    Shelling,
    ShellingError,
    line_shelling,
    shelling_decomposition,
)
from toricgh.rigidity import (
    Framework,
    build_framework,
    g2_via_stresses,
    rigidity_matrix,
    stress_dimension,
)
from toricgh.localization import (
    ConeDecomposition,
    check_generalized_monotonicity,
    classify_faces,
)
from toricgh.verma import (
    MultiplicityTable,
    check_reciprocity,
    check_verma_vs_polar,
    truncated_inequality,
    verma_multiplicities,
)
# the ``catalog`` function is not re-exported, so ``toricgh.catalog`` stays the submodule
from toricgh.catalog import CatalogEntry, parse_recipe

__version__ = "0.1.0"
