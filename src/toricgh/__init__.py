"""Exact combinatorics of convex polytopes: toric g/h-polynomials, flag
vectors, line shellings, rigidity stresses, face decompositions of cones
and the identity/inequality checks that tie them together.

All core objects (polynomials, face lattices, polytopes, fans) are
immutable after construction; internal caches only ever store values that
any thread would recompute identically, so everything here is safe to
share across concurrent tasks.
"""

from toricgh.polynomial import Polynomial, binomial_power, coefficientwise_geq
from toricgh.lattice import FaceLattice, LatticeError, is_eulerian
from toricgh.geometry import (
    Cone,
    Fan,
    GeometricPolytope,
    central_fan,
    cone_over,
    exact_rank,
    facet_enumeration,
    kernel_dimension,
)
from toricgh.toric import (
    FlagVector,
    check_cone_bipyramid,
    check_dehn_sommerville,
    check_g_cascade,
    check_kalai_identity,
    check_monotonicity,
    check_ubt,
    fan_h,
    flag_vector,
    g1_closed,
    g2_closed,
    gtilde,
    simplicial_h,
    toric_g,
    toric_h,
)
from toricgh.shelling import (
    Shelling,
    ShellingError,
    line_shelling,
    relative_h,
    shelling_decomposition,
)
from toricgh.rigidity import (
    Framework,
    build_framework,
    degree_one_dim,
    g2_via_stresses,
    infinitesimal_rigidity_check,
    rigidity_matrix,
    stress_dimension,
)
from toricgh.localization import (
    ConeDecomposition,
    check_generalized_monotonicity,
    classify_faces,
    tau_plus_v,
)
from toricgh.verma import (
    MultiplicityTable,
    check_reciprocity,
    check_verma_vs_polar,
    truncated_inequality,
    verma_multiplicities,
)
from toricgh.catalog import CatalogEntry, catalog, geometric_catalog, parse_recipe

__version__ = "0.1.0"
