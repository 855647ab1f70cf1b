"""clutterlab: exact certification toolkit for clutters, blocking
polyhedra, Koenig/MFMC packing, and normality of monomial ideals."""

__version__ = "0.1.0"

from .guards import Deadline, ResourceGuardError
from .structures import (
    Clutter,
    Graph,
    Poset,
    canonical_relabel,
    cauc_poset,
    clique_clutter,
    comparability_graph,
    complete_admissible_uniform_clutter,
    delete,
    duplicate,
    graph_duplicate,
    maximal_cliques,
    parallelization,
    transitive_closure,
)
from .polyhedra import (
    IncidenceMatrix,
    RationalPolyhedron,
    blocking_membership,
    covering_polyhedron,
    integer_decomposition_check,
    integer_rounding_check,
    is_integral,
    minimal_lattice_points,
    simplex_max,
    vertices,
)
from .packing import (
    KonigCertificate,
    alpha0,
    beta1,
    chain_order,
    konig_certificate,
    lp_duality_integer_check,
    menger_oracle,
    mfmc_bounded,
    minimal_vertex_covers,
)
from .ideals import (
    MonomialIdeal,
    edge_ideal,
    is_normal_up_to,
    is_ntf_up_to,
    membership,
    power,
    symbolic_power,
)
from .certify import (
    Bounds,
    Corpus,
    Report,
    all_posets,
    random_clutters,
    random_graphs,
    random_ideals,
    random_posets,
    run_theorem_suite,
)
from .verdicts import Certificate, NormalityVerdict
