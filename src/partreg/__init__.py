"""Exact certifiers and refuters for partition and density regularity of
polynomial equations over Z and GF(q)[t]."""

__version__ = "0.1.0"

from .colorings import ColoringSpec, color_of, parse_coloring_spec, refutation_scan
from .polys import (
    MultiPoly,
    combine_system,
    eval_ring,
    is_homogeneous,
    is_translation_invariant,
    parse_poly,
)
from .rado import ColumnsWitness, LinearSystem, columns_condition, verify_witness
from .reductions import (
    ReductionReport,
    apply_transform,
    diffquotient4_homogenize,
    htp_shift,
    quotient3_homogenize,
    ratio_gate,
)
from .rings import (
    INTEGERS,
    DomainElement,
    DomainTag,
    enum_element,
    enum_index,
    frac_normalize,
    from_int,
    gf_poly_domain,
    ord_at,
    parse_domain,
    parse_element,
)
from .windows import (
    RootHypergraph,
    Window,
    WindowCertificate,
    check_window_l_pr,
    density_window_check,
    disjoint_solutions,
    enumerate_roots,
    semidecide_l_pr,
)
