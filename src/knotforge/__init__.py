"""Exact-arithmetic link invariants and 4-manifold fold-map combinatorics."""

from .laurent import LaurentPoly
from .diagram import (
    PDDiagram,
    PDError,
    parse_pd,
    FrontDiagram,
    tb_from_front,
)
from .skein import (
    CrossingBudgetExceeded,
    conway,
    jones,
    jones_bracket_oracle,
)
from .invariants import (
    SurgeryInvariants,
    surgery_invariants,
    distinguish,
    ohtsuki_lambda2,
    casson_minus_one_surgery,
)
from .family import (
    KnotTable,
    load_table,
    conway_family,
    jones_family,
    tilde_v,
    verify_family,
)
from .fourmanifold import (
    IntersectionForm,
    ManifoldData,
    SurfaceComponent,
    SurfaceConfig,
    TotalDefect,
    MapCatalog,
    signature,
    self_intersection,
    is_characteristic,
    build_sigma_class,
    saeki_check,
    total_defect,
    homology_sphere_coset_check,
    canonical_sphere_constraint,
    sg_k,
    sg_plain,
    parse_block_form,
)

__version__ = "0.1.0"
