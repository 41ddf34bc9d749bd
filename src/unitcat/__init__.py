"""Exact-arithmetic toolkit for unit-interval category structures.

Continuous t-norms with their residuals, finite [0,1]-categories,
upper-set spaces of finite posets with their monad, and the function-space
duality audits that tie them together: grid-valued distributors out of the
unit against the functionals on C(X), and the density and representability
checks.  Everything is checked by exhaustive enumeration or seeded sampling
on finite instances.
"""

from .tnorms import (
    GridChain,
    GridNotClosed,
    GridOps,
    Quantale,
    SampleSpec,
    grid_closed,
    is_nilpotent,
    lukasiewicz,
    minimum,
    no_zero_divisor_audit,
    ordinal_sum,
    product,
    verify_quantale_axioms,
    verify_quantale_axioms_sampled,
)
from .posets import (
    FinPoset,
    all_posets,
    antichain,
    chain,
    is_irreducible,
    kleisli_compose,
    poset,
    up_closure,
    upper_sets,
    verify_monad_laws,
    vietoris,
)
from .vcat import (
    VCategory,
    from_poset,
    is_separated,
    unit_category,
    validate_vcategory,
    vcategory,
)
from .duality import (
    ConditionReport,
    FunctionSpace,
    Functional,
    anti_set,
    c_of_distributor,
    check_conditions,
    count_join_homomorphisms,
    function_space,
    join_homomorphisms,
    phi_of,
    representability_audit,
    total_partial_audit,
    zero_set,
)
from .stone import (
    SubStructure,
    check_sep,
    density_at_level,
    down_set_indicators,
    generate_closure,
    sw_audit,
)
from .enriched import (
    adjunction_audit,
    enriched_c,
    enumerate_cx,
    enumerate_enriched_categories,
    grid_distributors,
    is_cogenerated,
    lemma1_audit,
    pointsep_extension_audit,
    retract_phi,
    tensor_maximality_audit,
    twovalued_audit,
)
from .instances import InstanceDoc, InstanceError, parse_instance, parse_tnorm
from .reports import CheckReport, SuiteReport, emit_report, strip_timing
from .suites import SUITES, SuiteConfig, run_suite

__version__ = "0.1.0"
