"""hyperlab: finite commutative multiplicative hyperrings, their hyperideal
classes, and exhaustive desk-scale verification of the classification
theorems, plus exact windowed checks over integer hyperrings."""

from .core import (
    FiniteHyperring,
    Mask,
    TableFormatError,
    elems_of,
    iter_bits,
    load_table_file,
    mask_of,
    parse_ring_spec,
    subset,
)
from .verdicts import (
    ConstructionError,
    ERROR,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    SKIPPED,
    ParameterError,
    ResourceError,
    SplitMode,
    UVParams,
    UsageError,
    Verdict,
)
from .ideals import (
    IdealLattice,
    colon,
    enumerate_hyperideals,
    generate,
    ideal_product,
    is_c_hyperideal,
    is_hyperideal,
    is_strong_c_hyperideal,
    radical_nilpotent,
    radical_prime_intersection,
)
from .classify import (
    CharacterizationReport,
    check_v1v_characterization,
    is_1_absorbing_primary,
    is_divided,
    is_primary,
    is_prime,
    is_uv_absorbing_i_primary,
    is_uv_absorbing_primary,
    is_uv_absorbing_prime,
    replay_uv_counterexample,
)
from .zphi import (
    ZPhiRing,
    bounded_uv_check,
    ideal_intersection,
    int_product,
    principal_membership,
    radical_membership,
    radical_profile,
    replay_int_counterexample,
)
from .construct import (
    GoodHom,
    LocalizedRing,
    canonical_mcs_list,
    gamma_mask,
    localize,
    matrix_hyperring,
    quotient,
)
from .harness import (
    Report,
    RingFamilySpec,
    run_golden_examples,
    run_theorem_suite,
)

__version__ = "0.1.0"
