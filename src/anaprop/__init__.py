"""Analogical-proportion reasoning over Boolean and nominal tabular data."""

from .core import (
    Attribute,
    Schema,
    SchemaError,
    agreement,
    ap_holds,
    ap_holds_vec,
    diff,
    hamming,
    inverse_paralogy,
    solve,
    solve_vec,
)
from .data import (
    DataError,
    Dataset,
    PlantedRule,
    Relation,
    generate_affine,
    generate_monk,
    generate_planted_rules,
    generate_random_relation,
    load_dataset,
    load_relation,
    write_dataset,
    write_relation,
)
from .classify import (
    BongardModel,
    BruteForceModel,
    CompetentPair,
    CvConfig,
    KnnModel,
    Prediction,
    SelectedTripletModel,
    analogical_suitability,
    bongard_separation,
    cross_validate,
    cross_validate_grid,
    extract_competent_pairs,
)
from .explain import (
    Explanation,
    contrastive_explain,
    find_adverse_examples,
    relevant_attributes,
    rule_candidate,
)
from .relational import (
    discover_dependencies,
    fd_holds,
    is_trivial_mvd,
    lossless_join_check,
    mvd_ap_correspondence,
    mvd_holds,
    mvd_inference_check,
    nest_rewrite,
    unnest,
    weak_mvd_holds,
)

__version__ = "0.1.0"
