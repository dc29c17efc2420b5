"""Robust face identification under occlusion via reweighted ADMM coding."""

from .classify import ClassificationResult, class_residuals, identify
from .corruptions import (
    CorruptionSpec,
    corrupt_pixels,
    mixture_noise,
    occlude_block,
    philox_stream,
    textured_patch,
)
from .dataio import (
    DatasetManifest,
    export_weight_map,
    load_face,
    load_manifest,
    load_pgm,
    resize_nearest,
    save_pgm,
)
from .errors import (
    ConfigError,
    DictionaryError,
    FaceidError,
    GeometryError,
    NumericError,
    ParseError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    SyntheticSpec,
    make_synthetic_benchmark,
    run_experiment,
)
from .model import (
    Dictionary,
    FaceVector,
    ImageGeometry,
    build_dictionary,
    build_extended_dictionary,
    matricize,
    vectorize,
)
from .prox import SvdFactors, project_nonneg, shrink_weighted, soft_threshold, svd_factors, svt
from .solver import (
    METHODS,
    AdmmState,
    CodingResult,
    GramCache,
    SolveResult,
    SolverConfig,
    a_update,
    coding_step,
    dual_update,
    e_update,
    method_config,
    objective_value,
    precompute_gram,
    solve,
    solve_baseline,
    z_update,
)
from .weights import (
    WeightFunction,
    WeightVector,
    logistic_params,
    phi_value,
    weight_update,
)

__version__ = "0.1.0"
