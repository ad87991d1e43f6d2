"""Matrix-free compression of strongly admissible uniform block low-rank
operators from black-box products with A and A*."""

from .bases import (
    BlockBases,
    NearField,
    SketchBundle,
    block_nullification_bases,
    block_nullification_width,
    naive_bases,
    tagging_bases,
)
from .container import read_ublr, write_ublr
from .linalg import (
    RandomStream,
    col_basis,
    estimate_spectral_norm,
    gaussian,
    null_basis,
    pseudo_inverse,
)
from .operators import (
    ConfigError,
    CountingOperator,
    DenseOperator,
    LinearOperatorHandle,
    NonFiniteOracleError,
    OracleShapeError,
    SymmetricDenseOperator,
    laplace2d_operator,
    thin_slab_schur_operator,
)
from .reconstruction import (
    CompressionReport,
    UniformBLR,
    compress,
    direct_core,
    gaussian_pinv_discrepancy,
    make_synthetic_spec,
    pinv_core,
    relative_error,
    structured_identity_discrepancy,
    tagging_pinv_discrepancy,
)
from .tagging import (
    DegenerateTagsError,
    ProjectedTags,
    TaggingMatrix,
    aspect_ratio,
    evaluate_plan,
    make_tagging_matrix,
    optimize_null_vector,
    plan_tagging,
    projected_tags,
    tag_null_vector,
)
from .tessellation import (
    BoxColoring,
    PointCloud,
    Tessellation,
    build_tessellation,
    color_boxes,
    grid_points,
    random_points,
    suggest_block_count,
)

__version__ = "0.1.0"
