"""Relaxed group-equivariant convolutions on grids, with symmetry probes."""

from .config import ALL_TASKS, DISCOVERY_TASKS, SUPERRES_TASKS, ExperimentConfig
from .data import (
    Atom,
    Dataset,
    VoxelScene,
    downsample_mean,
    gen_flow_dataset,
    gen_perovskite,
    gen_shape2d,
    rasterize,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    ContractError,
    DataError,
    Rgt1Error,
    ShapeError,
    SymmetryCheckFailed,
    TrainingDiverged,
)
from .groups import (
    CharacterTable,
    FiniteGroup,
    GridActionCache,
    act_on_offset,
    build_action_cache,
    build_group,
    character_table,
    closure,
    compose,
    inverse,
    stabilizer_of_grid,
    transform_grid,
)
from .layers import (
    ConvLayer,
    ConvTransposeLayer,
    GroupUpsampleConv,
    LiftingLayer,
    ReLULayer,
    RelaxedGConvLayer,
    SeparableRelaxedGConvLayer,
    group_pool,
)
from .models import (
    GroupPool,
    Network,
    ResidualBlock,
    build_discovery_net,
    build_superres_net,
    matched_conv_channels,
    param_count,
)
from .probe import (
    EquivarianceError,
    GradientSymmetryResult,
    SymmetryReport,
    equivariance_error,
    gradient_symmetry_check,
    irrep_power,
    irrep_project,
    weight_report,
    write_report_csv,
)
from .tensorio import read_rgt1, write_pgm, write_rgt1
from .training import (
    TrainStats,
    build_model,
    discovery_pair,
    eval_l1,
    load_checkpoint,
    load_flow_dataset,
    model_predictor,
    save_checkpoint,
    trilinear_upsample,
    train,
)

__version__ = "0.1.0"
