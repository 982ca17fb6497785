"""Fixed-point weight quantization with adaptive step-size retraining."""

from .quantizer import (
    DegenerateGroupError,
    QuantizerSpec,
    WeightGroup,
    exhaustive_search_step,
    optimize_step,
    points_for_bits,
    quant_mse,
    quantize,
)
from .qat import (
    DivergenceError,
    RetrainConfig,
    Schedule,
    ShadowParams,
    init_quantization,
    parse_schedule,
    retrain_epoch,
)
from .records import DeltaRow, MetricRow, RunRecord

__version__ = "0.1.0"
