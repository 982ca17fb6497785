from .layers import (
    Activation,
    BatchNorm,
    Conv2D,
    Flatten,
    FullyConnected,
    InvalidStateError,
    LSTM,
    Layer,
    MaxPool2D,
    ShapeError,
    Softmax,
)
from .network import (
    Network,
    bits_per_char,
    build_network,
    classification_error,
    cross_entropy,
)
from .optim import (
    AdaDelta,
    LrSchedule,
    LrScheduleConfig,
    OptimizerConfig,
    SGDNesterov,
    make_optimizer,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
