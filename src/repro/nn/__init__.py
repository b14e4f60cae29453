"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

The MTL-Split paper implements its models in PyTorch; PyTorch is not
available offline in this environment, so this package provides the
minimal-but-complete equivalent: a reverse-mode autograd tensor, NCHW
convolutional ops (standard / grouped / depthwise), batch normalisation,
the activation zoo needed by VGG / MobileNetV3 / EfficientNet, losses,
AdamW-family optimisers, and ``.npz`` checkpointing — all verified against
numerical differentiation in the test suite.
"""

from . import functional, init
from .activations import (
    GELU,
    HardSigmoid,
    HardSwish,
    LeakyReLU,
    ReLU,
    ReLU6,
    Sigmoid,
    SiLU,
    Softmax,
    Tanh,
    resolve_activation,
)
from .autograd import gradcheck, numerical_gradient
from .layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
)
from .losses import BCEWithLogitsLoss, CrossEntropyLoss, L1Loss, MSELoss
from .module import Identity, Module, ModuleList, Parameter, Sequential
from .norm import GroupNorm, LayerNorm
from .rnn import GRUCell, RNN, RNNCell
from .optim import SGD, Adam, AdamW, CosineAnnealingLR, StepLR, clip_grad_norm
from .serialization import load_module, load_state, save_module, save_state
from .tensor import Tensor, as_tensor, concatenate, is_grad_enabled, no_grad, stack
from . import fuse
from .fuse import InferenceSession, compile_module
from . import engine
from .engine import ExecutionPlan, PlannedExecutor

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "fuse",
    "init",
    "InferenceSession",
    "compile_module",
    "engine",
    "ExecutionPlan",
    "PlannedExecutor",
    "gradcheck",
    "numerical_gradient",
    "Parameter",
    "Module",
    "Sequential",
    "ModuleList",
    "Identity",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "Dropout",
    "Flatten",
    "GroupNorm",
    "LayerNorm",
    "RNNCell",
    "GRUCell",
    "RNN",
    "ReLU",
    "ReLU6",
    "LeakyReLU",
    "Sigmoid",
    "HardSigmoid",
    "SiLU",
    "HardSwish",
    "Tanh",
    "GELU",
    "Softmax",
    "resolve_activation",
    "CrossEntropyLoss",
    "MSELoss",
    "L1Loss",
    "BCEWithLogitsLoss",
    "SGD",
    "Adam",
    "AdamW",
    "StepLR",
    "CosineAnnealingLR",
    "clip_grad_norm",
    "save_state",
    "load_state",
    "save_module",
    "load_module",
]
