"""Tensor-product codes over prime fields: encoding, plane testing,
robustness instrumentation, and unique decoding experiments."""

from .errors import CapacityError, InvariantError, ShapeError, ZeroCodeError
from .field import PrimeField, rref
from .linear_code import (
    AMBIGUOUS,
    INCONSISTENT,
    ErasureFailure,
    LinearCode,
    PartialWord,
    hamming74,
    load_code,
    parity_code,
    random_linear_code,
    repetition_code,
)
from .tensor_code import (
    EncodeCounter,
    PlaneIndex,
    TensorCode,
    TensorWord,
    load_tensor,
    save_tensor,
)

__version__ = "0.1.0"
