"""Tensor-product codes over prime fields: encoding, plane testing,
robustness instrumentation, and unique decoding experiments."""

from .errors import CapacityError, InvariantError, ShapeError, ZeroCodeError
from .field import PrimeField, nullspace, rref, solve
from .linear_code import (
    AMBIGUOUS,
    INCONSISTENT,
    ErasureFailure,
    LinearCode,
    PartialWord,
    hamming74,
    hamming_distance,
    load_code,
    parity_code,
    parse_code,
    random_linear_code,
    repetition_code,
    save_code,
)
from .tensor_code import (
    EncodeCounter,
    LineIndex,
    PlaneIndex,
    TensorCode,
    TensorWord,
    all_lines,
    all_planes,
    extract_line,
    extract_plane,
    load_tensor,
    parse_tensor,
    plane_contains_line,
    save_tensor,
)

__version__ = "0.1.0"
