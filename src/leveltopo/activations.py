"""Activation functions, including a one-to-one surrogate for ReLU.

ReLU is not injective (it is constant on the negative axis), which breaks
the homeomorphism argument used by the level-set analysis.  The surrogate
``one_to_one_relu`` with sharpness ``n`` keeps the identity branch on
``x >= 0`` and replaces the flat branch with ``arctan(x) / n``, which is
strictly increasing and negative for ``x < 0``.  Its uniform distance to
ReLU is at most ``pi / (2 n)``, so the family converges uniformly to ReLU
as ``n`` grows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class ActivationKind(enum.Enum):
    SIGMOID = "sigmoid"
    TANH = "tanh"
    RELU = "relu"
    ONE_TO_ONE_RELU = "one_to_one_relu"


@dataclass(frozen=True)
class Activation:
    """Elementwise activation descriptor.

    ``sharpness`` is only meaningful for ONE_TO_ONE_RELU, where larger
    values pull the negative branch closer to zero.
    """

    kind: ActivationKind
    sharpness: int | None = None

    def __post_init__(self):
        if self.kind is ActivationKind.ONE_TO_ONE_RELU:
            if (not isinstance(self.sharpness, int) or isinstance(self.sharpness, bool)
                    or self.sharpness < 1):
                raise ValueError(f"one_to_one_relu requires integer sharpness >= 1, "
                                 f"got {self.sharpness!r}")
        elif self.sharpness is not None:
            raise ValueError(f"sharpness is only valid for one_to_one_relu, got {self.kind}")

    @property
    def one_to_one(self) -> bool:
        """True when the function is strictly increasing on all of R."""
        return self.kind is not ActivationKind.RELU


def activation_from_dict(d: dict) -> Activation:
    """Decode ``{"kind": ..., "sharpness": ...}``; an absent sharpness is None."""
    return Activation(ActivationKind(d["kind"]), d.get("sharpness"))


def sigmoid_of_negated(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(u))``, the sigmoid of ``-u``, into ``out``, which may
    be ``u``.  exp overflows to inf for u above about 709, which still
    yields the correct limit 0.0.  ``np.reciprocal`` is the same IEEE
    division as ``np.divide(1.0, .)``.

    Training hands it ``(-b) - W a``: negation is exact and round-to-nearest
    is symmetric, so that is bitwise ``-(W a + b)`` up to the sign of a
    zero, which exp ignores, and the result is bitwise the sigmoid of
    ``W a + b``."""
    np.exp(u, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    return sigmoid_of_negated(np.negative(x, out=out), out)


def _sigmoid_derivative(post: np.ndarray, z: np.ndarray) -> np.ndarray:
    np.subtract(1.0, post, out=z)
    z *= post
    return z


def _tanh_derivative(post: np.ndarray, z: np.ndarray) -> np.ndarray:
    np.multiply(post, post, out=z)
    return np.subtract(1.0, z, out=z)


def _relu(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def _relu_derivative(post: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.greater_equal(z, 0.0, out=z)


def _one_to_one_relu_forms(sharpness: int):
    def forward(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.copyto(out, np.where(x >= 0, x, np.arctan(x) / sharpness))
        return out

    def derivative(post: np.ndarray, z: np.ndarray) -> np.ndarray:
        np.copyto(z, np.where(z >= 0, 1.0, 1.0 / (sharpness * (1.0 + z * z))))
        return z
    return forward, derivative


_FORMS = {
    ActivationKind.SIGMOID: (_sigmoid, _sigmoid_derivative),
    ActivationKind.TANH: (np.tanh, _tanh_derivative),
    ActivationKind.RELU: (_relu, _relu_derivative),
}


def activation_forms(act: Activation):
    """``(forward, derivative)``: the one in-place form of ``act`` and of its
    derivative, which training binds once per run and ``forward_batch`` uses.

    ``forward(x, out)`` writes ``act(x)`` into ``out``, which may be ``x``.
    ``derivative(post, z)`` overwrites the pre-activation ``z`` with
    ``act'(z)``; sigmoid and tanh read it from the activation value
    ``post``, relu and one_to_one_relu from ``z`` (the right derivative,
    1.0, at 0).  Both take float64 arrays, check nothing and return their
    output.  They set no ``np.errstate``: sigmoid's exp (and the square in
    one_to_one_relu's derivative) overflows to inf for large inputs, which
    gives the correct limit, so a caller that wants no warning silences
    ``over``.
    """
    if act.kind is ActivationKind.ONE_TO_ONE_RELU:
        return _one_to_one_relu_forms(act.sharpness)
    return _FORMS[act.kind]


def activation_apply(act: Activation, x):
    """Apply ``act`` elementwise.  Accepts scalars or arrays, returns float64.

    All four kinds are total on R.  sigmoid saturates to exactly 0.0 / 1.0
    in float64 for |x| beyond ~745 / ~37; tanh saturates to +-1.0 near
    |x|=20; one_to_one_relu saturates toward -pi/(2 n) as x -> -inf.
    """
    arr = np.asarray(x, dtype=np.float64)
    forward, _ = activation_forms(act)
    with np.errstate(over="ignore"):
        out = forward(arr, np.empty_like(arr))
    return float(out) if arr.ndim == 0 else out


def uniform_deviation(a: Activation, b: Activation, interval: tuple[float, float],
                      grid_points: int) -> float:
    """Max |a(x) - b(x)| over an evenly spaced grid on ``interval``.

    A grid surrogate for the sup norm; used to witness uniform convergence
    of the one-to-one ReLU surrogates (the sup is pi/(2 n), attained only
    in the limit x -> -inf).
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    lo, hi = interval
    xs = np.linspace(lo, hi, grid_points)
    return float(np.max(np.abs(activation_apply(a, xs) - activation_apply(b, xs))))


def one_to_one_relu_bound(sharpness: int) -> float:
    """Sup-norm distance between one_to_one_relu(sharpness) and relu."""
    return math.pi / (2.0 * sharpness)


SIGMOID = Activation(ActivationKind.SIGMOID)
TANH = Activation(ActivationKind.TANH)
RELU = Activation(ActivationKind.RELU)


def one_to_one_relu(sharpness: int) -> Activation:
    return Activation(ActivationKind.ONE_TO_ONE_RELU, sharpness)
