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
            if self.sharpness is None or self.sharpness < 1:
                raise ValueError("one_to_one_relu requires integer sharpness >= 1")
        elif self.sharpness is not None:
            raise ValueError(f"sharpness is only valid for one_to_one_relu, got {self.kind}")

    @property
    def one_to_one(self) -> bool:
        """True when the function is strictly increasing on all of R."""
        return self.kind is not ActivationKind.RELU

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "sharpness": self.sharpness}

    @staticmethod
    def from_dict(d: dict) -> "Activation":
        return Activation(ActivationKind(d["kind"]), d.get("sharpness"))


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, ``1 / (1 + exp(-x))``, written into ``out`` when given.

    exp may overflow to inf for very negative inputs, which still yields the
    correct limit 0.0, so the overflow warning is suppressed rather than
    branched around."""
    x = np.asarray(x, dtype=np.float64)
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def activation_apply(act: Activation, x, out: np.ndarray | None = None):
    """Apply ``act`` elementwise.  Accepts scalars or arrays, returns float64.

    With ``out`` (an array shaped like ``x``) the result is written there,
    without temporaries for sigmoid, tanh and relu.  All four kinds are
    total on R.  sigmoid saturates to exactly 0.0 / 1.0 in float64 for |x|
    beyond ~745 / ~37; tanh saturates to +-1.0 near |x|=20; one_to_one_relu
    saturates toward -pi/(2 n) as x -> -inf.
    """
    arr = np.asarray(x, dtype=np.float64)
    if act.kind is ActivationKind.SIGMOID:
        out = sigmoid(arr, out)
    elif act.kind is ActivationKind.TANH:
        out = np.tanh(arr, out=out)
    elif act.kind is ActivationKind.RELU:
        out = np.maximum(arr, 0.0, out=out)
    else:
        out = _into(np.where(arr >= 0, arr, np.arctan(arr) / act.sharpness), out)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _into(values: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return values
    out[...] = values
    return out


def activation_derivative(act: Activation, x, post=None, out: np.ndarray | None = None):
    """Elementwise derivative at pre-activation ``x``.

    sigmoid and tanh reuse the activation value ``post`` when it is given
    (the training hot path).  With ``out`` the result is written there;
    ``out`` may be ``x`` itself, which is read before it is written.  relu
    and one_to_one_relu use the right derivative (1.0) at x = 0.
    """
    arr = np.asarray(x, dtype=np.float64)
    if act.kind is ActivationKind.SIGMOID:
        s = sigmoid(arr) if post is None else post
        result = np.subtract(1.0, s, out=out)
        result *= s
    elif act.kind is ActivationKind.TANH:
        t = np.tanh(arr) if post is None else post
        result = np.subtract(1.0, np.multiply(t, t, out=out), out=out)
    elif act.kind is ActivationKind.RELU:
        result = _into(np.where(arr >= 0, 1.0, 0.0), out)
    else:
        result = _into(np.where(arr >= 0, 1.0, 1.0 / (act.sharpness * (1.0 + arr * arr))), out)
    if np.isscalar(x) or arr.ndim == 0:
        return float(result)
    return result


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
