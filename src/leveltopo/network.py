"""Feed-forward network representation: forward pass, trunk/head split, JSON IO.

Networks are immutable once built (weight arrays are marked read-only), so
forward evaluation is a pure function and instances can be shared freely
across threads or worker processes.  ``forward_batch`` works on the training
kernel's (width, points) layout, one row update per input column, and runs
the activation's in-place form, the one training binds (``activation_forms``).
"""

from __future__ import annotations

import enum
import json
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .activations import Activation, activation_forms, activation_from_dict


@dataclass(frozen=True)
class Layer:
    """One affine map: ``z = weights @ a + bias`` with weights (n_out, n_in)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        b = np.array(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValueError(f"bad layer shapes: weights {w.shape}, bias {b.shape}")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Network:
    """Layered fully-connected network.

    The activation is applied after every layer; whether it is also applied
    after the last layer is controlled by ``final_activation`` (a sigmoid
    classifier head wants it on, a raw affine read-out wants it off).
    """

    input_dim: int
    layers: tuple[Layer, ...]
    activation: Activation
    final_activation: bool = True

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        prev = self.input_dim
        for i, layer in enumerate(layers):
            if layer.n_in != prev:
                raise ValueError(
                    f"layer {i} expects input dim {layer.n_in}, previous width is {prev}")
            prev = layer.n_out
        object.__setattr__(self, "layers", layers)

    @property
    def output_dim(self) -> int:
        return self.layers[-1].n_out

    @property
    def widths(self) -> tuple[int, ...]:
        """(input_dim, hidden widths..., output_dim)."""
        return (self.input_dim,) + tuple(layer.n_out for layer in self.layers)

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(layer.n_out for layer in self.layers[:-1])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return forward_batch(self, x)


# Points per block of ``forward_batch``, fastest of 4,096-16,384 on 201^2 and
# 401^2 grids.  A layer's temporaries for one block are small enough that the
# allocator reuses the memory the last block freed; a whole 201^2 lattice at
# once allocates arrays whose pages go back to the system when freed and are
# faulted in again on the next call.
FORWARD_BLOCK = 8192


def forward_batch(net: Network, x: np.ndarray) -> np.ndarray:
    """Evaluate ``net`` on a batch of points, shape (m, input_dim) -> (m, output_dim),
    into a fresh C-contiguous array, FORWARD_BLOCK points at a time.  Not a
    matmul: each element is the same left-to-right sum whatever the batch or
    block size or matrix shape, so a single point and a batch row agree
    bitwise, and zero-padding a network appends terms that are exactly 0.0.
    BLAS kernels guarantee neither."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"expected batch of shape (m, {net.input_dim}), got {x.shape}")
    out = np.empty((len(x), net.output_dim))
    last = len(net.layers) - 1
    for start in range(0, len(x), FORWARD_BLOCK):
        a = x[start:start + FORWARD_BLOCK].T
        for i, layer in enumerate(net.layers):
            z = layer.weights[:, :1] * a[0]
            for k in range(1, layer.n_in):
                z += layer.weights[:, k:k + 1] * a[k]
            z += layer.bias[:, None]
            if i < last or net.final_activation:
                with np.errstate(over="ignore"):
                    activation_forms(net.activation)[0](z, z)
            a = z
        out[start:start + FORWARD_BLOCK] = a.T
    return out


def decompose(net: Network) -> tuple[Network, Network]:
    """Split into (trunk, head): trunk = all but the last layer, head = the last.

    The trunk keeps the activation after every one of its layers (they are
    hidden layers of the original network), so
    ``forward_batch(head, forward_batch(trunk, x)) == forward_batch(net, x)``
    bitwise: the two paths perform the identical sequence of floating-point
    operations.
    """
    if len(net.layers) < 2:
        raise ValueError("decompose needs at least 2 layers; a single-layer network has no trunk")
    trunk = Network(net.input_dim, net.layers[:-1], net.activation, final_activation=True)
    head = Network(trunk.output_dim, net.layers[-1:], net.activation,
                   final_activation=net.final_activation)
    return trunk, head


@dataclass(frozen=True)
class Window:
    """Axis-aligned compact box: the domain on which fields are sampled."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=np.float64)
        hi = np.array(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError(f"lo/hi must be 1-d and matching, got {lo.shape} vs {hi.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # 1e308 - -1e308, its norm
            if not (np.all(lo < hi) and np.isfinite(np.linalg.norm(hi - lo))):
                raise ValueError(f"window needs lo < hi per axis and a finite extent, "
                                 f"got lo={lo}, hi={hi}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.extent))

    def lattice(self, resolution: tuple[int, ...]) -> np.ndarray:
        """The (prod(resolution), dim) corner lattice, ``resolution[d]`` evenly
        spaced points on axis d from lo to hi; axis 0 varies slowest."""
        points = np.empty((int(np.prod(resolution)), self.dim))
        grid = points.reshape(*resolution, self.dim)  # a view: point (i, j, ...) of the grid
        for d, (lo, hi, r) in enumerate(zip(self.lo, self.hi, resolution)):
            along_d = [1] * len(resolution)
            along_d[d] = r
            grid[..., d] = np.linspace(lo, hi, r).reshape(along_d)
        return points

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point (m, dim) to the nearest face of the box."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        gaps = np.minimum(p - self.lo, self.hi - p)
        return np.min(gaps, axis=1)


def _plain(value):
    """The JSON form of a value object: a dataclass is the dict of its
    fields, an enum its value, an array nested lists and a tuple a list,
    each member in its own JSON form.  Dicts, lists and scalars are taken
    as they are, unvisited: an outcome's level entries hold megabytes of
    floats.

    Private, so that a tracer wrapping the package's public functions sees
    no call per field."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


FORMAT_VERSION = 1


def network_to_dict(net: Network) -> dict:
    """Plain-dict form of a network (row-major weights, full-precision floats)."""
    return {"format_version": FORMAT_VERSION, **_plain(net)}


def network_from_dict(d: dict) -> Network:
    """Inverse of ``network_to_dict``; malformed input raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"a network is a JSON object, got {type(d).__name__}")
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported network format_version: {d.get('format_version')!r}")
    for key, kind, name in (("input_dim", int, "an integer"),
                            ("final_activation", bool, "a boolean")):
        if key in d and type(d[key]) is not kind:
            raise ValueError(f"network key {key!r} must be {name}, got {d[key]!r}")
    try:
        layers = tuple(
            Layer(np.asarray(spec["weights"], dtype=np.float64),
                  np.asarray(spec["bias"], dtype=np.float64))
            for spec in d["layers"]
        )
        return Network(d["input_dim"], layers, activation_from_dict(d["activation"]),
                       d["final_activation"])
    except KeyError as exc:
        raise ValueError(f"network is missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed network: {exc}") from None


def dumps_network(net: Network) -> str:
    """Serialize to JSON.  Floats are emitted with ``repr``, which is the
    shortest decimal string that round-trips exactly, so loading recovers
    bitwise-identical weights for every finite float."""
    return json.dumps(network_to_dict(net), indent=2, sort_keys=True)


def loads_network(text: str) -> Network:
    return network_from_dict(json.loads(text))


@contextmanager
def errors_named(where):
    """Prefix a ValueError's message with ``where``, the file (or file:line) read;
    a file that cannot be opened or read is a ValueError too."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"{where}: {exc.strerror or exc}") from None


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_network(net))
        fh.write("\n")


def load_network(path) -> Network:
    with errors_named(path), open(path) as fh:
        return loads_network(fh.read())
