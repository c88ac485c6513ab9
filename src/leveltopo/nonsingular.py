"""Construction and verification of non-singular networks.

A network is non-singular when every hidden layer has width equal to the
input dimension, the activation is one-to-one, and every square weight matrix
is invertible.  The trunk of such a network is a homeomorphism onto its
image, which is what forces its level sets to be unbounded.  This module
normalizes widths by zero-padding, checks determinants, nudges singular
matrices by arbitrarily small random perturbations, and gathers grid-scale
numeric evidence that a trunk really is injective.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .network import Layer, Network, Window, forward_batch

# |det| threshold on row-max-scaled matrices; scale-invariant for the tiny
# matrices handled here.
TOL_DET = 1e-9
# retries for the random perturbation before giving up
MAX_ATTEMPTS = 64
# output-space cell width used to find candidate collisions
INJECTIVITY_QUANT = 1e-12
# odd multiplier of the key mix (Knuth's MMIX LCG constant)
_KEY_MIX = np.int64(6364136223846793005)
# candidate pairs measured at once: a lag's first block holds
# FIRST_PAIR_BLOCK pairs and each later one twice as many, up to PAIR_BLOCK;
# a lag's pairs stop at the first block that holds a failing pair, so a
# collapsed trunk is rejected after a few pairs
FIRST_PAIR_BLOCK = 64
PAIR_BLOCK = 4096
# relative-separation floor: a pair of grid points may contract by
# at most this factor of (input separation / window diagonal) * image scale.
# True collapses (bugs) produce exactly coincident outputs and always fail;
# honest but badly conditioned trunks (padded width-1 bottlenecks perturbed
# by a tiny delta) legitimately contract far below 1e-9 and must still pass.
DEFAULT_MIN_SEP = 1e-12


class NonSingularizationError(RuntimeError):
    """Raised when perturbation fails to reach non-singularity."""

    def __init__(self, layer_index: int, delta: float):
        self.layer_index = layer_index
        super().__init__(
            f"layer {layer_index} still singular after {MAX_ATTEMPTS} perturbations "
            f"of size {delta}")


def scaled_det(matrix: np.ndarray) -> float:
    """|det| after scaling each row by its max absolute entry.

    Computed with an explicit LU factorization with partial pivoting so the
    operation order is fixed (no BLAS dispatch).  A zero row yields 0.
    """
    a = np.array(matrix, dtype=np.float64)
    n, m = a.shape
    if n != m:
        raise ValueError(f"determinant of non-square matrix {a.shape}")
    row_max = np.max(np.abs(a), axis=1)
    if np.any(row_max == 0.0):
        return 0.0
    a /= row_max[:, None]
    det = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            return 0.0
        if p != k:
            a[[k, p]] = a[[p, k]]
        det *= a[k, k]
        a[k + 1:, k:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k:])
    return float(abs(det))


@dataclass(frozen=True)
class NonSingularityReport:
    """Outcome of the membership check for the non-singular family."""

    determinants: tuple[float, ...]
    activation_one_to_one: bool
    widths_uniform: bool
    verdict: bool
    tolerance_used: float


def pad_to_width(net: Network, n: int) -> Network:
    """Embed ``net`` in a network whose hidden layers all have width ``n``.

    Added neurons get zero weights in and out and zero bias, so the function
    is unchanged: the new coordinates never feed back into the original ones.
    Padded layers are singular by construction (a zero row), which is why
    ``make_nonsingular`` exists.
    """
    if net.input_dim != n:
        raise ValueError(f"pad_to_width requires input_dim == {n}, got {net.input_dim}")
    if any(w > n for w in net.hidden_widths):
        raise ValueError(f"hidden width exceeds target {n}: {net.hidden_widths}")
    if all(w == n for w in net.hidden_widths):
        return net
    layers = []
    prev = net.input_dim
    for i, layer in enumerate(net.layers):
        is_head = i == len(net.layers) - 1
        out = layer.n_out if is_head else n
        w = np.zeros((out, prev))
        w[:layer.n_out, :layer.n_in] = layer.weights
        b = np.zeros(out)
        b[:layer.n_out] = layer.bias
        layers.append(Layer(w, b))
        prev = out
    return Network(net.input_dim, tuple(layers), net.activation, net.final_activation)


def is_nonsingular(net: Network) -> NonSingularityReport:
    """Check membership in the non-singular family at determinant tolerance TOL_DET."""
    widths_uniform = all(w == net.input_dim for w in net.hidden_widths)
    # every layer but the head, which maps the last hidden layer to a
    # 1-dimensional output and cannot be square
    dets = [scaled_det(w) if w.shape[0] == w.shape[1] else 0.0
            for w in (layer.weights for layer in net.layers[:-1])]
    if not np.any(net.layers[-1].weights):
        warnings.warn("head weights are all zero: the network is constant and every "
                      "level set is empty or everything", stacklevel=2)
    verdict = (widths_uniform and net.activation.one_to_one
               and all(d >= TOL_DET for d in dets))
    return NonSingularityReport(tuple(dets), net.activation.one_to_one,
                                widths_uniform, verdict, TOL_DET)


def make_nonsingular(net: Network, delta: float, seed: int) -> Network:
    """Perturb singular layer matrices by at most ``delta`` (max-norm) until
    every square matrix clears TOL_DET.

    Layers that are already non-singular are returned untouched, so the
    operation is idempotent.  Perturbations are ``delta * R`` with R uniform
    in [-1, 1], retried with fresh draws up to MAX_ATTEMPTS; failure raises
    NonSingularizationError with the offending layer index.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be finite and positive, got {delta}")
    if not all(w == net.input_dim for w in net.hidden_widths):
        raise ValueError("make_nonsingular expects uniform hidden widths; run pad_to_width first")
    rng = np.random.default_rng(seed)
    layers = list(net.layers)
    for i in range(len(layers) - 1):
        w = layers[i].weights
        if scaled_det(w) >= TOL_DET:
            continue
        for _ in range(MAX_ATTEMPTS):
            bump = delta * rng.uniform(-1.0, 1.0, size=w.shape)
            candidate = w + bump
            if scaled_det(candidate) >= TOL_DET:
                layers[i] = Layer(candidate, layers[i].bias)
                break
        else:
            raise NonSingularizationError(i, delta)
    if all(old is new for old, new in zip(net.layers, layers)):
        return net
    return Network(net.input_dim, tuple(layers), net.activation, net.final_activation)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``v``.

    Uses the same dot product as ``np.linalg.norm`` of a single row, so a
    batch of pairs is judged on bitwise the same distances as one at a time.
    """
    return np.sqrt((v[:, None, :] @ v[:, :, None]).ravel())


def _mix_keys(keys: list) -> np.ndarray:
    """One int64 per point from its per-axis int64 keys: ``k0 * _KEY_MIX ^ k1``,
    then the same with each further axis, wrapping on overflow.  Equal keys
    mix equally; different keys may collide, which the caller filters out."""
    mix = keys[0].copy()
    for axis_keys in keys[1:]:
        mix *= _KEY_MIX
        mix ^= axis_keys
    return mix


def check_injective_on_grid(trunk: Network, window: Window, resolution: int) -> bool:
    """Grid-scale injectivity witness for a trunk.

    Maps every lattice point of a ``resolution``-per-axis grid through the
    trunk and requires distinct inputs to stay separated in output space:
    a pair (x, y) fails when

        |trunk(x) - trunk(y)| < DEFAULT_MIN_SEP * (|x - y| / window diagonal) * scale

    where ``scale`` is the diagonal of the output bounding box (floored at
    the quantization width so constant maps cannot pass vacuously).

    The pairs checked are exactly those whose quantized outputs
    ``floor(output / INJECTIVITY_QUANT)`` differ by at most one on every
    axis.  Every failing pair is among them when
    ``DEFAULT_MIN_SEP * scale <= INJECTIVITY_QUANT``, that is when the output
    box diagonal is at most 1, because a failing pair is then closer than one
    cell.  Otherwise the witness only checks near-coincident
    outputs.  Two quantized outputs are that close exactly when they share
    a cell of one of the 2^d grids ``(q + s) >> 1``, ``s`` in {0, 1}^d.

    When some output axis has its sorted cells all at least two apart, no
    pair is that close on it, so there is no pair to check and the trunk
    passes before any key is built.  Otherwise, for each grid, the d keys of
    a point are mixed into one int64 (``_mix_keys``): a value sort, then
    positions only on a repeat.  ``np.sort`` of the mixes shows whether any
    two are equal; a grid with no repeat holds no pair and is done.
    Otherwise one unstable ``np.argsort`` gives the sorted positions.  Equal
    keys mix equally, so each run of equal keys lies inside a run of equal
    mixes; positions are compared at lag 1, 2, ... in sorted order until a
    lag has no equal mix, which enumerates every pair inside every equal-mix
    run.  A lag's pairs are measured in blocks of FIRST_PAIR_BLOCK, then
    twice as many each time up to PAIR_BLOCK, and the first block that holds
    a failing pair ends the search.  Different keys that mix equally (a
    collision) only put extra pairs in a run: an exact per-axis key test
    drops them before any distance is taken.  So the pairs checked up to a
    failure, and the verdict, depend neither on the mix nor on how the sort
    orders ties.  This is evidence against construction bugs, not a proof of
    injectivity.  A non-singular trunk that contracts below float64
    resolution fails it: two lattice points can map to one float64 output.

    Raises ValueError when an output is NaN or infinite, or too large to
    quantize in int64 cells.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if trunk.input_dim != window.dim:
        raise ValueError(f"trunk input dim {trunk.input_dim} != window dim {window.dim}")
    points = window.lattice((resolution,) * window.dim)
    rows = np.ascontiguousarray(forward_batch(trunk, points).T)  # one row per output axis
    if not np.all(np.isfinite(rows)):
        raise ValueError("trunk output is NaN or infinite on the grid; cannot quantize it")
    hi, lo = rows.max(axis=1), rows.min(axis=1)
    # dividing is monotone, so the largest |output / quant| is that of max(hi, -lo)
    if np.max(np.maximum(hi, -lo)) / INJECTIVITY_QUANT >= 2.0 ** 63:
        raise ValueError(f"trunk output beyond +-{2.0 ** 63 * INJECTIVITY_QUANT:.3g} on the "
                         f"grid; cannot quantize it in int64 cells of {INJECTIVITY_QUANT}")

    # floor(x / quant) is monotone, so it keeps the sorted order
    for row in rows:
        if np.all(np.diff(np.floor(np.sort(row) / INJECTIVITY_QUANT)) >= 2.0):
            return True

    scale = max(float(np.linalg.norm(hi - lo)), INJECTIVITY_QUANT)
    diag = window.diagonal
    cells = np.floor(rows / INJECTIVITY_QUANT).astype(np.int64)
    n = len(points)

    for shift in np.ndindex(*(2,) * len(cells)):
        keys = [(axis_cells + s) >> 1 for axis_cells, s in zip(cells, shift)]
        mix = _mix_keys(keys)
        sorted_mix = np.sort(mix)
        repeats = sorted_mix[1:] == sorted_mix[:-1]
        if not repeats.any():
            continue
        order = np.argsort(mix)  # sorted_mix is mix[order]
        # sorted positions whose mix equals the one `lag` on
        run = np.flatnonzero(repeats)
        lag = 1
        while run.size:
            start, size = 0, FIRST_PAIR_BLOCK
            while start < run.size:
                block = run[start:start + size]
                start, size = start + size, min(2 * size, PAIR_BLOCK)
                i, j = order[block], order[block + lag]
                same = np.logical_and.reduce([axis_keys[i] == axis_keys[j]
                                              for axis_keys in keys])
                i, j = i[same], j[same]
                d_out = _row_norms(np.stack([row[i] - row[j] for row in rows], axis=1))
                d_in = _row_norms(points[i] - points[j])
                if np.any(d_out < DEFAULT_MIN_SEP * (d_in / diag) * scale):
                    return False
            lag += 1
            run = run[run + lag < n]
            run = run[sorted_mix[run] == sorted_mix[run + lag]]
    return True
