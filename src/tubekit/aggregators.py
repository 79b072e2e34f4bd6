"""Forward-only temporal aggregation kernels over per-track (T, C) features.

Three aggregators collapse a track's time axis to a single feature vector:
a plain temporal max pool, a dilated temporal convolution followed by max
pooling (tcn), and a five-branch dilated pyramid (aspp). Weights are inputs;
arithmetic accumulates in float64 and forward outputs are stored as float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Conv1dSpec",
    "conv1d",
    "temporal_max_pool",
    "tcn_forward",
    "aspp_forward",
    "random_weights",
    "CHANNELS",
    "TCN_WEIGHT_SHAPES",
    "ASPP_WEIGHT_SHAPES",
]

CHANNELS = 576
_REDUCED = 256
_BRANCHES = 5


@dataclass(frozen=True)
class Conv1dSpec:
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0
    dilation: int = 1
    has_bias: bool = True

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel_size, self.dilation) < 1:
            raise ValueError("channels, kernel size and dilation must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        if self.stride != 1:
            raise ValueError("only stride 1 is supported")


def conv1d(x: np.ndarray, spec: Conv1dSpec, weight: np.ndarray,
           bias: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlate (..., T, Cin) input with (Cout, Cin, K) weights, zero padded.

    Leading axes are independent sequences. Output length is
    T + 2*padding - dilation*(K-1); float64 throughout. Every output row is
    one product of its (Cin*K) taps with the flattened weights, so all
    sequences go through a single matrix multiply.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != spec.in_channels:
        raise ValueError(f"input shape {x.shape} does not match Cin={spec.in_channels}")
    w = np.asarray(weight, dtype=np.float64)
    expected = (spec.out_channels, spec.in_channels, spec.kernel_size)
    if w.shape != expected:
        raise ValueError(f"weight shape {w.shape} != {expected}")
    if spec.has_bias:
        if bias is None:
            raise ValueError("spec requires a bias vector")
        b = np.asarray(bias, dtype=np.float64)
        if b.shape != (spec.out_channels,):
            raise ValueError(f"bias shape {b.shape} != ({spec.out_channels},)")
    elif bias is not None:
        raise ValueError("spec forbids a bias vector")
    lead, t = x.shape[:-2], x.shape[-2]
    k, d, p = spec.kernel_size, spec.dilation, spec.padding
    t_out = t + 2 * p - d * (k - 1)
    if t_out < 1:
        raise ValueError(f"input too short: T={t} with padding={p}, dilation={d}, K={k}")
    if k == 1 and p == 0:
        taps = x
    else:
        padded = np.zeros(lead + (t + 2 * p, spec.in_channels), dtype=np.float64)
        padded[..., p : p + t, :] = x
        # (..., T_out, Cin, K): the same Cin-major layout as weight.reshape(Cout, -1)
        taps = np.stack([padded[..., i * d : i * d + t_out, :] for i in range(k)], axis=-1)
    out = taps.reshape(-1, spec.in_channels * k) @ w.reshape(spec.out_channels, -1).T
    if spec.has_bias:
        out += b
    return out.reshape(lead + (t_out, spec.out_channels))


def temporal_max_pool(x: np.ndarray) -> np.ndarray:
    """Channel-wise maximum over time: (..., T, C) -> (..., 1, C)."""
    x = np.asarray(x)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise ValueError(f"expected a non-empty (..., T, C) array, got shape {x.shape}")
    return x.max(axis=-2, keepdims=True)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=x)


def _get_weight(weights: dict, name: str, shape: tuple) -> np.ndarray:
    arr = weights.get(name)
    if arr is None:
        raise ValueError(f"missing weight tensor '{name}'")
    arr = np.asarray(arr)
    if arr.shape != shape:
        raise ValueError(f"weight tensor '{name}' has shape {arr.shape}, expected {shape}")
    return arr


TCN_WEIGHT_SHAPES = {
    "tcn.weight": (CHANNELS, CHANNELS, 3),
    "tcn.bias": (CHANNELS,),
}

# Pyramid layout: convs.0 reduces 576 -> 256; convs.1-4 are parallel branches
# back to 576 (k=1, then k=3 at dilations 1/3/5); convs.5 maps the
# time-averaged 256 vector to 576; project folds the 5*576 concat to 576.
ASPP_WEIGHT_SHAPES = {
    "aspp.convs.0.weight": (_REDUCED, CHANNELS, 1),
    "aspp.convs.0.bias": (_REDUCED,),
    "aspp.convs.1.weight": (CHANNELS, _REDUCED, 1),
    "aspp.convs.1.bias": (CHANNELS,),
    "aspp.convs.2.weight": (CHANNELS, _REDUCED, 3),
    "aspp.convs.2.bias": (CHANNELS,),
    "aspp.convs.3.weight": (CHANNELS, _REDUCED, 3),
    "aspp.convs.3.bias": (CHANNELS,),
    "aspp.convs.4.weight": (CHANNELS, _REDUCED, 3),
    "aspp.convs.4.bias": (CHANNELS,),
    "aspp.convs.5.weight": (CHANNELS, _REDUCED, 1),
    "aspp.convs.5.bias": (CHANNELS,),
    "aspp.project.weight": (CHANNELS, _BRANCHES * CHANNELS, 1),
}


def _check_channels(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != CHANNELS:
        raise ValueError(f"expected (..., T, {CHANNELS}) input, got shape {x.shape}")
    return x


def tcn_forward(x: np.ndarray, weights: dict) -> np.ndarray:
    """Length-preserving dilated conv (K=3, d=2, p=2) then temporal max pool.

    Maps (..., T, 576) to (..., 1, 576); leading axes are independent tracks.
    """
    x = _check_channels(x)
    w = _get_weight(weights, "tcn.weight", TCN_WEIGHT_SHAPES["tcn.weight"])
    b = _get_weight(weights, "tcn.bias", TCN_WEIGHT_SHAPES["tcn.bias"])
    spec = Conv1dSpec(CHANNELS, CHANNELS, 3, padding=2, dilation=2)
    y = conv1d(x, spec, w, b)
    return temporal_max_pool(y).astype(np.float32)


def aspp_forward(x: np.ndarray, weights: dict) -> np.ndarray:
    """Dilated temporal pyramid: reduce, five branches, project, max pool.

    Maps (..., T, 576) to (..., 1, 576); leading axes are independent tracks.
    The reduced (..., T, 256) stream feeds four convolution branches (k=1
    and k=3 at dilations 1/3/5, each ReLU-gated and length preserving) plus
    a global-average branch broadcast back across time. Their concatenation
    is projected bias-free back to 576 channels, ReLU-gated and max pooled,
    so the output is non-negative. The projection is applied one branch at
    a time, through that branch's 576-column slice of the projection
    weight, and the five parts are summed: the concatenation is never
    built, and the global branch is projected once per track.
    """
    x = _check_channels(x)

    def w(name):
        return _get_weight(weights, name, ASPP_WEIGHT_SHAPES[name])

    reduce_spec = Conv1dSpec(CHANNELS, _REDUCED, 1)
    reduced = conv1d(x, reduce_spec, w("aspp.convs.0.weight"), w("aspp.convs.0.bias"))
    # Fetched, and so checked, in the order the layers run.
    convs = [(w(f"aspp.convs.{i}.weight"), w(f"aspp.convs.{i}.bias")) for i in range(1, 6)]
    project = w("aspp.project.weight")

    k1 = Conv1dSpec(_REDUCED, CHANNELS, 1)
    branches = [(reduced, k1)]
    for dil in (1, 3, 5):
        branches.append((reduced, Conv1dSpec(_REDUCED, CHANNELS, 3, padding=dil, dilation=dil)))
    branches.append((reduced.mean(axis=-2, keepdims=True), k1))

    project_spec = Conv1dSpec(CHANNELS, CHANNELS, 1, has_bias=False)
    projected = None
    for i, ((inp, spec), (cw, cb)) in enumerate(zip(branches, convs)):
        branch = _relu(conv1d(inp, spec, cw, cb))
        part = conv1d(branch, project_spec, project[:, i * CHANNELS : (i + 1) * CHANNELS])
        if projected is None:
            projected = part
        else:
            projected += part  # the global branch's (..., 1, 576) broadcasts over time
    return temporal_max_pool(_relu(projected)).astype(np.float32)


def random_weights(kind: str, seed: int = 0) -> dict:
    """Seeded test weights, uniform in [-k, k] with k = (Cin*K)**-0.5 per layer."""
    if kind == "maxpool":
        return {}
    if kind == "tcn":
        shapes = TCN_WEIGHT_SHAPES
    elif kind == "aspp":
        shapes = ASPP_WEIGHT_SHAPES
    else:
        raise ValueError(f"unknown aggregator '{kind}' (expected maxpool, tcn, or aspp)")
    rng = np.random.default_rng(seed)
    out = {}
    for name, shape in shapes.items():
        if name.endswith(".bias"):
            wshape = shapes[name[: -len(".bias")] + ".weight"]
            fan_in = wshape[1] * wshape[2]
        else:
            fan_in = shape[1] * shape[2]
        bound = 1.0 / math.sqrt(fan_in)
        out[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return out
