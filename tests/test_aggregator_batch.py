"""Property tests: the batched aggregators against their per-track references.

``conv1d``, ``tcn_forward`` and ``aspp_forward`` take any number of leading
track axes and run all tracks through one matrix multiply per layer. Each
track of a batched call must equal the same call on that track alone, and the
loop oracles in ``tests/oracles.py`` applied track by track.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tubekit.aggregators import (
    CHANNELS,
    Conv1dSpec,
    aspp_forward,
    conv1d,
    random_weights,
    tcn_forward,
    temporal_max_pool,
)

from oracles import composed_aspp, composed_tcn, naive_conv1d

# Shapes of the leading axes: one track axis of 1-4 tracks, or two axes.
_leads = st.one_of(st.integers(1, 4).map(lambda n: (n,)), st.just((2, 2)))


@functools.lru_cache(maxsize=None)
def _weights(kind, seed):
    return random_weights(kind, seed=seed)


def _per_track(x):
    """Yield (index, track) over every leading index of a (..., T, C) array."""
    for idx in np.ndindex(x.shape[:-2]):
        yield idx, x[idx]


@given(
    lead=_leads,
    cin=st.integers(1, 4),
    cout=st.integers(1, 4),
    k=st.sampled_from([1, 3, 5]),
    dilation=st.sampled_from([1, 2, 3, 5]),
    padding=st.integers(0, 6),
    extra=st.integers(0, 8),
    has_bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_conv1d_matches_per_track_and_naive(lead, cin, cout, k, dilation, padding,
                                                     extra, has_bias, seed):
    rng = np.random.default_rng(seed)
    t = max(1, dilation * (k - 1) + 1 - 2 * padding) + extra
    x = rng.standard_normal(lead + (t, cin))
    w = rng.standard_normal((cout, cin, k))
    b = rng.standard_normal(cout) if has_bias else None
    spec = Conv1dSpec(cin, cout, k, padding=padding, dilation=dilation, has_bias=has_bias)
    out = conv1d(x, spec, w, b)
    assert out.shape == lead + (t + 2 * padding - dilation * (k - 1), cout)
    for idx, track in _per_track(x):
        np.testing.assert_allclose(out[idx], conv1d(track, spec, w, b), rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[idx], naive_conv1d(track, w, b, padding, dilation),
                                   rtol=0, atol=1e-9)


@given(lead=_leads, t=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_batched_temporal_max_pool(lead, t, seed):
    x = np.random.default_rng(seed).standard_normal(lead + (t, 3))
    out = temporal_max_pool(x)
    assert out.shape == lead + (1, 3)
    for idx, track in _per_track(x):
        assert np.array_equal(out[idx], temporal_max_pool(track))


@settings(max_examples=30)
@given(lead=_leads, t=st.integers(1, 6), wseed=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_batched_tcn_matches_composed_oracle(lead, t, wseed, seed):
    weights = _weights("tcn", wseed)
    x = np.random.default_rng(seed).standard_normal(lead + (t, CHANNELS))
    out = tcn_forward(x, weights)
    assert out.shape == lead + (1, CHANNELS) and out.dtype == np.float32
    for idx, track in _per_track(x):
        np.testing.assert_allclose(out[idx], tcn_forward(track, weights), rtol=0, atol=1e-6)
        assert np.allclose(out[idx], composed_tcn(track, weights), atol=1e-5)


@settings(max_examples=30)
@given(lead=_leads, t=st.integers(1, 6), wseed=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_batched_aspp_matches_composed_oracle(lead, t, wseed, seed):
    weights = _weights("aspp", wseed)
    x = np.random.default_rng(seed).standard_normal(lead + (t, CHANNELS))
    out = aspp_forward(x, weights)
    assert out.shape == lead + (1, CHANNELS) and out.dtype == np.float32
    for idx, track in _per_track(x):
        np.testing.assert_allclose(out[idx], aspp_forward(track, weights), rtol=0, atol=1e-6)
        assert np.allclose(out[idx], composed_aspp(track, weights), atol=1e-5)


def test_aspp_global_branch_alone():
    # Only the global-average branch and its projection slice are nonzero, so
    # every time step carries the same projected vector and the output is
    # relu(P4 @ relu(W5 @ mean(W0 @ x))), per track.
    weights = {name: np.zeros_like(w) for name, w in _weights("aspp", 0).items()}
    full = _weights("aspp", 0)
    for name in ("aspp.convs.0.weight", "aspp.convs.0.bias",
                 "aspp.convs.5.weight", "aspp.convs.5.bias"):
        weights[name] = full[name]
    weights["aspp.project.weight"][:, 4 * CHANNELS :] = \
        full["aspp.project.weight"][:, 4 * CHANNELS :]
    x = np.random.default_rng(93).standard_normal((3, 5, CHANNELS))
    out = aspp_forward(x, weights)
    for n in range(3):
        assert np.allclose(out[n], composed_aspp(x[n], weights), atol=1e-5)
    assert np.any(out > 0.0)
