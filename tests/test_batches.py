"""Sample CSV writer: the bytes of ``np.savetxt`` at every block edge, and a
lossless round trip through ``load_batch``."""

import io
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfsampler.batches import (
    _BLOCK_ROWS,
    _FLOAT_FMT,
    SampleBatch,
    _write_rows,
    config_digest,
    load_batch,
    save_batch,
)

EDGE_ROWS = (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1)


@st.composite
def bit_pattern_arrays(draw, rows=st.sampled_from(EDGE_ROWS)):
    """(n, p) float64 arrays of random bit patterns with special values planted in."""
    n, p = draw(rows), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(0, 2**64, size=(n, p), dtype=np.uint64)
    values = bits.view(np.float64)
    planted = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                            | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.nan, -np.nan]),
                            max_size=min(16, n * p)))
    values.ravel()[:len(planted)] = planted
    return values


@settings(max_examples=40, deadline=None)
@given(bit_pattern_arrays())
def test_block_writer_gives_the_bytes_of_savetxt(values):
    expected, got = io.StringIO(), io.StringIO()
    np.savetxt(expected, values, fmt=_FLOAT_FMT, delimiter=",")
    _write_rows(got, values)
    assert got.getvalue() == expected.getvalue()


@settings(max_examples=20, deadline=None)
@given(bit_pattern_arrays(rows=st.sampled_from(EDGE_ROWS[1:])))
def test_load_batch_round_trips_every_finite_value_bit_for_bit(values):
    batch = SampleBatch(values, {}, config_digest({}), 11, 0.0)
    with tempfile.TemporaryDirectory() as out:
        back = load_batch(save_batch(batch, out)["csv"])
    assert back.samples.shape == values.shape
    finite = np.isfinite(values)
    assert np.array_equal(np.isfinite(back.samples), finite)
    assert np.array_equal(back.samples[finite].view(np.uint64), values[finite].view(np.uint64))
    assert np.array_equal(np.isnan(back.samples), np.isnan(values))
    assert np.array_equal(back.samples[np.isinf(values)], values[np.isinf(values)])
    assert (back.config_digest, back.seed) == (batch.config_digest, 11)


@pytest.mark.parametrize("dim", [1, 3])
def test_load_batch_keeps_the_width_of_an_empty_batch(dim):
    batch = SampleBatch(np.empty((0, dim)), {}, config_digest({}), 5, 0.0)
    with tempfile.TemporaryDirectory() as out:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_batch(save_batch(batch, out)["csv"])
    assert back.samples.shape == (0, dim)
    assert (back.config_digest, back.seed) == (batch.config_digest, 5)
