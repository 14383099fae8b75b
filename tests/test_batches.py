"""Sample CSV writer: the bytes of ``np.savetxt`` at every block edge, the
bytes of ``'%.17g' % v`` on its fixed-notation fast path, a memory bound, and
a lossless round trip through ``load_batch``."""

import io
import tempfile
import tracemalloc
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


def _reference(values):
    """The CSV text of a 2-D array, formatted one ``'%.17g' % float(v)`` at a time."""
    return "".join(",".join(_FLOAT_FMT % float(v) for v in row) + "\n" for row in values)


def _written(values):
    got = io.StringIO()
    _write_rows(got, values)
    return got.getvalue()


@st.composite
def decade_arrays(draw, rows=st.sampled_from((1, 2, 7, 100) + EDGE_ROWS[1:])):
    """(n, p) arrays of +-mantissa * 10**k, k in [-6, 18]: mostly fixed notation, the fast path."""
    n, p = draw(rows), draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mantissa = gen.uniform(1.0, 10.0, size=(n, p))
    if draw(st.booleans()):  # short decimals, so that %g strips trailing zeros
        mantissa = np.round(mantissa, draw(st.integers(0, 6)))
    exponent = gen.integers(-6, 19, size=(n, p))
    return gen.choice([-1.0, 1.0], size=(n, p)) * mantissa * 10.0**exponent


@settings(max_examples=40, deadline=None)
@given(decade_arrays())
def test_writer_gives_each_value_its_own_17g_text(values):
    assert _written(values) == _reference(values)


POWERS_OF_TEN = [v for k in range(-6, 19) for ten in [float(f"1e{k}")]
                 for v in (np.nextafter(ten, 0.0), ten, np.nextafter(ten, np.inf))]
# Doubles just below a power of ten that %.17g rounds up to it, into the next decade.
CARRIES = [1e-305, 1e-176, 1e-79, 1e-70, 1e-14, 1e98, 1e129, 1e220]
# Exact ties at the 18th significant digit, which %.17g rounds half to even:
# 1125899906842624.25 -> ...624.2 and 1125899906842624.75 -> ...624.8. The
# 2**51 pair is rounded to a whole number when the literal is parsed.
TIES = [2**50 + 0.25, 2**50 + 0.75, 2**49 + 0.125, 2**49 + 0.375, 2**51 + 0.25, 2**51 + 0.75]
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]


@pytest.mark.parametrize("column", [
    POWERS_OF_TEN, CARRIES, TIES, SPECIAL,
    [4096.0, 1024.0, 1.0, 16.0, 2.0**53, 2.0**56, -4096.0, 0.5, 0.0001, 99999999999999984.0],
], ids=["powers-of-ten", "carries", "ties", "special", "whole-numbers"])
def test_writer_pins_the_edges_of_the_fast_path(column):
    values = np.array(column)[:, None]
    assert _written(values) == _reference(values)
    assert _written(-values) == _reference(-values)


def test_rows_that_mix_fast_and_per_value_columns():
    row = [1.5, 0.0, np.nan, -2.25e-7, 1e300, -3.0, 0.00012345, 1.2345e16, 1.2345e17, -0.0]
    values = np.array([row, row[::-1], [-v for v in row]])
    assert _written(values) == _reference(values)
    assert _written(values).startswith("1.5,0,nan,-2.2499999999999999e-07,1.0000000000000001e+300,-3,"
                                       "0.00012344999999999999,12345000000000000,1.2345e+17,-0\n")


def test_float32_and_strided_input_are_written_as_their_float64_values():
    base = np.random.default_rng(3).normal(0.0, 50.0, size=(3, 1000))
    for values in (base.astype(np.float32), base.T, base.astype(np.float32).T[::3]):
        assert _written(values) == _reference(values)


def test_writer_memory_stays_per_block():
    values = np.random.default_rng(0).normal(size=(200_000, 2))
    with tempfile.TemporaryFile("w") as fh:
        tracemalloc.start()
        try:
            _write_rows(fh, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


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


def test_load_batch_refuses_a_csv_without_the_digest_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("x0\n1.0\n")
    with pytest.raises(ValueError, match="does not look like a sample CSV"):
        load_batch(str(path))
