"""Stream policy: substreams are deterministic, disjoint, and block-prefix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfsampler import rng

ROLES = sorted(getattr(rng, name) for name in dir(rng) if name.startswith("ROLE_"))


def test_substream_is_deterministic():
    a = rng.substream(123, rng.ROLE_DRIFT, 5).standard_normal(64)
    b = rng.substream(123, rng.ROLE_DRIFT, 5).standard_normal(64)
    assert np.array_equal(a, b)


def test_streams_differ_across_roles_steps_seeds():
    base = rng.substream(9, rng.ROLE_DRIFT, 0).standard_normal(32)
    for gen in (
        rng.substream(9, rng.ROLE_INCREMENT, 0),
        rng.substream(9, rng.ROLE_DRIFT, 1),
        rng.substream(10, rng.ROLE_DRIFT, 0),
    ):
        assert not np.array_equal(base, gen.standard_normal(32))


def test_chunked_draws_equal_one_block():
    whole = rng.substream(7, rng.ROLE_DRIFT, 3).standard_normal((100, 5))
    gen = rng.substream(7, rng.ROLE_DRIFT, 3)
    parts = np.vstack([gen.standard_normal((30, 5)), gen.standard_normal((70, 5))])
    assert np.array_equal(whole, parts)


def test_normal_row_indexes_into_the_block():
    block = rng.normal_rows(11, rng.ROLE_DRIFT, 2, 6, (4, 3))
    for i in range(6):
        row = rng.normal_row(11, rng.ROLE_DRIFT, 2, i, (4, 3))
        assert np.array_equal(row, block[i])


def test_huge_seeds_are_legal():
    seed = (1 << 127) + 12345
    a = rng.substream(seed, rng.ROLE_DRIFT, 0).standard_normal(8)
    b = rng.substream(seed, rng.ROLE_DRIFT, 0).standard_normal(8)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [True, False, -1, 1 << 128, 1.5, "7"])
def test_bad_seeds_rejected(bad):
    with pytest.raises((TypeError, ValueError)):
        rng.check_seed(bad)


def test_child_seeds_deterministic_and_distinct():
    a = rng.child_seeds(42, 3, 8)
    b = rng.child_seeds(42, 3, 8)
    assert a == b
    assert len(set(a)) == 8
    assert all(0 <= s < (1 << 63) for s in a)
    assert rng.child_seeds(42, 4, 8) != a


@st.composite
def block_cases(draw):
    n = draw(st.integers(1, 40))
    return dict(
        seed=draw(st.integers(0, rng.MAX_SEED)),
        role=draw(st.one_of(st.sampled_from(ROLES), st.integers(0, 2**64 - 1))),
        step=draw(st.integers(0, 2**64 - 1)),
        n=n,
        width=draw(st.integers(1, 6)),
        cuts=sorted(draw(st.lists(st.integers(0, n), max_size=4))),
        more=draw(st.integers(1, 30)),
        row=draw(st.integers(0, n - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(block_cases())
def test_a_row_depends_on_neither_the_chunking_nor_n(case):
    seed, role, step, n, width = (case[k] for k in ("seed", "role", "step", "n", "width"))
    block = rng.normal_rows(seed, role, step, n, (width,))
    gen = rng.substream(seed, role, step)
    edges = [0, *case["cuts"], n]
    chunks = [np.empty((hi - lo, width)) for lo, hi in zip(edges, edges[1:])]
    for chunk in chunks:
        gen.standard_normal(out=chunk)
    assert np.array_equal(np.vstack(chunks), block)
    assert np.array_equal(rng.normal_rows(seed, role, step, n + case["more"], (width,))[:n], block)
    assert np.array_equal(rng.normal_row(seed, role, step, case["row"], (width,)),
                          block[case["row"]])


@pytest.mark.parametrize("a, b", [
    ((5, 1 + 2 * 2**32, 3), (5, 1, 2 + 3 * 2**32)),
    ((7, 2**32, 5), (7, 0, 1 + 5 * 2**32)),
    ((1 + 2 * 2**32, 3, 0), (1, 2 + 3 * 2**32, 0)),
])
def test_triples_a_variable_width_encoding_merges_get_their_own_streams(a, b):
    # numpy writes each int of an entropy list in as few 32-bit words as it
    # needs, so both triples become the same words there.
    merged = [np.random.SeedSequence(list(triple)).generate_state(4) for triple in (a, b)]
    assert np.array_equal(*merged)
    assert not np.array_equal(rng.substream(*a).standard_normal(16),
                              rng.substream(*b).standard_normal(16))


def test_a_substream_is_sfc64_on_eight_fixed_width_words_with_golden_normals():
    # Seed words low first, then the role's two words and the step's two. The
    # pinned normals fail if numpy changes SFC64, SeedSequence or its normals.
    seed, step = 0x0123456789ABCDEFFEDCBA9876543210, 2**32 + 7
    words = [0x76543210, 0xFEDCBA98, 0x89ABCDEF, 0x01234567, rng.ROLE_DRIFT, 0, 7, 1]
    own = np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))
    got = rng.substream(seed, rng.ROLE_DRIFT, step).standard_normal(4)
    assert np.array_equal(got, own.standard_normal(4))
    assert got.tolist() == [
        1.1143660108367095, -1.067975750743308, -1.2737953699900333, -0.3083394885739935]
    assert rng.STREAM_POLICY == "sfc64-blocks-v1"
