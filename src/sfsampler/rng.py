"""Deterministic stream derivation: one SFC64 stream per (seed, role, step).

Stream policy ``sfc64-blocks-v1``: the 128-bit seed, the 64-bit role and the
64-bit step, as eight fixed-width 32-bit words, seed a ``SeedSequence`` and
through it one SFC64 generator. A particle's draws are the rows of the block
drawn sequentially from that substream on the calling thread, so row r is the
same no matter how many rows are requested, in how many chunks they are
generated, or how many worker threads consume them. Every reproducibility
claim downstream rests on this rule.
"""

import numpy as np

from .errors import check_int

STREAM_POLICY = "sfc64-blocks-v1"

# Role words keep independent uses of one seed on separate substreams.
ROLE_INCREMENT = 1      # Euler-Maruyama Gaussian increments
ROLE_DRIFT = 2          # Monte-Carlo drift batches
ROLE_GROUND_TRUTH = 3   # ground-truth sampling
ROLE_PROJECTION = 4     # sliced-metric directions
ROLE_ULA_INIT = 5       # Langevin chain initialization
ROLE_ULA_STEP = 6       # Langevin iteration noise
ROLE_DERIVE = 7         # child-seed derivation (harness cells, noise floors)
ROLE_PROBE = 9          # regularity probe points

_MASK64 = (1 << 64) - 1
MAX_SEED = (1 << 128) - 1


def check_seed(seed):
    """Validate a root seed and return it as a plain int."""
    seed = check_int("seed", seed, minimum=0)
    if seed > MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    return seed


def substream(seed, role, step=0):
    """Generator for the (seed, role, step) substream.

    Args:
        seed: root seed, integer in [0, 2**128).
        role: one of the ROLE_* constants.
        step: step or iteration index within that role.
    """
    seed = check_seed(seed)
    role, step = check_int("role", role, minimum=0), check_int("step", step, minimum=0)
    if max(role, step) > _MASK64:
        raise ValueError("role and step must be non-negative 64-bit integers")
    key = seed.to_bytes(16, "little") + role.to_bytes(8, "little") + step.to_bytes(8, "little")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(np.frombuffer(key, "<u4"))))


def normal_rows(seed, role, step, n_rows, row_shape=()):
    """Draw the first n_rows rows of a block, one row per particle index."""
    gen = substream(seed, role, step)
    return gen.standard_normal((check_int("n_rows", n_rows, minimum=0),) + tuple(row_shape))


def normal_row(seed, role, step, row_index, row_shape=()):
    """Materialize the single row ``row_index`` of a block.

    Draws and discards the prefix, so the cost grows linearly with
    row_index. Meant for spot checks on grid-sized index ranges, such as an
    independent reference for a direct drift call, not for hot loops.
    """
    row_index = check_int("row_index", row_index, minimum=0)
    width = 1
    for d in row_shape:
        width *= int(d)
    gen = substream(seed, role, step)
    if row_index:
        gen.standard_normal(row_index * width)
    return gen.standard_normal(width).reshape(tuple(row_shape))


def child_seeds(seed, step, count):
    """Derive ``count`` child seeds from (seed, step), for nested runs."""
    gen = substream(seed, ROLE_DERIVE, step)
    vals = gen.integers(0, 1 << 63, size=check_int("count", count, minimum=0), dtype=np.uint64)
    return [int(v) for v in vals]
