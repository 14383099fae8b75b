"""Sample containers and every JSON and CSV artifact's on-disk form.

The sample CSV is the reproducibility contract (fixed float format, fixed
newlines, digest in the header), so two runs with the same resolved config
and seed produce byte-identical files. Timings live only in the JSON
sidecar. The JSON reports (sidecar, plan, summary, comparison, drift check,
regularity) share one form, and the rate tables share the CSV float format.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

_FLOAT_FMT = "%.17g"  # 17 significant digits round-trip every float64
_BLOCK_ROWS = 8192  # rows per write: a block's buffers peak near 1.3 MiB a column
# The longest %.17g text, "-2.2250738585072014e-308", is 24 characters: one
# text row holds that and a separator in its last column.
_WIDTH = 25
_POW10 = np.array([float(10**k) for k in range(21)])  # each 10**k, k <= 22, is an exact double
_VELTKAMP = 2.0**27 + 1  # splits a double into two halves of at most 26 bits
# The ASCII digits of 0000..9999, four to a little-endian word.
_QUADS = (np.indices((10,) * 4, dtype=np.uint8) + ord("0")).reshape(4, -1).T
_QUADS = np.ascontiguousarray(_QUADS).view("<u4").ravel()
_POINT = np.frombuffer(b"0.000", np.uint8)  # what precedes the first digit at exponents below 0
# Row e keeps the columns below e and the separator column; row _WIDTH + e
# also drops column 0, the minus sign.
_KEEP = np.arange(_WIDTH) < np.arange(_WIDTH)[:, None]
_KEEP = np.concatenate([_KEEP, _KEEP & (np.arange(_WIDTH) > 0)])
_KEEP[:, -1] = True


def config_digest(config):
    """SHA-256 over the canonical JSON form of a resolved config dict."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class SampleBatch:
    """Terminal states of one run plus everything needed to replay it.

    Attributes:
        samples: (n, dim) float array of terminal particle states.
        config: fully resolved, JSON-serializable run description.
        config_digest: SHA-256 of the canonical config JSON.
        seed: root seed the run used.
        wallclock: run duration in seconds (informational only).
        trajectories: optional (n, steps + 1, dim) path array.
    """

    samples: np.ndarray
    config: dict
    config_digest: str
    seed: int
    wallclock: float
    trajectories: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def record(cls, samples, config, seed, start, trajectories=None):
        """A finished run: ``config`` digested, timed from its ``perf_counter()`` start."""
        wallclock = time.perf_counter() - start
        return cls(samples, config, config_digest(config), seed, wallclock, trajectories)

    @property
    def n(self):
        return self.samples.shape[0]

    @property
    def dim(self):
        return self.samples.shape[1]


def dump_json(payload, fh):
    """Write payload in the artifact JSON form: indent 2, sorted keys, final newline."""
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")


def write_json(path, payload):
    """Write payload to path in the artifact JSON form, creating its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        dump_json(payload, fh)


def rate_table_csv(path, header, rows):
    """Write a table of numbers as the sample CSV writes floats; ints below 2**53 print as str."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, np.array(rows, dtype=float).reshape(-1, len(header)))
    return path


def _write_rows(fh, values):
    """Write a 2-D array as the CSV rows ``np.savetxt(fmt=_FLOAT_FMT, delimiter=",")`` writes.

    Each block of ``_BLOCK_ROWS`` rows is formatted by ``_format_rows`` and
    sent in one ``write``.
    """
    for lo in range(0, values.shape[0], _BLOCK_ROWS):
        fh.write(_format_rows(values[lo:lo + _BLOCK_ROWS]))


def _split(a):
    """Veltkamp's split: a == hi + lo exactly, each of 26 bits at most, so their products are exact."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _fixed_digits(v):
    """The exponent x and 17-digit significand d that ``%.17g`` gives each value of v (1-D float64).

    So ``%.17g`` prints v as d * 10**(x - 16) in fixed notation, x in [-4, 16].
    d is exact: |v| * 10**(16 - x) is formed as p + err with Dekker's
    error-free product (10**k is exact up to k = 22), and rounded half to even
    from there. Every value this does not cover gets x = 17: 0, nan, inf,
    subnormals, the values ``%.17g`` prints with an exponent, and any where
    ``log10`` misjudged x.
    """
    a = np.abs(v)
    fixed = (a >= 1e-5) & (a < 1e17)  # a superset of the values with x in [-4, 16]
    a = np.where(fixed, a, 1.0)
    x = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int8)
    e = (16 - x).astype(np.intp)
    s, s_hi, s_lo = _POW10.take(e), _POW10_HI.take(e), _POW10_LO.take(e)
    a_hi, a_lo = _split(a)
    p = a * s
    err = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    # Keep x only where 10**16 <= p + err < 10**17, the exact product.
    fixed &= (p > 1e16) | ((p == 1e16) & (err >= 0))
    fixed &= (p < 1e17) | ((p == 1e17) & (err < 0))
    floor = np.floor(err)
    frac = err - floor  # exact: err is a multiple of 2**-47, and below 8 in size
    d = p.astype(np.int64) + floor.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & (d & 1 == 1))
    fixed &= d < 10**17  # a carry into the next decade; no double in the fixed range has one
    x[~fixed] = 17
    d[~fixed] = 10**16
    return x, d


def _format_rows(block):
    """The text ``np.savetxt(fmt=_FLOAT_FMT, delimiter=",")`` gives the rows of a 2-D block.

    The values ``_fixed_digits`` covers are laid out in a (values, _WIDTH)
    uint8 buffer: sorted by exponent, the values of one exponent take the
    same columns, which a few slices write. Every other value is formatted
    on its own with ``_FLOAT_FMT``. One mask per row then keeps each text,
    without its trailing zeros, and its separator.
    """
    rows, cols = block.shape
    values = np.asarray(block, dtype=np.float64).ravel()
    n = values.size
    x, d = _fixed_digits(values)
    order = np.argsort(x, kind="stable")
    x, d = x[order], d[order]
    words = np.empty((n, 5), "<u4")  # the 17 digits of d are bytes 3..19 of each row
    lead = d // 10**16
    words[:, 0] = (lead + ord("0")) << 24
    rest = d - lead * 10**16
    for k in range(4, 0, -1):
        quot = rest // 10**4
        words[:, k] = _QUADS.take(rest - quot * 10**4)
        rest = quot
    digits = words.view(np.uint8)[:, 3:]
    significant = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    text = np.empty((n, _WIDTH), np.uint8)
    text[:, 0] = ord("-")
    bounds = np.searchsorted(x, np.arange(-4, 18))
    for exp, lo, hi in zip(range(-4, 17), bounds[:-1], bounds[1:]):
        if exp >= 0:
            text[lo:hi, 1:exp + 2] = digits[lo:hi, :exp + 1]
            text[lo:hi, exp + 2] = ord(".")
            text[lo:hi, exp + 3:19] = digits[lo:hi, exp + 1:]
        else:
            text[lo:hi, 1:2 - exp] = _POINT[:1 - exp]
            text[lo:hi, 2 - exp:19 - exp] = digits[lo:hi]
    x = x.astype(np.intp)
    end = np.where(x < 0, 2 - x + significant,
                   np.where(significant > x + 1, significant + 2, x + 2))
    slow = bounds[-1]
    if slow < n:
        texts = [_FLOAT_FMT % v for v in values[order[slow:]].tolist()]
        end[slow:] = lengths = np.fromiter(map(len, texts), np.intp, n - slow)
        chars = np.frombuffer("".join(texts).encode("ascii"), np.uint8)
        starts = np.arange(slow, n) * _WIDTH - (np.cumsum(lengths) - lengths)
        text.ravel()[np.repeat(starts, lengths) + np.arange(chars.size)] = chars
    keep = end + _WIDTH * ((x <= 16) & (values[order] >= 0))
    unsort = np.empty_like(order)
    unsort[order] = np.arange(n)
    text = text.take(unsort, axis=0)
    text[:, -1] = ord(",")
    text.reshape(rows, cols, _WIDTH)[:, -1, -1] = ord("\n")
    return text[_KEEP.take(keep.take(unsort), axis=0)].tobytes().decode("ascii")


def save_batch(batch, out_dir, stem="samples"):
    """Write ``<stem>.csv`` and ``<stem>.json`` under out_dir.

    Returns:
        dict with the written paths under keys "csv" and "sidecar".
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, stem + ".csv")
    sidecar_path = os.path.join(out_dir, stem + ".json")
    columns = [f"x{i}" for i in range(batch.dim)]
    with open(csv_path, "w", newline="\n") as fh:
        fh.write(f"# config_digest: {batch.config_digest}\n")
        fh.write(f"# seed: {batch.seed}\n")
        fh.write(",".join(columns) + "\n")
        _write_rows(fh, batch.samples)
    sidecar = {
        "columns": columns,
        "config": batch.config,
        "config_digest": batch.config_digest,
        "dim": batch.dim,
        "n": batch.n,
        "seed": batch.seed,
        "wallclock": batch.wallclock,
    }
    write_json(sidecar_path, sidecar)
    return {"csv": csv_path, "sidecar": sidecar_path}


def load_batch(csv_path):
    """Read a batch back from its CSV (and sidecar, if present).

    A batch with no rows keeps the width its ``x0,x1,...`` header line names.
    """
    with open(csv_path) as fh:
        digest_line = fh.readline().strip()
        seed_line = fh.readline().strip()
        if not digest_line.startswith("# config_digest:") or not seed_line.startswith("# seed:"):
            raise ValueError(f"{csv_path} does not look like a sample CSV")
        columns = fh.readline().strip().split(",")
        data_start = fh.tell()
        if fh.read(1):
            fh.seek(data_start)
            samples = np.loadtxt(fh, delimiter=",", ndmin=2)
        else:
            samples = np.empty((0, len(columns)))
    digest = digest_line.split(":", 1)[1].strip()
    seed = int(seed_line.split(":", 1)[1].strip())
    sidecar_path = os.path.splitext(csv_path)[0] + ".json"
    config = {}
    wallclock = float("nan")
    if os.path.exists(sidecar_path):
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
        config = sidecar.get("config", {})
        wallclock = sidecar.get("wallclock", wallclock)
    return SampleBatch(
        samples=samples,
        config=config,
        config_digest=digest,
        seed=seed,
        wallclock=wallclock,
    )
