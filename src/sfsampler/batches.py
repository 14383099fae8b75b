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
_BLOCK_ROWS = 8192  # rows per write: a block's strings stay well under 1 MiB


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

    One ``%`` call formats a whole block of rows, and one ``write`` sends it.
    """
    row = ",".join([_FLOAT_FMT] * values.shape[1]) + "\n"
    for lo in range(0, values.shape[0], _BLOCK_ROWS):
        block = values[lo:lo + _BLOCK_ROWS]
        fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


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
