"""Cold start: the package and every command but the ``assignment`` metric
run without loading scipy's heavy subpackages, and a one-thread command
without the thread pool's ``concurrent.futures`` and the ``logging`` it loads.
Without scipy at all, which only the tests need, they run the same.

The test process itself has scipy loaded (the oracles use it), so the
commands run in a fresh interpreter that reports what it imported.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import brute_force_w2

HEAVY = ("scipy.optimize", "scipy.spatial", "scipy.sparse")
POOL = ("concurrent.futures", "logging")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MIXTURE = """[target]
kind = mixture
weights = 0.5 0.5
means = 2; -2

[run]
seed = 7
steps = 4
particles = 32
drift = mc-grad
mc_size = 8

[ula]
step_size = 0.05
burn_in = 4

[plan]
axis = steps
values = 2 4 8
replications = 3
"""

ARGVS = [
    ["sample", "--config", "cfg.ini", "--out", "sample"],
    ["drift-check", "--config", "cfg.ini"],
    ["regularity", "--config", "cfg.ini"],
    ["sweep", "--config", "cfg.ini", "--out", "sweep"],
    ["compare", "--config", "cfg.ini", "--out", "compare"],
]

CHILD = """
import contextlib, io, json, sys
import numpy as np
import sfsampler
from sfsampler.cli import main

heavy = {heavy!r}
loaded = {{}}

def record(stage):
    loaded[stage] = sorted(m for m in sys.modules if m.startswith(heavy))

record("import")
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
    record(argv[0])
x, y = np.array({x!r}), np.array({y!r})
value = sfsampler.exact_w2_assignment(x, y)
record("assignment")
print(json.dumps({{"loaded": loaded, "assignment": value}}))
"""


def test_commands_load_no_heavy_scipy_subpackage(tmp_path):
    gen = np.random.default_rng(3)
    x, y = gen.normal(size=(6, 2)), gen.normal(size=(6, 2))
    with open(tmp_path / "cfg.ini", "w") as fh:
        fh.write(MIXTURE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    child = CHILD.format(heavy=HEAVY + POOL, argvs=ARGVS, x=x.tolist(), y=y.tolist())
    done = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    loaded = report["loaded"]
    for stage in ("import", "sample", "drift-check", "regularity", "sweep", "compare"):
        assert loaded[stage] == [], (stage, loaded[stage])
    assert {"scipy.optimize", "scipy.spatial"} <= set(loaded["assignment"])
    assert report["assignment"] == pytest.approx(brute_force_w2(x, y), abs=1e-12)


NO_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None  # every import of scipy now fails
import numpy as np
import sfsampler
from sfsampler.cli import main

target = sfsampler.gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]])
config = sfsampler.SamplerConfig(steps=4, particles=32, seed=7, drift="mc-grad", mc_size=8)
batch = sfsampler.sfs_run(config, target)
sfsampler.save_batch(batch, "batch")
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
try:
    sfsampler.exact_w2_assignment(np.zeros((2, 1)), np.ones((2, 1)))
except ImportError as exc:
    print(exc)
"""


def test_the_package_and_every_command_run_without_scipy(tmp_path):
    with open(tmp_path / "cfg.ini", "w") as fh:
        fh.write(MIXTURE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY.format(argvs=ARGVS)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("exact_w2_assignment needs scipy: pip install scipy")
    assert os.path.exists(tmp_path / "batch" / "samples.csv")
