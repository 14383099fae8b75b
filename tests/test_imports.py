"""Cold start: the package and every command run without loading scipy,
and a one-thread command without the thread pool's ``concurrent.futures``
and the ``logging`` it loads. Without scipy at all, which only the tests
need, they run the same, and no module of the package imports it.

The test process itself has scipy loaded (the oracles use it), so the
commands run in a fresh interpreter that reports what it imported.
"""

import json
import os
import re
import subprocess
import sys

HEAVY = ("scipy",)
POOL = ("concurrent.futures", "logging")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "sfsampler")

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
print(json.dumps(loaded))
"""


def test_commands_load_no_heavy_scipy_subpackage(tmp_path):
    with open(tmp_path / "cfg.ini", "w") as fh:
        fh.write(MIXTURE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    child = CHILD.format(heavy=HEAVY + POOL, argvs=ARGVS)
    done = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    for stage in ("import", "sample", "drift-check", "regularity", "sweep", "compare"):
        assert loaded[stage] == [], (stage, loaded[stage])


NO_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None  # every import of scipy now fails
import sfsampler
from sfsampler.cli import main

target = sfsampler.gaussian_mixture_target([0.5, 0.5], [[2.0], [-2.0]])
config = sfsampler.SamplerConfig(steps=4, particles=32, seed=7, drift="mc-grad", mc_size=8)
batch = sfsampler.sfs_run(config, target)
sfsampler.save_batch(batch, "batch")
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
"""


def test_the_package_and_every_command_run_without_scipy(tmp_path):
    with open(tmp_path / "cfg.ini", "w") as fh:
        fh.write(MIXTURE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY.format(argvs=ARGVS)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert os.path.exists(tmp_path / "batch" / "samples.csv")


def test_no_module_of_the_package_imports_scipy():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                found += [f"{name}:{i}" for i, line in enumerate(fh, 1)
                          if re.match(r"\s*(import|from)\s+scipy\b", line)]
    assert found == []
