"""``setup.py`` declares the package that the source tree holds.

Its metadata must name ``repro`` at the version ``repro.__version__``
holds, require numpy and put scipy in an extra. A build must carry every
module under ``src/repro``, and a fresh interpreter that sees only the
build (no ``src`` on its path) must import the package, its CLI and a
nested subpackage at that version. ``setup.py egg_info`` and ``build``
need no network and no ``wheel``, so this runs offline.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent.parent
ROOT = SRC.parent


def run_setup(*args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "setup.py"), "-q", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_metadata_names_package_version_and_requirements(tmp_path):
    run_setup("egg_info", "--egg-base", str(tmp_path))
    info = tmp_path / "repro.egg-info"
    headers = dict(line.split(": ", 1)
                   for line in (info / "PKG-INFO").read_text().splitlines()
                   if line.startswith(("Name: ", "Version: ")))
    assert headers == {"Name": "repro", "Version": repro.__version__}
    assert (info / "requires.txt").read_text().split() == [
        "numpy", "[scipy]", "scipy",
    ]


def test_build_carries_the_package_at_its_version(tmp_path):
    build = tmp_path / "build"
    run_setup("build", "--build-base", str(build))
    lib = build / "lib"
    modules = sorted(str(path.relative_to(lib))
                     for path in (lib / "repro").rglob("*.py"))
    assert modules == sorted(str(path.relative_to(SRC))
                             for path in (SRC / "repro").rglob("*.py"))

    env = dict(os.environ, PYTHONPATH=str(lib))
    done = subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.cli, repro.media.jpeg; "
         "print(repro.__version__, repro.__file__)"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    version, location = done.stdout.split()
    assert version == repro.__version__
    assert Path(location).is_relative_to(lib)
