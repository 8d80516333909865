"""Every example runs end to end.

Each ``examples/*.py`` script defines ``main()`` behind a ``__main__``
guard, runs in a fresh interpreter, as a user runs it, and must exit 0.
The examples count as callers of the package (the layering scan in
``test_layering.py`` reads them), so one that breaks must fail here. All
seven take about 6 s on a 2-core box, half of it in ``quickstart``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent.parent
EXAMPLES = SRC.parent / "examples"

#: Text an example's output must contain, beyond a clean exit.
EXPECTED_OUTPUT = {
    "quickstart": ("baseline", "gini", "exact=True"),
    "random_access": ("exact=True",),
}


def test_examples_exist_and_have_mains():
    expected = {
        "quickstart", "skew_profile", "approximate_images",
        "degradation_gallery", "read_cost_savings", "random_access",
        "system_planning",
    }
    assert expected <= {path.stem for path in EXAMPLES.glob("*.py")}
    for name in expected:
        source = (EXAMPLES / f"{name}.py").read_text()
        assert "def main()" in source, name
        assert "__main__" in source, name


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in EXAMPLES.glob("*.py"))
)
def test_example_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p]
    )
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")], env=env,
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for text in EXPECTED_OUTPUT.get(name, ()):
        assert text in done.stdout
