"""Packaging for the ``repro`` library.

``pip install .`` installs the storage stack with numpy alone; the
``scipy`` extra (``pip install .[scipy]``) adds what posterior consensus
and the JPEG and synthetic-image helpers import on first use.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$', INIT.read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Managing Reliability Skew in DNA Storage (ISCA 2022), "
                "reproduced",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    extras_require={"scipy": ["scipy"]},
)
