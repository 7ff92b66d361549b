"""Setuptools packaging for the ``repro`` package under ``src/``.

All metadata lives here.  The version is parsed from
``src/repro/version.py`` rather than imported, so building needs none of
the runtime dependencies; ``python setup.py develop`` installs without
the ``wheel`` package, e.g. on fully offline machines.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "version.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "networkx"],
)
