"""Setuptools configuration for the ``repro`` package.

The package lives under ``src/``.  Its version is parsed from the text of
``src/repro/__init__.py`` so that building never imports the package.
The compiled kernel backend builds ``_kernels.c`` from next to ``cext.py``
at run time, so the C source ships as package data.

Without the ``wheel`` package (an offline install), PEP 517 editable
installs cannot build; ``pip install -e . --no-build-isolation
--no-use-pep517`` (or plain ``python setup.py develop``) installs through
this file instead.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"$', INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.fast.backends": ["_kernels.c"]},
    install_requires=["numpy"],
)
