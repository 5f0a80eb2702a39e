"""Package metadata for the AWB-GCN reproduction.

The package lives under ``src/``. Running straight from a checkout
needs no install (``PYTHONPATH=src``); ``pip install -e .
--no-build-isolation`` or ``python setup.py develop`` install it with
the stock setuptools (no ``wheel`` package required). The version is
read from ``src/repro/__init__.py`` so it has one source of truth.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="awb-gcn-repro",
    version=VERSION,
    description=(
        "Reproduction of AWB-GCN, a GCN accelerator with runtime "
        "workload rebalancing"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
