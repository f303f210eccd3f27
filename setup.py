"""Setuptools entry point.

This environment is offline and has no `wheel` package, so PEP 660
(pyproject-only) editable installs are unavailable; the classic setup.py
path lets `pip install -e .` fall back to a legacy develop install.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "iVA-File: indexing sparse wide tables for top-k structured "
        "similarity search (ICDE 2009 reproduction)"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
