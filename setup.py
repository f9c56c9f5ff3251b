"""Packaging metadata for the reproduction.

The project is described entirely here (no ``pyproject.toml``), which keeps
editable installs working on environments whose setuptools/pip combination
lacks the ``wheel`` package required by the PEP 660 editable build path
(``pip install -e . --no-build-isolation`` falls back to the legacy
``setup.py develop`` route in that situation).
"""

from setuptools import find_packages, setup

setup(
    name="repro-torus-mesh-embeddings",
    version="3.0.0",
    description=(
        "Reproduction of 'Embeddings Among Toruses and Meshes' (Ma & Tao, "
        "ICPP 1987): Gray-code embeddings, vectorized cost metrics and a "
        "parallel embedding survey engine"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        # Single source of truth for the toolchain: every CI job installs
        # `pip install -e .[dev]` instead of ad-hoc `pip install` lists.
        "dev": [
            "pytest",
            "pytest-benchmark",
            "pytest-cov",
            "hypothesis",
            "networkx",
            "ruff",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Distributed Computing",
    ],
)
