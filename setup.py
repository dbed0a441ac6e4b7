"""Package metadata for ``repro``.

This file is the project's only packaging metadata: there is no
``pyproject.toml``.  The offline build environment ships setuptools
without ``wheel``, so ``pip install -e .`` takes the classic
``setup.py develop`` code path.  NumPy 2.0 is the floor because the
coloring population and the distance plane count bits with
``np.bitwise_count``, which NumPy added in 2.0.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["networkx>=3.0", "numpy>=2.0"],
)
