"""Setuptools entry point; the package is pure Python."""

from setuptools import setup

# package layout repeated here so legacy setup.py code paths (old
# setuptools without PEP 660/621 support) still resolve the src tree
setup(
    package_dir={"": "src"},
    packages=["tetrafermat"],
)
