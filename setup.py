"""Setuptools shim.

The project is configured through ``pyproject.toml``; this file exists so the
package can also be installed with ``python setup.py develop`` in offline
environments whose pip cannot build PEP 660 editable wheels.
"""

from setuptools import setup

setup()
