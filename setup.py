"""Build script.

The compiled kernel is an optional accelerator: without a C compiler the
build skips the extension and the package falls back to the pure-Python
kernel at import time.

    python setup.py build_ext --inplace    # build the fast kernel in a checkout
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("fiberwalk._kernel._fast", ["src/fiberwalk/_kernel/_fast.c"], optional=True)
    ]
)
