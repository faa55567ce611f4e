"""Build script: compiles the optional C extension holding the share-computation kernels.

The extension is built from the shipped, pre-generated ``src/mmsvote/_kernels.c``,
so building needs a C compiler but not Cython. After editing ``_kernels.pyx``,
regenerate the C file with ``cython -3 src/mmsvote/_kernels.pyx``.

The package works without the extension (a pure-Python twin is selected at import
time), so the extension is optional: without a C compiler the install still
succeeds and only costs speed, not functionality.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "mmsvote._kernels",
            ["src/mmsvote/_kernels.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ],
)
