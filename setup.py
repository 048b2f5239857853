"""Build script: compiles the optional C kernel extension.

``eccspec._kernels`` is one hand-written C file, ``src/eccspec/_kernels.c``,
built with the system C compiler (it needs ``__int128``, as gcc and clang
provide); there is no code generator.  ``python setup.py build_ext --inplace``
puts the module next to the sources, where the tests and ``PYTHONPATH=src``
pick it up.  The package is fully functional without it (a pure-Python
fallback is selected at import), but the census-scale checks need the
compiled kernels to meet their stated time budgets.  The extension is
optional: where no C compiler works, the build prints a warning, writes no
module and still succeeds, and the package runs on the pure-Python kernels.
The tests build in place themselves and refuse to run without a current
module; ECCSPEC_KERNELS=py runs them on the pure-Python kernels.
"""

from setuptools import Extension, setup

# the package layout lives here, the console script in pyproject's
# [project.scripts]; neither is stated twice
setup(
    package_dir={"": "src"},
    packages=["eccspec"],
    ext_modules=[Extension("eccspec._kernels", ["src/eccspec/_kernels.c"],
                           extra_compile_args=["-O3"], optional=True)],
)
