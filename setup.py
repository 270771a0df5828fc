"""Build script: compiles the C scan kernel ``ringids._dfa``.

``src/ringids/_dfa.c`` walks the dense transition table that
``ringids.matching`` builds, and is the kernel ``MultiPatternMatcher.scan``
uses when it imports. The pure-Python walk ``matching._scan_states`` is the
reference that the kernel parity tests check both kernels against, and the
fallback: the extension is optional, so a host without a C compiler installs
and runs the package on the pure kernel. Build in place with

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("ringids._dfa", ["src/ringids/_dfa.c"], optional=True)])
