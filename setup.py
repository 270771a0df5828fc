"""Build script: compiles the C scan kernel ``ringids._dfa``.

``src/ringids/_dfa.c`` walks the dense transition table that
``ringids.matching`` builds, and is the kernel ``MultiPatternMatcher.scan``
uses when it imports. ``scan(delta, accept, data, depth)`` takes the longest
pattern's length as ``depth`` and walks long data as interleaved lanes whose
table loads overlap. Each lane after the first walks ``depth - 1`` bytes
before its region without recording: an automaton state is a suffix of the
input no longer than ``depth``, so after ``depth`` bytes the lane is in the
single walk's state. The pure-Python walk ``matching._scan_states`` is the
reference that the kernel parity tests check both kernels against, state for
state, and the fallback: the extension is optional, so a host without a C
compiler installs and runs the package on the pure kernel. Build in place with

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("ringids._dfa", ["src/ringids/_dfa.c"], optional=True)])
