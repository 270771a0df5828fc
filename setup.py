"""Build script: compiles the optional extension ``ringids._dfa``.

``src/ringids/_dfa.c`` holds the compiled twins of two pure-Python
functions. Each Python body stays as the reference its twin's parity tests
compare it against, and as the fallback: the extension is optional, so a host
without a C compiler installs and runs the package on the Python bodies. A
build has both twins or none, so "native" in ``matching.kernel_name()`` and in
``Report.config["engine"]["kernel"]`` covers both.

- ``scan(delta, accept, data, depth)`` walks the dense transition table that
  ``ringids.matching`` builds, and is the kernel ``MultiPatternMatcher.scan``
  uses; the reference is ``matching._scan_states``. It takes the longest
  pattern's length as ``depth`` and walks long data as interleaved lanes
  whose table loads overlap. Each lane after the first walks ``depth - 1``
  bytes before its region without recording: an automaton state is a suffix
  of the input no longer than ``depth``, so after ``depth`` bytes the lane is
  in the single walk's state, and the result is the reference's.
- ``decoder(...)`` builds ``packet.decode``, the frame decode and pool store,
  bound to the package's records and errors; the reference is
  ``packet._decode``.

Build in place with

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("ringids._dfa", ["src/ringids/_dfa.c"], optional=True)])
