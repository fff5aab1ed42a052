"""One numeric baseline wherever bits are compared.

numpy's AVX2 and AVX-512 code paths for np.exp and np.log1p differ in
their last bits, and the golden files and tests/golden/builds.json hold
bits.  So the tests switch numpy's x86 dispatch targets off and run on
its X86_V2 baseline, unless NPY_DISABLE_CPU_FEATURES is already set.
This runs before any test module imports numpy.  The names are numpy
2.4's; numpy warns about a name it does not dispatch, and the warning
would be a collection error here, so on other machines and older numpy
the variable is left alone.
"""

import os
import platform
from importlib.metadata import version

if (platform.machine().lower() in ("x86_64", "amd64")
        and tuple(map(int, version("numpy").split(".")[:2])) >= (2, 4)):
    os.environ.setdefault("NPY_DISABLE_CPU_FEATURES",
                          "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
