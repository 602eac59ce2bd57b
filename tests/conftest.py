"""Suite-wide test environment.

BLAS runs on one thread, so that suite times measure the program and not
the core count or whatever else shares the machine.  The variables must be
set before numpy is first imported, which happens after this file loads;
values already in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
