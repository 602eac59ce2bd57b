"""Suite-wide test environment.

BLAS runs on one thread, so that suite times measure the program and not
the core count or whatever else shares the machine.  The variables must be
set before numpy is first imported, which happens after this file loads;
values already in the environment win.

Hypothesis properties run without a per-example deadline: how long an
example takes depends on the host, whose speed can swing 2x between runs,
not on the property.  Per-test `settings` still set the example counts.
"""

import os

from hypothesis import settings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

settings.register_profile("rdmdelay", deadline=None)
settings.load_profile("rdmdelay")
