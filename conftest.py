"""Run every test process on one BLAS thread.

The tests do many small products, which a BLAS thread pool makes slower on
a small machine, not faster. The thread counts are read when numpy is first
imported, so they are set here, before any test module loads; a value
already in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
