"""Pin BLAS and OpenMP to one thread for the whole suite.

The norm checks hand short vectors to the BLAS dot product; a threaded
OpenBLAS then spins a second core and charges it to the process, which
doubled the suite's CPU time on a 2-vCPU machine.  numpy is not imported
yet when pytest loads this file, so the settings take effect; a value
already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
