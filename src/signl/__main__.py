"""The ``signl`` command (also ``python -m signl``): ``cli.main`` with BLAS pinned.

numpy's BLAS starts its own thread unless told to run one, and a process with a
second thread never forks (``forking.second_core_free``), so every verb would
stay in one process.  A second BLAS thread sped up neither pre-training nor
evaluation on a 2-core machine, so the command sets each BLAS library's thread
count to 1 before anything imports numpy.  A value the user set wins; library
callers keep their own environment.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from signl.cli import main  # noqa: E402  (numpy loads here, after the pin)

if __name__ == "__main__":
    sys.exit(main())
