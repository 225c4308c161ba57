"""``python -m benchmarks.e2e``: the same command line as ``run.py``."""

import sys
import warnings

# As in run.py: escalate before the program under test is imported.
warnings.simplefilter("error", DeprecationWarning)

from benchmarks.e2e.run import main  # noqa: E402
from benchmarks.e2e.speed import pin_to_one_cpu  # noqa: E402

pin_to_one_cpu()
sys.exit(main())
