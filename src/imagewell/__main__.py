"""``python -m imagewell``: the batch command line of ``imagewell.cli``."""

import sys

from .cli import main

sys.exit(main())
