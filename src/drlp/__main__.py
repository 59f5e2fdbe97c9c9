"""``python -m drlp``: the same entry point as the ``drlp`` console script."""

import sys

from .cli import main

sys.exit(main())
