"""Entry point for ``python -m gaussfock``; same subcommands as ``gaussfock``."""

import sys

from .cli import main

sys.exit(main())
