"""``python -m machmin``: the machmin command line without installing it."""

import sys

from .cli import main

sys.exit(main())
