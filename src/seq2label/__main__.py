"""``python -m seq2label``: the ``seq2label`` command."""

import sys

from .cli import main

sys.exit(main())
