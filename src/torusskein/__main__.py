import sys

from . import run

sys.exit(run())
