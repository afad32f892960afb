"""``python -m smop``: the ``smop`` command line."""

from .cli import console_main

console_main()
