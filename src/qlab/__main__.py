"""``python -m qlab``: the ``qlab`` command line, for a checkout without an
installed console script."""

from .cli import main

if __name__ == "__main__":
    main()
