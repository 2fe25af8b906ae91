"""``python -m schurkit``: the same command line as the ``schurkit`` script."""

from .cli import main

if __name__ == "__main__":
    main()
