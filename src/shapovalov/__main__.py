"""python -m shapovalov: the command line of shapovalov.cli."""

from .cli import main

if __name__ == "__main__":
    main()
