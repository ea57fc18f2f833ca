"""Run the command line as ``python -m frobkit``."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="frobkit")
