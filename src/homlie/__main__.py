"""python -m homlie VERB ...: the same entry point as the homlie script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
