"""``python -m qddsim``: the same command line as the ``qddsim`` script."""
from .cli import entry

if __name__ == "__main__":
    entry()
