"""nilspec: exact-arithmetic isospectrality certification for nilmanifold pairs."""

__version__ = "0.1.0"
