"""Weather-driven transmission line ratings and N-1 secure DC dispatch."""

__version__ = "0.1.0"
