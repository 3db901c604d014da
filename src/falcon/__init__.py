"""Spatio-temporal interaction extraction and signed-network polarization analysis."""

__version__ = "0.1.0"
