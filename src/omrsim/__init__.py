"""Simulator and analytical engine for OFDM-based multihop relaying (OMR)."""

__version__ = "0.1.0"
