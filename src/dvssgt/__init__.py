"""Simulator and analysis toolkit for distributed stochastic gradient tracking
with geometrically increasing batch sizes. Its submodules are its API."""

__version__ = "0.6.0"
