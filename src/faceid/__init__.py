"""Robust face identification under occlusion via reweighted ADMM coding."""

__version__ = "0.1.0"
