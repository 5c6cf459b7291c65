"""Stance inference over weighted user-hashtag interaction graphs."""

__version__ = "0.1.0"
