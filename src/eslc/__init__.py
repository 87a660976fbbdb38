"""eslc: a compiler toolkit for a small dependently-typed embedded source
language, with extraction to a scalar Kaleidoscope target and a SaC-style
array target, plus reference interpreters for both."""

__version__ = "0.1.0"
