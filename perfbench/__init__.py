"""perfbench: a two-clock benchmark of ``ELSMP2Store`` (see README.md)."""
