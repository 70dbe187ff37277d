"""micro-asp: a miniature answer-set system built around a CDCL solver with
pluggable treatments of expensive constraints (full grounding, lazy
instantiation, eager and post propagators), benchmark generators, a
brute-force semantic oracle, and a decision-tree portfolio selector."""

__version__ = "0.1.0"
