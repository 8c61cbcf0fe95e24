"""Hierarchical proof search over a small bounded goal language.

The pipeline: parse goals, hunt counterexamples cheaply, decompose hard
goals into scored lemma trees, finish the leaves against a checker, and
mine the whole process for training data and analytics.  Each name lives in
the module that defines it (``provekit.lang``, ``provekit.search``, ...);
this root imports none of them, so a process that needs only the parser or
the prover contracts loads only those.
"""

__version__ = "0.1.0"
