"""Finite-domain symbolic execution of FS programs (the paper's Fig. 7
encoding) plus SAT-query plumbing and model decoding.

Import names from their defining modules: ``values`` (path domains
and symbolic values), ``state``, ``encoder``, ``query`` and ``model``
(witness decoding, which runs only when a verdict has one to show).
"""
