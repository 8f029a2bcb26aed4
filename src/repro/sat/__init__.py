"""SAT solving substrate: the CDCL solver (``solver``) and its
brute-force oracle (``brute``, which only the tests run).  Import
names from those modules (see docs/solver.md)."""
