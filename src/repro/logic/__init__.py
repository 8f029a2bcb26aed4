"""Boolean logic substrate: hash-consed formulas (``terms``) and
Tseitin CNF (``cnf``).  Import names from those modules."""
