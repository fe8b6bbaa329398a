"""Testbed for DDH-style distribution generators and key-recovery learning.

Subpackages by topic:

* :mod:`genlearn.numtheory` -- safe-prime residue groups and discrete logs
* :mod:`genlearn.prf` -- the length-doubling PRG, GGM keyed function, oracles
* :mod:`genlearn.distributions` -- generator specs, exact tables, KL/TV
* :mod:`genlearn.learner` -- the one-sample tree-reversal key learner
* :mod:`genlearn.games` -- distinguisher and inference game harnesses
* :mod:`genlearn.boolfn` -- distributions from Boolean functions
* :mod:`genlearn.cli` -- reproducible command-line front end

The records (``GroupInstance``, ``DistTable``, ``LearnedGenerator`` and
the rest) are immutable ``NamedTuple`` classes: ``_replace`` copies one
with fields changed and ``_asdict`` returns its fields as a dict.
"""

__version__ = "0.1.0"
