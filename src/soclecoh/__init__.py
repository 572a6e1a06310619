"""Socle filtrations of modules over Z/l^n group rings and the degree-3
cohomological obstruction that detects which filtration maps come from
module elements.

Submodules are always handled through canonical Howell bases (zmodlin),
groups through validated Cayley tables (fingroup), coefficient modules
through cyclic-order presentations with commuting action matrices
(gmodule), and cohomology through normalized bar cochains (cohomology).
The obstruction module ties these together and the cli module exposes the
pipeline as a command-line tool.
"""

from .zmodlin import HowellBasis, LinearSolver, RingConfig, contains, howell_form_rows

__all__ = ["RingConfig", "HowellBasis", "LinearSolver", "howell_form_rows", "contains"]
