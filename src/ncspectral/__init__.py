"""Spectral-action coefficients and noncommutative integrals on the
noncommutative torus and on SU_q(2).

`import ncspectral` runs no submodule and binds no name: import each name
from its module, as in `from ncspectral.lattice_zeta import EpsteinEvaluator`.
"""
