"""Spectral-action coefficients and noncommutative integrals on the
noncommutative torus and on SU_q(2)."""

from .action_assembly import (CutoffMoments, ExpansionReport, assemble,
                              cutoff_moments)
from .lattice_zeta import (EpsteinEvaluator, LatticePoly, residue_lattice_sum,
                           sphere_moment)
from .nc_torus import (OneFormTorus, Theta, TorusElement, cs_sums, curvature,
                       torus_action, weyl_mul, yang_mills, zeta0_shift)
from .suq2 import (LadderElem, PBWElem, QContext, delta_ladder,
                   delta_one_form, hopf_r, nc_integral, rep_ladder,
                   suq2_action, tau0, tau1)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
