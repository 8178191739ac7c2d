"""Spectral-action coefficients and noncommutative integrals on the
noncommutative torus and on SU_q(2)."""

from .action_assembly import (CutoffMoments, ExpansionReport, assemble,
                              cutoff_moments)
from .gamma import GammaRep, build_gamma, chirality, gamma_trace
from .lattice_zeta import (EpsteinEvaluator, LatticePoly, TwistedFamily,
                           residue_lattice_sum, sphere_moment, twisted_residue)
from .nc_torus import (Curvature, OneFormTorus, Theta, TorusElement, cs_sums,
                       curvature, gauge_transform, torus_action, weyl_mul,
                       yang_mills, zeta0_shift)
from .oracles import (dirac_truncated, ideal_r_reduce, lqmq_integral,
                      riemann_zeta, shell_trace_oracle, zeta_D_suq2)
from .suq2 import (LadderElem, PBWElem, QContext, delta_ladder,
                   delta_one_form, hopf_r, nc_integral, pbw_normalize,
                   rep_ladder, suq2_action, tau0, tau1, zero_degree)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
