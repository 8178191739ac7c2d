"""Spectral-action coefficients and noncommutative integrals on the
noncommutative torus and on SU_q(2).

`import ncspectral` runs no submodule: each exported name loads its module
on first access (PEP 562), so a process pays only for what it uses.
"""

import importlib

# module -> the names it exports here
_EXPORTS = {
    "action_assembly": ("CutoffMoments", "ExpansionReport", "assemble",
                        "cutoff_moments"),
    "lattice_zeta": ("EpsteinEvaluator", "LatticePoly", "residue_lattice_sum",
                     "sphere_moment"),
    "nc_torus": ("OneFormTorus", "Theta", "TorusElement", "cs_sums",
                 "curvature", "torus_action", "weyl_mul", "yang_mills",
                 "zeta0_shift"),
    "suq2": ("LadderElem", "PBWElem", "QContext", "delta_ladder",
             "delta_one_form", "hopf_r", "nc_integral", "rep_ladder",
             "suq2_action", "tau0", "tau1"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value
