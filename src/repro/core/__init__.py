"""MODis core: the paper's contribution.

- :mod:`repro.core.universal` — universal table D_U via Spark multi-way
  outer join (§5.1 "Reduce-from-Universal", §6 construction);
- :mod:`repro.core.literals` — active-domain clustering → equality
  literals and the bitmap unit layout L (§5.1 auxiliary structure);
- :mod:`repro.core.state` — FST states and their materialization as
  Spark select/filter (with an equivalent pandas fast path);
- :mod:`repro.core.operators` — OpGen: Reduct (1→0 flips) and Augment
  (0→1 flips) transitions (§3 operators, Alg. 1/2);
- :mod:`repro.core.dominance` — dominance, ε-dominance, pos() grid
  (Eq. 1), the exact skyline filter;
- :mod:`repro.core.runner` — configuration C: valuation cache T,
  estimator wiring, true-model evaluation; UPareto and
  ``frontier_search``, the one search engine with two expansion orders
  (best-first, level-wise);
- :mod:`repro.core.apx` / :mod:`bi` / :mod:`div` — ApxMODis (best-first
  from s_U), BiMODis / NOBiMODis (level-wise from s_U and BackSt, with
  or without correlation-based pruning), DivMODis (level-wise with
  diversification).
"""
from repro.core.universal import build_universal
from repro.core.literals import UnitLayout
from repro.core.dominance import dominates, eps_dominates, kung_skyline, position
from repro.core.runner import SearchContext, SearchResult
from repro.core.apx import apx_modis
from repro.core.bi import bi_modis
from repro.core.div import div_modis

__all__ = [
    "build_universal",
    "UnitLayout",
    "dominates",
    "eps_dominates",
    "kung_skyline",
    "position",
    "SearchContext",
    "SearchResult",
    "apx_modis",
    "bi_modis",
    "div_modis",
]
