"""Behavioural re-implementations of the paper's comparators (§6).

The originals are closed or unavailable offline (METAM/Starmie research
code, H2O platform, sklearn SelectFromModel); each module
reproduces the *mechanism* the paper's comparison exercises:

- :mod:`metam` — METAM's goal-oriented greedy join augmentation over a
  single utility, and METAM-MO's linear weighted multi-utility variant;
- :mod:`starmie` — union/join search by column value-overlap similarity
  (contrastive embeddings replaced by direct Jaccard containment);
- :mod:`sksfm` — SelectFromModel-style feature selection: importance
  above the mean under a fitted tree ensemble;
- :mod:`h2o_fs` — H2O-style linear-model coefficient feature selection.

Every baseline consumes a :class:`repro.lake.tasks.Lake` + task and
returns a single output dataset (pandas), as the paper notes "all
baselines output a single table".
"""
from repro.baselines.metam import metam, metam_mo
from repro.baselines.starmie import starmie
from repro.baselines.sksfm import sksfm
from repro.baselines.h2o_fs import h2o_fs

__all__ = ["metam", "metam_mo", "starmie", "sksfm", "h2o_fs"]
