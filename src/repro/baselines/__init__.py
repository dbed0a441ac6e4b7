"""Baseline spanner constructions.

* :mod:`repro.baselines.baswana_sen` — the randomized ``(2k-1)``-spanner
  of Baswana and Sen [5] (public-coin variant), as a genuine LOCAL
  node program.  It plays two
  roles in the reproduction: the ``Omega(m)``-message baseline that
  ``Sampler`` beats (experiment E3), and the "off-the-shelf" stage-2
  algorithm of the two-stage scheme (Theorem 3, second bullet; see
  DESIGN.md substitution note 2 — the paper uses Derbel et al. there).
"""

from repro.baselines.baswana_sen import BaswanaSenLocal, baswana_sen_messages_estimate

__all__ = ["BaswanaSenLocal", "baswana_sen_messages_estimate"]
