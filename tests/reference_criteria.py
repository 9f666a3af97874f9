"""Reference criteria: the four comparator formulas, each a separate gap computation.

SL takes the benefit gap at one structure, BML the minimum gap over a
credal set's generators, JML the maximum, and HML the maximum over members
of each member's minimum.  Every verdict is assembled from the full gaps in
both directions, and the benefits come from the plain formulas of
`reference_evaluation`.  `menulearn.criteria` builds all four criteria as
the hierarchical rule over special collections and decides weak preference
by short-circuit; the differential tests require it to agree with these
functions exactly.
"""

from __future__ import annotations

from fractions import Fraction

from menulearn.core import Collection, CredalSet, Instance, InfoStructure, Menu, Verdict

from reference_evaluation import benefit


def benefit_gap(F: Menu, G: Menu, pi: InfoStructure, inst: Instance) -> Fraction:
    return benefit(F, pi, inst) - benefit(G, pi, inst)


def credal_min_gap(F: Menu, G: Menu, credal: CredalSet, inst: Instance) -> Fraction:
    return min(benefit_gap(F, G, gen, inst) for gen in credal)


def credal_max_gap(F: Menu, G: Menu, credal: CredalSet, inst: Instance) -> Fraction:
    return max(benefit_gap(F, G, gen, inst) for gen in credal)


def collection_maxmin_gap(F: Menu, G: Menu, coll: Collection, inst: Instance) -> Fraction:
    return max(credal_min_gap(F, G, member, inst) for member in coll)


def sl_compare(F: Menu, G: Menu, inst: Instance, pi: InfoStructure) -> Verdict:
    gap = benefit_gap(F, G, pi, inst)
    return Verdict.from_directions(gap >= 0, gap <= 0)


def bml_compare(F: Menu, G: Menu, inst: Instance, credal: CredalSet) -> Verdict:
    forward = credal_min_gap(F, G, credal, inst) >= 0
    backward = credal_min_gap(G, F, credal, inst) >= 0
    return Verdict.from_directions(forward, backward)


def jml_compare(F: Menu, G: Menu, inst: Instance, credal: CredalSet) -> Verdict:
    forward = credal_max_gap(F, G, credal, inst) >= 0
    backward = credal_max_gap(G, F, credal, inst) >= 0
    return Verdict.from_directions(forward, backward)


def hml_compare(F: Menu, G: Menu, inst: Instance, coll: Collection) -> Verdict:
    forward = collection_maxmin_gap(F, G, coll, inst) >= 0
    backward = collection_maxmin_gap(G, F, coll, inst) >= 0
    return Verdict.from_directions(forward, backward)


#: Criterion name -> (verdict, the gap whose sign decides weak preference).
CRITERIA = {
    "sl": (sl_compare, benefit_gap),
    "bml": (bml_compare, credal_min_gap),
    "jml": (jml_compare, credal_max_gap),
    "hml": (hml_compare, collection_maxmin_gap),
}
