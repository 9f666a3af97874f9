"""Reference criteria: the four comparator formulas, each a separate gap computation.

SL takes the benefit gap at one structure, BML the minimum gap over a
credal set's generators, JML the maximum, and HML the maximum over members
of each member's minimum.  Every verdict is assembled from the full gaps in
both directions, and the benefits come from the plain formulas of
`reference_evaluation`.  `menulearn.criteria` builds all four criteria as
the hierarchical rule over special collections and decides weak preference
by one sort of integer benefits per generator, between every pair of a
menu sequence at once; the differential tests require that relation and
its two-menu case to agree with these functions exactly.

`singleton_reduction` is the static multiple-prior comparison of two single
acts, an oracle for the criteria on singleton menus.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal

from menulearn.core import (
    Act,
    Collection,
    CredalSet,
    Instance,
    InfoStructure,
    Menu,
    Verdict,
    mean_posterior,
)
from menulearn.evaluation import act_value

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


def singleton_reduction(
    f: Act,
    g: Act,
    credal: CredalSet,
    mode: Literal["bml", "jml"],
    inst: Instance,
) -> Verdict:
    """Compare two single acts through the priors implied by each generator.

    On singleton menus the learning criteria collapse to their static
    multiple-prior counterparts: each structure matters only through its
    mean posterior.  Must agree with the BML / JML criteria on the
    corresponding singleton menus.
    """
    if mode not in ("bml", "jml"):
        raise ValueError(f"mode must be 'bml' or 'jml', got {mode!r}")
    gaps = []
    for gen in credal:
        prior = mean_posterior(gen)
        gaps.append(act_value(f, prior, inst) - act_value(g, prior, inst))
    if mode == "bml":
        forward = all(gap >= 0 for gap in gaps)
        backward = all(gap <= 0 for gap in gaps)
    else:
        forward = any(gap >= 0 for gap in gaps)
        backward = any(gap <= 0 for gap in gaps)
    return Verdict.from_directions(forward, backward)


#: Criterion name -> (verdict, the gap whose sign decides weak preference).
CRITERIA = {
    "sl": (sl_compare, benefit_gap),
    "bml": (bml_compare, credal_min_gap),
    "jml": (jml_compare, credal_max_gap),
    "hml": (hml_compare, collection_maxmin_gap),
}
