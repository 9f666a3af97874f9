"""Reference audit: each axiom spelled out as one enumeration branch and one test branch.

`reference_audit(cmp, corpus, config)` returns the `AuditReport` that
`menulearn.audit.audit` must return, result by result: status,
counterexample, α, betas, tuples checked and antecedents fired.  It keeps
the plain form of the audit: `_axiom_tuples` lists every candidate tuple
of one axiom, `_test_axiom` decides one tuple (the two antecedents of
unambiguous transitivity are checked one after the other), and its own
scan and greedy shrink run on them.  Menus are mixed through the public
`mix_menus` and `randomize`, and no menu is interned, so it shares no
enumeration, test, mixing or shrink code with the audit it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from menulearn import AuditConfig, Axiom, Criterion, Menu, Verdict, dominates, mix_menus, randomize
from menulearn.audit import STATUS_NOT_AUDITED, STATUS_PASS_ON_GRID, AuditReport, AxiomResult

HOLDS, VACUOUS, VIOLATED = "holds", "vacuous", "violated"


def _is_lottery_menu(menu: Menu) -> bool:
    return len(menu) == 1 and menu.acts[0].is_constant()


def _test_axiom(
    axiom: Axiom,
    cmp: Criterion,
    menus: tuple[Menu, ...],
    alpha: Optional[Fraction],
    betas: Optional[tuple[Fraction, ...]],
) -> str:
    """Evaluate one axiom on one concrete tuple: holds / vacuous / violated."""
    inst = cmp.instance
    if axiom is Axiom.NONTRIVIALITY:
        F, G = menus
        return VIOLATED if cmp.strictly_prefers(F, G) else VACUOUS
    if axiom is Axiom.COMPLETENESS_FOR_LOTTERIES:
        F, G = menus
        if not (_is_lottery_menu(F) and _is_lottery_menu(G)):
            return VACUOUS
        return VIOLATED if cmp.compare(F, G) is Verdict.INCOMPARABLE else HOLDS
    if axiom is Axiom.COMPLETENESS:
        F, G = menus
        return VIOLATED if cmp.compare(F, G) is Verdict.INCOMPARABLE else HOLDS
    if axiom is Axiom.TRANSITIVITY:
        F, G, H = menus
        if cmp.weakly_prefers(F, G) and cmp.weakly_prefers(G, H):
            return HOLDS if cmp.weakly_prefers(F, H) else VIOLATED
        return VACUOUS
    if axiom is Axiom.UNAMBIGUOUS_TRANSITIVITY:
        F, G, H = menus
        fired = False
        if dominates(F, G, inst) and cmp.weakly_prefers(G, H):
            fired = True
            if not cmp.weakly_prefers(F, H):
                return VIOLATED
        if cmp.weakly_prefers(F, G) and dominates(G, H, inst):
            fired = True
            if not cmp.weakly_prefers(F, H):
                return VIOLATED
        return HOLDS if fired else VACUOUS
    if axiom is Axiom.REFLEXIVITY:
        (F,) = menus
        return HOLDS if cmp.weakly_prefers(F, F) else VIOLATED
    if axiom is Axiom.PREFERENCE_FOR_FLEXIBILITY:
        F, G = menus
        if not G.issubset(F):
            return VACUOUS
        return HOLDS if cmp.weakly_prefers(F, G) else VIOLATED
    if axiom is Axiom.DOMINANCE:
        F, g_menu = menus
        if len(g_menu) != 1 or not dominates(F, g_menu, inst):
            return VACUOUS
        return HOLDS if cmp.compare(F, F.union(g_menu)) is Verdict.INDIFFERENT else VIOLATED
    if axiom is Axiom.INDEPENDENCE:
        F, G, H = menus
        plain = cmp.compare(F, G)
        mixed = cmp.compare(mix_menus(F, H, alpha), mix_menus(G, H, alpha))
        return HOLDS if plain is mixed else VIOLATED
    if axiom is Axiom.EX_POST_RANDOMIZATION:
        (F,) = menus
        spread = randomize(F, betas)
        return HOLDS if cmp.compare(spread, F) is Verdict.INDIFFERENT else VIOLATED
    if axiom is Axiom.FAVORABLE_MIXING_MONOTONICITY:
        F, G, H, H2 = menus
        if not (cmp.strictly_prefers(F, G) and cmp.strictly_prefers(H, H2)):
            return VACUOUS
        left = mix_menus(F, H, alpha)
        right = mix_menus(G, H2, alpha)
        return HOLDS if cmp.strictly_prefers(left, right) else VIOLATED
    raise ValueError(f"axiom {axiom} has no tuple test")


def _axiom_tuples(
    axiom: Axiom, corpus: Sequence[Menu], config: AuditConfig
) -> Iterator[tuple[tuple[Menu, ...], Optional[Fraction], Optional[tuple[Fraction, ...]]]]:
    """All candidate tuples for one axiom, in deterministic order."""
    if axiom in (Axiom.NONTRIVIALITY, Axiom.PREFERENCE_FOR_FLEXIBILITY):
        for F, G in itertools.permutations(corpus, 2):
            yield (F, G), None, None
    elif axiom in (Axiom.COMPLETENESS, Axiom.COMPLETENESS_FOR_LOTTERIES):
        for F, G in itertools.combinations(corpus, 2):
            yield (F, G), None, None
    elif axiom in (Axiom.TRANSITIVITY, Axiom.UNAMBIGUOUS_TRANSITIVITY):
        for F in corpus:
            for G in corpus:
                for H in corpus:
                    yield (F, G, H), None, None
    elif axiom is Axiom.REFLEXIVITY:
        for F in corpus:
            yield (F,), None, None
    elif axiom is Axiom.DOMINANCE:
        acts = []
        for menu in corpus:
            for act in menu:
                if act not in acts:
                    acts.append(act)
        for F in corpus:
            for act in acts:
                yield (F, Menu((act,))), None, None
    elif axiom is Axiom.INDEPENDENCE:
        for F, G in itertools.combinations(corpus, 2):
            for H in corpus:
                for alpha in config.alpha_grid:
                    yield (F, G, H), alpha, None
    elif axiom is Axiom.EX_POST_RANDOMIZATION:
        beta_lists = [(alpha, 1 - alpha) for alpha in config.alpha_grid]
        beta_lists.append((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
        for F in corpus:
            for betas in beta_lists:
                yield (F,), None, betas
    elif axiom is Axiom.FAVORABLE_MIXING_MONOTONICITY:
        for F, G in itertools.permutations(corpus, 2):
            for H, H2 in itertools.permutations(corpus, 2):
                for alpha in config.alpha_grid:
                    yield (F, G, H, H2), alpha, None
    else:
        raise ValueError(f"axiom {axiom} is not tuple-enumerable")


def _shrink(axiom, cmp, menus, alpha, betas):
    """Drop the first act whose removal keeps the violation, until none does."""
    current = menus
    progress = True
    while progress:
        progress = False
        for i, menu in enumerate(current):
            if len(menu) <= 1:
                continue
            for act in menu.acts:
                smaller = Menu(tuple(a for a in menu.acts if a != act))
                candidate = current[:i] + (smaller,) + current[i + 1:]
                if _test_axiom(axiom, cmp, candidate, alpha, betas) == VIOLATED:
                    current = candidate
                    progress = True
                    break
            if progress:
                break
    return current


def _audit_axiom(axiom: Axiom, cmp: Criterion, corpus, config: AuditConfig) -> AxiomResult:
    # Nontriviality is an existence claim, scanned to the end: a strictly
    # ranked pair makes it pass and it never fails.  Otherwise the cap bounds
    # the tuples whose antecedent fires: the audit stops, truncated, at the
    # first one past it, with the tuples before that one checked.
    cap = None if axiom is Axiom.NONTRIVIALITY else config.max_tuples
    checked = fired = 0
    for menus, alpha, betas in _axiom_tuples(axiom, corpus, config):
        outcome = _test_axiom(axiom, cmp, menus, alpha, betas)
        if outcome == VACUOUS:
            checked += 1
            continue
        if fired == cap:
            return AxiomResult(axiom, "truncated", tuples_checked=checked, antecedents=fired)
        checked += 1
        fired += 1
        if outcome == VIOLATED:
            if axiom is Axiom.NONTRIVIALITY:
                return AxiomResult(axiom, "pass", tuples_checked=checked, antecedents=fired)
            shrunk = _shrink(axiom, cmp, menus, alpha, betas)
            return AxiomResult(axiom, "fail", shrunk, alpha, betas, checked, fired)
    if not fired or axiom is Axiom.NONTRIVIALITY:
        status = "vacuous"
    elif axiom in (Axiom.INDEPENDENCE, Axiom.FAVORABLE_MIXING_MONOTONICITY):
        status = STATUS_PASS_ON_GRID
    else:
        status = "pass"
    return AxiomResult(axiom, status, tuples_checked=checked, antecedents=fired)


def reference_audit(cmp: Criterion, corpus: Sequence[Menu], config: AuditConfig) -> AuditReport:
    """Every selected axiom in `Axiom` order, then continuity as not audited."""
    corpus = list(corpus)
    results = [
        _audit_axiom(axiom, cmp, corpus, config)
        for axiom in Axiom
        if axiom in config.axioms and axiom is not Axiom.CONTINUITY
    ]
    results.append(AxiomResult(Axiom.CONTINUITY, STATUS_NOT_AUDITED))
    return AuditReport(tuple(results))
