"""The benchmark's three workloads: inputs, ops, output checks.

Each workload builds the inputs of op ``index`` from ``(seed, index)`` with
the program's public constructors, runs the op through the program's
public functions, and checks the op's output against the paper's theorems.

Every op's instance names its states after the workload and the op index,
so no two ops share a memo key: like a fresh ``menulearn`` process per
command, each op pays its own cache fill.  The sizes that set an op's cost
(states and prizes, acts per menu, posteriors per structure, generators
and groups) depend on the op index alone and repeat every ``PERIOD`` ops,
so any ``PERIOD`` consecutive ops do the same mix of work and the seed
draws only the contents: utilities, probabilities and which prizes, states
and structures appear.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SHAPES = tuple((states, prizes) for states in (1, 2, 3) for prizes in (2, 3, 4))
#: Op sizes repeat with this period, a whole number of cycles of ``SHAPES``.
PERIOD = 2 * len(SHAPES)

CRITERIA = ("bml", "jml", "hml")

#: The axioms each criterion's representation theorem guarantees (the
#: program's ``REQUIRED_AXIOMS``), pinned here so that every version of the
#: program is audited on the same work.
REQUIRED = {
    "bml": (
        "completeness_for_lotteries",
        "dominance",
        "ex_post_randomization",
        "independence",
        "preference_for_flexibility",
        "transitivity",
    ),
    "jml": (
        "completeness",
        "favorable_mixing_monotonicity",
        "independence",
        "unambiguous_transitivity",
    ),
    "hml": (
        "completeness_for_lotteries",
        "reflexivity",
        "unambiguous_transitivity",
    ),
}

#: Nested-credal-set checks, in the order ``menulearn comparative`` prints
#: them, with the criterion each compares.
CHECKS = (
    ("more_decisive", "bml"),
    ("less_negative_inconsistent", "bml"),
    ("more_strict_decisive", "jml"),
    ("less_inconsistent", "jml"),
)


class Draw:
    """Seeded random values over one op's instance, made with the program's constructors."""

    def __init__(self, ml, tag: str, seed: int, index: int) -> None:
        self.ml = ml
        self.rng = random.Random(f"menulearn-bench/{tag}/{seed}/{index}")
        self.sizes = random.Random(f"menulearn-bench/{tag}/{index % PERIOD}")
        n_states, n_prizes = SHAPES[index % len(SHAPES)]
        states = tuple(f"{tag}{index}s{k}" for k in range(1, n_states + 1))
        prizes = tuple(f"z{k}" for k in range(1, n_prizes + 1))
        while True:
            utility = {prize: self.rng.randint(0, 6) for prize in prizes}
            if len(set(utility.values())) > 1:
                break
        self.inst = ml.Instance(states=states, prizes=prizes, utility=utility)

    def weights(self, count: int) -> list[Fraction]:
        raw = [self.rng.randint(0, 4) for _ in range(count)]
        if not any(raw):
            raw[self.rng.randrange(count)] = 1
        total = sum(raw)
        return [Fraction(w, total) for w in raw]

    def _distribution(self, labels) -> dict[str, Fraction]:
        return {label: w for label, w in zip(labels, self.weights(len(labels))) if w}

    def lottery(self):
        if self.rng.random() < 0.4:
            return self.ml.Lottery.degenerate(self.rng.choice(self.inst.prizes))
        return self.ml.Lottery(self._distribution(self.inst.prizes))

    def posterior(self):
        if self.rng.random() < 0.3:
            return self.ml.Posterior.degenerate(self.rng.choice(self.inst.states))
        return self.ml.Posterior(self._distribution(self.inst.states))

    def menu(self, max_acts: int = 3):
        acts = [
            self.ml.Act({state: self.lottery() for state in self.inst.states})
            for _ in range(self.sizes.randint(1, max_acts))
        ]
        return self.ml.Menu(tuple(acts))

    def structure(self, max_support: int = 3):
        count = self.sizes.randint(1, max_support)
        posteriors: list = []
        for _ in range(count * 3):
            candidate = self.posterior()
            if candidate not in posteriors:
                posteriors.append(candidate)
            if len(posteriors) == count:
                break
        raw = [self.rng.randint(1, 4) for _ in posteriors]
        total = sum(raw)
        return self.ml.InfoStructure(
            tuple((p, Fraction(w, total)) for p, w in zip(posteriors, raw))
        )

    def credal_set(self, max_generators: int = 3):
        count = self.sizes.randint(1, max_generators)
        return self.ml.CredalSet(tuple(self.structure() for _ in range(count)))

    def collection(self, max_members: int = 3, max_generators: int = 2):
        count = self.sizes.randint(1, max_members)
        return self.ml.Collection(tuple(self.credal_set(max_generators) for _ in range(count)))


# ---------------------------------------------------------------------------
# audit_matrix
# ---------------------------------------------------------------------------


@dataclass
class AuditItem:
    index: int
    inst: object
    credal: object
    collection: object


class AuditMatrix:
    """One op audits one random instance for BML, JML and HML, as ``cross_audit`` does."""

    name = "audit_matrix"
    tag = "a"
    chunk = 32
    layer_ops = 16
    tail_pct = 90
    rss_ops = 48
    corpus_size = 5

    def build(self, ml, seed: int, index: int, workdir: Path) -> AuditItem:
        draw = Draw(ml, self.tag, seed, index)
        return AuditItem(index, draw.inst, draw.credal_set(), draw.collection())

    def _comparator(self, ml, criterion: str, item: AuditItem):
        if criterion == "bml":
            return ml.BmlComparator(item.inst, item.credal)
        if criterion == "jml":
            return ml.JmlComparator(item.inst, item.credal)
        return ml.HmlComparator(item.inst, item.collection)

    def _config(self, ml, item: AuditItem, axioms) -> object:
        return ml.AuditConfig(
            axioms=frozenset(ml.Axiom(name) for name in axioms),
            corpus_size=self.corpus_size,
            seed=item.index,
        )

    def op(self, ml, item: AuditItem):
        raw = []
        for criterion in CRITERIA:
            config = self._config(ml, item, REQUIRED[criterion])
            corpus = ml.generate_corpus(item.inst, config)
            report = ml.audit(self._comparator(ml, criterion, item), corpus, config)
            raw.append((criterion, report.results))
        return raw

    def traced_op(self, ml, item: AuditItem, tracer):
        """The same audits, one axiom per ``audit`` call, each under its own span."""
        raw = []
        for criterion in CRITERIA:
            comparator = self._comparator(ml, criterion, item)
            with tracer.span("audit.generate_corpus"):
                corpus = ml.generate_corpus(item.inst, self._config(ml, item, REQUIRED[criterion]))
            results = []
            for axiom in REQUIRED[criterion]:
                config = self._config(ml, item, (axiom,))
                with tracer.span(f"audit.{criterion}.{axiom}"):
                    report = ml.audit(comparator, corpus, config)
                results.extend(report.results)
                for result in report.results:
                    if result.axiom.value == axiom:
                        tracer.count(f"audit.{criterion}.{axiom}.tuples", result.tuples_checked)
                        if result.tuples_checked >= config.max_tuples:
                            tracer.count("audit.truncated_axioms")
            raw.append((criterion, results))
        return raw

    def outcome(self, raw) -> list:
        """Status, tuples and antecedents of every required axiom, by criterion."""
        out = []
        for criterion, results in raw:
            by_axiom = {result.axiom.value: result for result in results}
            rows = []
            for axiom in REQUIRED[criterion]:
                result = by_axiom.get(axiom)
                rows.append(
                    None
                    if result is None
                    else [axiom, result.status, result.tuples_checked, result.antecedents]
                )
            out.append([criterion, rows])
        return out

    def check(self, item: AuditItem, outcome) -> bool:
        """No axiom a criterion's representation guarantees may fail."""
        if [criterion for criterion, _ in outcome] != list(CRITERIA):
            return False
        return all(row is not None and row[1] != "fail" for _, rows in outcome for row in rows)

    def release(self, item: AuditItem) -> None:
        pass


# ---------------------------------------------------------------------------
# comparative_statics
# ---------------------------------------------------------------------------


@dataclass
class ComparativeItem:
    index: int
    inst: object
    outer: object
    inner: object


class ComparativeStatics:
    """One op checks one nested credal pair: nestedness plus the four comparisons."""

    name = "comparative_statics"
    tag = "c"
    chunk = 32
    layer_ops = 16
    tail_pct = 90
    rss_ops = 48
    corpus_size = 16

    def build(self, ml, seed: int, index: int, workdir: Path) -> ComparativeItem:
        draw = Draw(ml, self.tag, seed, index)
        outer = draw.credal_set()
        inner = ml.CredalSet(
            tuple(
                ml.combine_structures(outer.generators, draw.weights(len(outer.generators)))
                for _ in range(draw.sizes.randint(1, 2))
            )
        )
        return ComparativeItem(index, draw.inst, outer, inner)

    def _checks(self, ml, item: ComparativeItem):
        comparators = {
            kind: (cls(item.inst, item.inner), cls(item.inst, item.outer))
            for kind, cls in (("bml", ml.BmlComparator), ("jml", ml.JmlComparator))
        }
        return [(name, getattr(ml, f"check_{name}"), *comparators[kind]) for name, kind in CHECKS]

    def _corpus(self, ml, item: ComparativeItem):
        return ml.generate_corpus(
            item.inst, ml.AuditConfig(corpus_size=self.corpus_size, seed=item.index)
        )

    def op(self, ml, item: ComparativeItem):
        nested = ml.credal_subset(item.inner, item.outer)
        corpus = self._corpus(ml, item)
        checks = self._checks(ml, item)
        return nested, [check(fine, coarse, corpus) for _, check, fine, coarse in checks]

    def traced_op(self, ml, item: ComparativeItem, tracer):
        with tracer.span("comparative.credal_subset"):
            nested = ml.credal_subset(item.inner, item.outer)
        tracer.count("comparative.credal_subset.calls")
        with tracer.span("audit.generate_corpus"):
            corpus = self._corpus(ml, item)
        reports = []
        for name, check, fine, coarse in self._checks(ml, item):
            with tracer.span(f"comparative.{name}"):
                report = check(fine, coarse, corpus)
            tracer.count(f"comparative.{name}.tuples", report.tuples_checked)
            tracer.count(f"comparative.{name}.antecedents", report.antecedents)
            reports.append(report)
        return nested, reports

    def outcome(self, raw) -> dict:
        nested, reports = raw
        return {"subset": nested, "checks": [report.to_record() for report in reports]}

    def check(self, item: ComparativeItem, outcome) -> bool:
        """The inner set is inside the outer one, and no nestedness consequence fails."""
        checks = outcome["checks"]
        return (
            outcome["subset"] is True
            and [record["check"] for record in checks] == [name for name, _ in CHECKS]
            and all(record["status"] != "fail" for record in checks)
        )

    def release(self, item: ComparativeItem) -> None:
        pass


# ---------------------------------------------------------------------------
# rank_documents
# ---------------------------------------------------------------------------


@dataclass
class RankItem:
    index: int
    path: Path
    menus: tuple[str, ...]
    size: int


class RankDocuments:
    """One op is ``menulearn rationalize FILE --collection groups --format records``."""

    name = "rank_documents"
    tag = "r"
    chunk = 16
    layer_ops = 64
    tail_pct = 97
    rss_ops = 256
    menu_count = 60
    structure_count = 6
    collection = "groups"

    def build(self, ml, seed: int, index: int, workdir: Path) -> RankItem:
        """Write a document with many menus, a few structures and a collection of groups."""
        draw = Draw(ml, self.tag, seed, index)
        structures = {f"pi{k}": draw.structure() for k in range(1, self.structure_count + 1)}
        names = sorted(structures)

        def group(size: int):
            return ml.CredalSet(tuple(structures[n] for n in draw.sizes.sample(names, size)))

        core = group(3)
        extra = draw.sizes.randint(2, 3)
        members = [core] + [group(draw.sizes.randint(1, 3)) for _ in range(extra)]
        menus = {f"m{k:02d}": draw.menu() for k in range(1, self.menu_count + 1)}
        workspace = ml.Workspace(
            instance=draw.inst,
            menus=menus,
            info_structures=structures,
            credal_sets={"core": core},
            collections={self.collection: ml.Collection(tuple(members))},
        )
        text = ml.dumps(workspace)
        path = workdir / f"doc{index}.json"
        path.write_text(text)
        return RankItem(index, path, tuple(sorted(menus)), len(text.encode()))

    def op(self, ml, item: RankItem):
        argv = ["rationalize", str(item.path), "--collection", self.collection,
                "--format", "records"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ml.cli.main(argv)
        return code, out.getvalue()

    def traced_op(self, ml, item: RankItem, tracer):
        """The public calls ``cmd_rationalize`` makes, each under its own span."""
        with tracer.span("fileformat.load_path"):
            workspace = ml.load_path(item.path)
        tracer.count("fileformat.bytes", item.size)
        collection = workspace.collection(self.collection)
        policy = ml.AlphaPolicy.cautious()
        names = sorted(workspace.menus)
        menus = [workspace.menu(name) for name in names]
        with tracer.span("rationalize.rank_menus"):
            entries = ml.rank_menus(menus, collection, policy, workspace.instance, names=names)
        tracer.count("rationalize.menus_ranked", len(entries))
        with tracer.span("cli.records"):
            text = json.dumps([entry.to_record() for entry in entries], indent=2)
        return 0, text + "\n"

    def outcome(self, raw):
        code, text = raw
        return [code, json.loads(text) if code == 0 else None]

    def check(self, item: RankItem, outcome) -> bool:
        """Every menu ranked; cautious value is its band's low end; ranks follow values."""
        code, records = outcome
        if code != 0 or records is None:
            return False
        if sorted(record["name"] for record in records) != list(item.menus):
            return False
        values = [Fraction(record["value"]) for record in records]
        for record, value in zip(records, values):
            if not Fraction(record["band_low"]) == value <= Fraction(record["band_high"]):
                return False
            if record["rank"] != 1 + sum(1 for other in values if other > value):
                return False
        return all(a >= b for a, b in zip(values, values[1:]))

    def release(self, item: RankItem) -> None:
        item.path.unlink()


WORKLOADS = {w.name: w for w in (AuditMatrix(), ComparativeStatics(), RankDocuments())}
