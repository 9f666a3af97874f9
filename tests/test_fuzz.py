"""Fuzzing the input boundary: mutated documents, argv lists, rational strings.

Every mutated bundled document either loads or is one parse error; every
argv list either succeeds or exits 2-4 with exactly one line on stderr,
never a traceback.  The rational parser agrees with `Fraction` wherever it
returns and accepts exactly the strings of the document grammar, and the
measure rule accepts exactly the distributions whose exact sum is 1.
"""

import contextlib
import copy
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from menulearn import BadProbabilityError, Lottery, ParseError, cli, loads
from menulearn.fileformat import parse_fraction

from conftest import DATA_DIR

EXAMPLES = {
    name: json.loads((DATA_DIR / name).read_text()) for name in ("example1.json", "example2.json")
}

#: What a corrupted rational string gets: whitespace, digit separators,
#: exponents, stray points, zero denominators, signs and non-ASCII digits.
CORRUPTIONS = (" ", "\t", "_", "e", "E", ".", "/0", "/", "+", "-", "٣", "１", "²")

#: Replacements of another JSON type.
OTHER_VALUES = (None, True, 0, 3, 0.5, "", "x", "1/2", [], ["1/2"], {}, {"w1": "1"})


def _nodes(node, path=()):
    """Every (path, value) of a JSON tree, the root first."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _nodes(value, path + (index,))


def _parent(document, path):
    for step in path[:-1]:
        document = document[step]
    return document


@st.composite
def mutated_documents(draw):
    """A bundled example with one to three keys deleted, values swapped or rationals corrupted."""
    document = copy.deepcopy(EXAMPLES[draw(st.sampled_from(sorted(EXAMPLES)))])
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(document, (dict, list)):
            break
        nodes = list(_nodes(document))[1:]
        rationals = [
            (path, value) for path, value in nodes
            if isinstance(value, str) and value and set(value) <= set("0123456789/")
        ]
        action = draw(st.sampled_from(("delete", "swap", "corrupt", "corrupt")))
        if action == "corrupt" and rationals:
            path, text = draw(st.sampled_from(rationals))
            corruption = draw(st.sampled_from(CORRUPTIONS))
            at = draw(st.integers(0, len(text)))
            _parent(document, path)[path[-1]] = text[:at] + corruption + text[at:]
        elif nodes:
            path, _ = draw(st.sampled_from(nodes))
            parent = _parent(document, path)
            if action == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(OTHER_VALUES)))
    return document


def run_main(argv):
    """``(exit code, stdout, stderr)`` of one in-process ``menulearn`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


DOCUMENT_COMMANDS = (
    ["rationalize", "{path}", "--collection", "split"],
    ["compare", "{path}", "f", "gh", "--criterion", "bml", "--param", "both"],
    ["audit", "{path}", "--criterion", "hml", "--param", "split", "--corpus-size", "2"],
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module", autouse=True)
def no_seed_override():
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("MENULEARN_SEED", raising=False)
        yield


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=mutated_documents(), command=st.sampled_from(DOCUMENT_COMMANDS))
def test_mutated_document_loads_or_is_one_parse_error_line(fuzz_dir, document, command):
    text = json.dumps(document, ensure_ascii=False)
    try:
        loads(text)
    except ParseError as exc:
        expected = f"parse error: {exc}\n"
    else:
        expected = None
    path = fuzz_dir / "mutated.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_main([arg.format(path=path) for arg in command])
    if expected is not None:
        assert (code, out, err) == (2, "", expected)
    elif code in (0, 1):
        # Exit 1 is an audit's failed required axiom, reported on stdout.
        assert err == "" and (code == 0 or command[0] == "audit")
    else:
        assert code in (3, 4) and out == "" and err.count("\n") == 1, (code, err)


FILES = (str(DATA_DIR / "example1.json"), str(DATA_DIR / "example2.json"), "no_such_file.json")
NAMES = ("f", "gh", "fstar", "both", "mid_only", "pi", "delta_p", "split", "hull", "nope", "")
RATIONAL_TEXTS = (
    "1/2", "1/3", "2/3", "0.5", "0", "1", "2", "-1/2", "1/0", "", " 1/2 ", "1e-1", "1_0/3_0",
    "٣/4", "1.", ".5", "+1/3", "1/-2", "abc",
)
OPTIONS = {
    "--criterion": st.sampled_from(("sl", "bml", "jml", "hml", "xml")),
    "--param": st.sampled_from(NAMES),
    "--collection": st.sampled_from(NAMES),
    "--policy": st.one_of(
        st.sampled_from(("cautious", "optimistic", "wild", "const=")),
        st.sampled_from(RATIONAL_TEXTS).map("const={}".format),
    ),
    "--alpha-grid": st.lists(st.sampled_from(RATIONAL_TEXTS), min_size=1, max_size=3).map(
        ",".join
    ),
    "--axioms": st.sampled_from(
        ("transitivity", "reflexivity,dominance", "independence", "bogus", "continuity", "")
    ),
    "--corpus-size": st.sampled_from(("-1", "0", "1", "2", "3", "x")),
    "--seed": st.sampled_from(("0", "7", "-3", "x")),
    "--format": st.sampled_from(("table", "records", "xml")),
}


@st.composite
def argv_lists(draw):
    """A rationalize, compare or audit command line with random files, names and options."""
    command = draw(st.sampled_from(("rationalize", "compare", "audit")))
    argv = [command]
    if draw(st.booleans()) or draw(st.booleans()):
        argv.append(draw(st.sampled_from(FILES)))
    argv += draw(st.lists(st.sampled_from(NAMES), max_size=3))
    for option in draw(st.lists(st.sampled_from(sorted(OPTIONS)), max_size=5, unique=True)):
        argv += [option, draw(OPTIONS[option])]
    if command == "audit" and "--corpus-size" not in argv:
        argv += ["--corpus-size", "2"]
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argv_lists())
def test_fuzzed_argv_exits_cleanly_with_one_error_line(argv):
    code, out, err = run_main(argv)
    if code == 2 and out == "" and err.startswith("usage: "):
        # Rejected by argparse itself: its usage text, then one error line.
        assert re.match(r"menulearn( \w+)?: error: ", err.splitlines()[-1]), err
    elif code in (0, 1):
        assert err == "" and (code == 0 or argv[0] == "audit")
    else:
        assert code in (2, 3, 4) and out == "" and err.count("\n") == 1, (code, err)
    assert "Traceback" not in err


RATIONAL_ALPHABET = "0123456789+-/._eE \t٣１²"

#: The rational grammar of documents and CLI weights, as an independent oracle.
GRAMMAR = re.compile(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*|\.[0-9]+)?")


@settings(max_examples=600, deadline=None)
@given(
    text=st.one_of(
        st.text(RATIONAL_ALPHABET, max_size=8),
        st.from_regex(r"\A[+-]?[0-9]{1,6}(/[0-9]{1,4}|\.[0-9]{1,4})?\Z"),
    )
)
def test_parse_fraction_agrees_with_fraction(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        expected = f"where: malformed rational {text!r} ({exc})"
    try:
        value = parse_fraction(text, "where")
    except ParseError as exc:
        assert not GRAMMAR.fullmatch(text)
        # A string `Fraction` rejects keeps its message.
        if isinstance(expected, str):
            assert str(exc) == expected
    else:
        assert GRAMMAR.fullmatch(text)
        assert value == expected and type(value) is Fraction


@st.composite
def weighted_labels(draw):
    """Nonnegative (label, Fraction) pairs, repeated labels allowed; half of them sum to 1."""
    pairs = draw(
        st.lists(
            st.tuples(
                st.sampled_from("abcd"),
                st.builds(Fraction, st.integers(0, 12), st.integers(1, 12)),
            ),
            max_size=5,
        )
    )
    remainder = 1 - sum(p for _, p in pairs)
    if remainder >= 0 and draw(st.booleans()):
        pairs.append((draw(st.sampled_from("abcde")), remainder))
    return draw(st.permutations(pairs))


@settings(max_examples=400, deadline=None)
@given(pairs=weighted_labels())
def test_measure_accepts_exactly_the_distributions_summing_to_one(pairs):
    total = sum((p for _, p in pairs), Fraction(0))
    if total == 1:
        lottery = Lottery(pairs)
        assert sum(p for _, p in lottery.probs) == 1
        assert all(p > 0 for _, p in lottery.probs)
    else:
        with pytest.raises(BadProbabilityError) as info:
            Lottery(pairs)
        assert str(info.value) == f"prize probabilities sum to {total}, expected exactly 1"
