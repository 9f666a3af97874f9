"""Source layout: each input rule is stated once, in `menulearn.core`, and
every memo lives on the object that owns it.

The parser, `credal_subset`, the mixers and the blend-weight policies call
the checks in `core` instead of keeping their own copies.  Each phrase
below is part of one rule's error message, so it may appear in `core.py`
and in no other module.  Memos are tables on the `Instance` or the
`Criterion` they serve, freed with it, so no module may keep a
module-level function cache.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "menulearn"

RULE_PHRASES = (
    "unknown states",
    "missing states",
    "lottery over unknown prizes",
    "posterior over unknown states",
    "must lie in [0, 1]",
)


@pytest.mark.parametrize("phrase", RULE_PHRASES)
def test_rule_is_stated_only_in_core(phrase):
    stating = sorted(path.name for path in SRC.glob("*.py") if phrase in path.read_text())
    assert stating == ["core.py"]


FUNCTION_CACHE = re.compile(
    r"lru_cache|functools\.cache\b|from\s+functools\s+import[^\n]*\bcache\b"
)


def test_no_module_keeps_a_function_cache():
    caching = sorted(
        path.name for path in SRC.glob("*.py") if FUNCTION_CACHE.search(path.read_text())
    )
    assert caching == []
