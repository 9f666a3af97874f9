"""Source layout: each input rule is stated once, in `menulearn.core`.

The parser, `credal_subset`, the mixers and the blend-weight policies call
the checks in `core` instead of keeping their own copies.  Each phrase
below is part of one rule's error message, so it may appear in `core.py`
and in no other module.
"""

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
