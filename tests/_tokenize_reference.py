"""Per-character reference for ``gyrotext.corpus.tokenize``.

The package takes runs of alphanumeric characters with one regular
expression and splits again only the runs that hold a numeral outside the
token rule. This module keeps the loop that replaced: every character
classified by its Unicode category, maximal runs of L* or Nd characters
kept, each run lowercased after it is taken.
"""

import unicodedata
from itertools import groupby


def _is_token_char(ch: str) -> bool:
    cat = unicodedata.category(ch)
    return cat.startswith("L") or cat == "Nd"


def tokenize(text: str):
    return ["".join(run).lower() for is_word, run in groupby(text, key=_is_token_char) if is_word]
