"""Word tokenization shared by corpus ingestion and the match engine.

A sentence is turned into a flat tuple of words. Words are lowercased
runs of letters and digits; a hyphen or apostrophe (straight or curly,
the latter normalized to ``'``) is kept only when it sits between two
such characters ("co-limit", "al's"), every other character is dropped
and whitespace separates words. Inline reference markers separate words
like whitespace and contribute none, so all matching semantics (pattern
spans, gap counting, negation windows) are defined over positions in
the word tuple.
"""

from __future__ import annotations

import re
from typing import Sequence

# Everything that is neither alphanumeric, a joiner nor whitespace;
# ``\w`` also admits ``_``, which is not alphanumeric.
_DROPPED = re.compile(r"[^\w'\-’\s]|_")
_WORD = re.compile(r"[^\W_]+(?:['\-][^\W_]+)*")


class _Kept(dict):
    """``str.translate`` table dropping what ``_DROPPED`` matches and turning
    ``’`` into ``'``, filled in one code point at a time."""

    def __missing__(self, code: int) -> int | None:
        c = chr(code)
        self[code] = kept = None if _DROPPED.match(c) else ord("'") if c == "’" else code
        return kept


_KEPT = _Kept()


def tokenize(text: str, ref_spans: Sequence[tuple[int, int]] = ()) -> tuple[str, ...]:
    """The words of sentence text, with each ref marker span cut out.

    ``ref_spans`` are character offsets of inline reference markers within
    ``text``; they must be sorted and non-overlapping.
    """
    if ref_spans:
        segments = []
        pos = 0
        for start, end in ref_spans:
            segments.append(text[pos:start])
            pos = end
        segments.append(text[pos:])
        text = " ".join(segments)
    kept = text.lower().translate(_KEPT)
    if "'" in kept or "-" in kept:
        return tuple(_WORD.findall(kept))
    # Else all is alphanumeric (sre's ``[^\W_]`` is ``str.isalnum``) or
    # whitespace (``\s`` is ``str.isspace``, on which ``split`` splits).
    return tuple(kept.split())
