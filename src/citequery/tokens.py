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
    kept = _DROPPED.sub("", text.lower()).replace("’", "'")
    return tuple(_WORD.findall(kept))
