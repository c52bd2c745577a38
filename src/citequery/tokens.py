"""Word tokenization shared by corpus ingestion and the match engine.

A sentence is turned into a flat tuple of words. Words are lowercased
runs of letters and digits; a hyphen or apostrophe (straight or curly,
the latter normalized to ``'``) is kept only when it sits between two
such characters ("co-limit", "al's"), every other character is dropped
and whitespace separates words. Every inline ``<ref .../>`` marker, a
repeated one included, separates words like whitespace and contributes
none, so word positions depend on the words alone and all matching
semantics (pattern spans, gap counting, negation windows) are defined
over positions in the word tuple.
"""

from __future__ import annotations

import re

# An inline reference marker, ``<ref .../>``; group 1 holds its attributes.
REF_MARKER = re.compile(r"<ref\b([^<>]*?)/>")
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


def tokenize(text: str) -> tuple[str, ...]:
    """The words of sentence text, with every ref marker cut out."""
    if "<ref" in text:
        text = REF_MARKER.sub(" ", text)
    kept = text.lower().translate(_KEPT)
    if "'" in kept or "-" in kept:
        return tuple(_WORD.findall(kept))
    # Else all is alphanumeric (sre's ``[^\W_]`` is ``str.isalnum``) or
    # whitespace (``\s`` is ``str.isspace``, on which ``split`` splits).
    return tuple(kept.split())
