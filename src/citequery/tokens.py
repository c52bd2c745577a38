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

# An inline reference marker, ``<ref .../>``; group 1 holds its attributes
# (``[^<>]*`` stops at the first ">", so greedy matches what lazy would).
REF_MARKER = re.compile(r"<ref\b([^<>]*)/>")
# Everything that is neither alphanumeric, a joiner nor whitespace;
# ``\w`` also admits ``_``, which is not alphanumeric.
_DROPPED = re.compile(r"[^\w'\-’\s]|_")
# The ASCII characters ``_DROPPED`` matches, as bytes. No byte of a UTF-8
# multi-byte sequence is ASCII, so deleting these bytes from UTF-8 text
# deletes those characters and touches no other.
_ASCII_DROPPED = bytes(c for c in range(128) if _DROPPED.match(chr(c)))
_WORD = re.compile(r"[^\W_]+(?:['\-][^\W_]+)*")


def tokenize(text: str) -> tuple[str, ...]:
    """The words of sentence text, with every ref marker cut out."""
    return _words(_kept(text))


def tokenize_all(texts: list[str]) -> list[tuple[str, ...]]:
    """``[tokenize(text) for text in texts]``, cutting markers and lowercasing once."""
    # "<" bounds ``REF_MARKER``'s ``[^<>]*`` and starts no marker before "\x1f"; neither
    # is cased or case-ignorable for ``lower``. A text's own "\x1f" (whitespace) reads as " ".
    joined = "<\x1f".join(texts)
    if joined.count("\x1f") >= len(texts):
        joined = "<\x1f".join([text.replace("\x1f", " ") for text in texts])
    return list(map(_words, _kept(joined).split("\x1f"))) if texts else []


def _kept(text: str) -> str:
    """``text`` with its ref markers cut, lowercased, and its ASCII ``_DROPPED`` deleted."""
    if "<ref" in text:
        text = REF_MARKER.sub(" ", text)
    # ``surrogatepass`` carries a lone surrogate, which JSON can deliver,
    # through unchanged; ``_words``'s non-ASCII pass then drops it.
    kept = text.lower().encode("utf-8", "surrogatepass").translate(None, _ASCII_DROPPED)
    return kept.decode("utf-8", "surrogatepass")


def _words(kept: str) -> tuple[str, ...]:
    """The words of one text ``_kept`` gave."""
    if not kept.isascii():
        kept = _DROPPED.sub("", kept).replace("’", "'")
    if "'" in kept or "-" in kept:
        # ``_WORD`` spans no whitespace: only a chunk holding a joiner needs it.
        words = []
        for chunk in kept.split():
            if chunk.isalnum():
                words.append(chunk)
            else:
                words += _WORD.findall(chunk)
        return tuple(words)
    # Else all is alphanumeric (sre's ``[^\W_]`` is ``str.isalnum``) or
    # whitespace (``\s`` is ``str.isspace``, on which ``split`` splits).
    return tuple(kept.split())
