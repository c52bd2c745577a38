"""The original per-character tokenizer, kept as an oracle for ``tokenize``.

It walks each whitespace-delimited chunk character by character: a
hyphen or apostrophe survives only between two alphanumerics, every
other non-alphanumeric character is dropped. Ref marker spans split the
text into segments that are tokenized separately.
"""

from __future__ import annotations

from typing import Sequence

_JOINERS = ("'", "-", "’")


def _chunk_words(chunk: str) -> list[str]:
    """Split one whitespace-delimited chunk into words."""
    kept = [c for c in chunk.lower() if c.isalnum() or c in _JOINERS]
    words: list[str] = []
    current: list[str] = []
    n = len(kept)
    for i, c in enumerate(kept):
        if c not in _JOINERS:
            current.append("'" if c == "’" else c)
            continue
        # Joiners survive only between two alphanumerics.
        if current and current[-1].isalnum() and i + 1 < n and kept[i + 1].isalnum():
            current.append("'" if c == "’" else c)
        elif current:
            words.append("".join(current))
            current = []
    if current:
        words.append("".join(current))
    return words


def legacy_words(text: str, ref_spans: Sequence[tuple[int, int]] = ()) -> list[str]:
    """Words of ``text``, each sorted, non-overlapping ref span cut out."""
    words: list[str] = []

    def emit(segment: str) -> None:
        for chunk in segment.split():
            words.extend(_chunk_words(chunk))

    pos = 0
    for start, end in ref_spans:
        emit(text[pos:start])
        pos = end
    emit(text[pos:])
    return words
