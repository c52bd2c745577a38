"""A fixed pure-Python job that measures how fast this host runs right now.

run.py times this script, in a fresh interpreter, between the commands it
measures, and scales each command's time by the reference time of this job
over its measured time (see ``run.HOST_REFERENCE_S``). The job does the
same kinds of work as the program, on its own data, and never imports it:
JSON decoding, string splitting, small objects, dict counting and sorting.
So a change to the program never changes this job, and a host that runs
Python slower for a while slows both alike.
"""

from __future__ import annotations

import json
import random
import re
from typing import NamedTuple

ROUNDS = 2
LINES = 400
WORDS = tuple(f"w{i:x}" for i in range(3000))
PUNCT = re.compile(r"[^\w]+")


class Token(NamedTuple):
    text: str
    index: int


def job() -> int:
    rng = random.Random(20211)
    lines = [
        json.dumps({"doc_id": f"d{i}", "year": 1990 + i % 30,
                    "sentences": [" ".join(rng.choices(WORDS, k=22)) + ", (ref)."
                                  for _ in range(8)]})
        for i in range(LINES)
    ]
    checksum = 0
    for _ in range(ROUNDS):
        counts: dict[str, int] = {}
        for line in lines:
            doc = json.loads(line)
            for sentence in doc["sentences"]:
                tokens = [Token(word, i) for i, word in
                          enumerate(PUNCT.sub(" ", sentence.lower()).split())]
                for token in tokens:
                    counts[token.text] = counts.get(token.text, 0) + 1
        checksum += sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][1]
    return checksum


if __name__ == "__main__":
    print(job())
