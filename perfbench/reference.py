"""The reference job: fixed pure-Python work, run in a fresh process before every timed command.

The shared machine's speed drifts by up to 1.6x over minutes, longer than a
run, so run medians of raw wall time drift with it.  The reference job does
the same kind of work as the program (fresh interpreter, k-mer counting over a
200k-letter string, sorting) but none of its code, so a change to `seqsan`
cannot move it.  `run.py` reports each command's wall time scaled by the
reference job's time just before it; see `run.REFERENCE_S`.

    python3 perfbench/reference.py
"""

import random

rng = random.Random(0)
text = "".join(rng.choices("abcdefghij", k=200_000))
counts: dict[str, int] = {}
for i in range(len(text) - 4):
    window = text[i : i + 5]
    counts[window] = counts.get(window, 0) + 1
order = sorted(counts, key=counts.__getitem__)
assert sum(counts.values()) == len(text) - 4 and len(order) == len(counts)
