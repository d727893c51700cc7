"""Pin the digests of ``paper_figures``' buffered cells.

    python3 perfbench/pin_digests.py

Only the scalar engine runs buffered policies, so no second engine can
check their outputs.  This script runs each buffered cell of
``paper_figures`` once per seed in ``SEEDS`` and writes one digest of
their ``SystemStats.as_dict()`` outputs per seed to
``buffered_digests.json``, which ``run.py`` compares the timed outputs
with.  Run it only at a commit whose buffered results are trusted; a
change that moves them should fail the benchmark until it is re-run.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(200)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import library

    pins = {}
    for seed in SEEDS:
        traces = library.build_traces(library.PAPER_ANALOGS, library.PAPER_REFS, seed)
        cells = [c for c in library.paper_calls(traces) if c.reference is None]
        pins[str(seed)] = library.buffered_digest([c.digest(c.run()) for c in cells])
    with open(library.PINNED_PATH, "w", encoding="utf-8") as out:
        json.dump(pins, out, indent=0, sort_keys=False)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
