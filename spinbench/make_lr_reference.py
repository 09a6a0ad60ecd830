#!/usr/bin/env python3
"""Write spinbench/lr_reference.json, the stored answers of the lr workload.

It holds c(delta_10; delta_5, nu) for every partition nu of 40 inside the
10 x 10 box, in the order of workloads.box_partitions.  Run from the
repository root (takes about a minute):

    python3 spinbench/make_lr_reference.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from spinchains.lr import lr_coefficient  # noqa: E402
from spinbench.workloads import LR_BOX, LR_CELLS, LR_INNER, LR_OUTER, LR_REFERENCE, box_partitions  # noqa: E402


def main() -> int:
    answers = [lr_coefficient(LR_OUTER, LR_INNER, nu) for nu in box_partitions(LR_CELLS, LR_BOX, LR_BOX)]
    LR_REFERENCE.write_text(json.dumps({"outer": LR_OUTER, "inner": LR_INNER, "answers": answers}) + "\n")
    print(f"{len(answers)} answers, {sum(1 for a in answers if a)} nonzero, largest {max(answers)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
