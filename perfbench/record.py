"""Record the output digest of every pool request of a workload.

    python3 perfbench/record.py grid matrix point

Writes ``perfbench/digests/<workload>.json``.  The digests are the byte
gate every later run checks against, so re-record only when a change is
meant to alter output bytes, and say so where the change is described.
It records with HOLOQUANT_THREADS unset, the library default, and with
the OpenBLAS thread count ``run.py`` uses.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import BLAS_THREADS  # noqa: E402

os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)
import workloads  # noqa: E402


def record(workload):
    def entry(requests):
        return {"key": workloads.keys_digest(requests),
                "digests": [workloads.digest(r()) for r in requests]}

    rounds = []
    for index in range(workload.rounds):
        rounds.append(entry([r for unit in workload.round_requests(index)
                             for r in unit]))
    return {"fixed": entry(workload.fixed), "rounds": rounds}


def main(names):
    if ("HOLOQUANT_THREADS" in os.environ
            or os.environ["OPENBLAS_NUM_THREADS"] != BLAS_THREADS):
        print("record.py: record with HOLOQUANT_THREADS unset and"
              " OPENBLAS_NUM_THREADS=%s" % BLAS_THREADS, file=sys.stderr)
        return 2
    for name in names or workloads.WORKLOADS:
        data = record(workloads.WORKLOAD_TABLE[name])
        path = HERE / "digests" / ("%s.json" % name)
        path.parent.mkdir(exist_ok=True)
        # one round per line keeps the file diffable
        with open(path, "w", encoding="ascii") as handle:
            handle.write('{"fixed": %s,\n "rounds": [\n' % json.dumps(data["fixed"]))
            handle.write(",\n".join(json.dumps(r) for r in data["rounds"]))
            handle.write("\n]}\n")
        print("%s: %d fixed + %d rounds -> %s" % (
            name, len(data["fixed"]["digests"]), len(data["rounds"]), path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
