"""Child process for the measurements that need a fresh interpreter.

    python3 perfbench/probe.py setup <src> <workload> <inputs.json>
    python3 perfbench/probe.py import <src>

``setup`` times ``import ultraword`` and then the workload's ``load``, the
library calls that turn its generated JSON into objects. ``import`` times
``import ultraword.cli``, which is what ``python -m ultraword`` imports.
Each prints one JSON object of seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def main(argv: list[str]) -> int:
    mode, src = argv[0], argv[1]
    if mode == "setup":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from workloads import WORKLOADS

        workload = WORKLOADS[argv[2]]
        docs = json.loads(Path(argv[3]).read_text("utf-8"))
    sys.path.insert(0, src)
    start = perf_counter()
    if mode == "import":
        import ultraword.cli  # noqa: F401

        print(json.dumps({"import_s": perf_counter() - start}))
        return 0
    import ultraword

    imported = perf_counter()
    workload.load(ultraword, docs)
    done = perf_counter()
    print(json.dumps({"import_s": imported - start, "load_s": done - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
