"""Record the outputs the benchmark checks against.

    python3 perfbench/record.py

Run it from the root of a checkout whose outputs are trusted, such as the
commit where an intended change of output lands.  For every input seed of
each workload in run.GOLDEN_WORKLOADS it makes one untraced pass, checks the
pass against the exit codes and the references of the check child, and
writes the outputs to golden.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> int:
    root = Path.cwd()
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    golden: dict = {}
    for workload in run.GOLDEN_WORKLOADS:
        golden[workload] = {}
        for seed in range(run.INPUT_SEEDS[workload]):
            work = Path(tempfile.mkdtemp(prefix="record-", dir=work_root))
            try:
                bench = run.Bench(root, work, workload, seed)
                bench.setup()
                one = bench.iterate(trace=False)
                attempted, failed = bench.check([one], None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if failed:
                print(f"{workload} seed {seed}: {failed} of {attempted} "
                      "operations failed; nothing written", file=sys.stderr)
                return 1
            golden[workload][str(seed)] = [run.outputs(o) for o in one["observed"]]
            print(f"{workload} seed {seed}: recorded", file=sys.stderr)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
