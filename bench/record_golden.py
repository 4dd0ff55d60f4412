"""Record the golden values that the benchmark's output gate checks.

    python3 bench/record_golden.py

Runs verify-full once for every program seed 0..GOLDEN_SEEDS-1 and keeps
the sha256 of its `--json` stdout, refusing any run that did not exit 0 with
every case agreeing.  Record only at a commit whose outputs are known good: a later
change that alters verify stdout fails the gate until this is re-run.
"""

from __future__ import annotations

import json
import sys

from run import run_child
from worker import GOLDEN, GOLDEN_SEEDS


def main() -> int:
    digests = {}
    for pseed in range(GOLDEN_SEEDS):
        res, _, err = run_child(["run", "verify-full", str(pseed)], timeout=170)
        detail = res["detail"] if res else {}
        if detail.get("exit_code") != 0 or detail.get("failures") != 0:
            print(f"seed {pseed}: not recorded ({err or detail})", file=sys.stderr)
            return 1
        digests[str(pseed)] = detail["stdout_sha256"]
        print(f"seed {pseed}: {digests[str(pseed)]}", file=sys.stderr)
    golden = {"verify_full_sha256": digests}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
