"""Time one benchmark set-up in a fresh interpreter.

Set-up is importing decoymix and generating a workload's graph and scenario
files. run.py starts this script several times and reports the median.

    python3 perfbench/setup_probe.py --workload dense6 --out DIR

The last stdout line is {"setup_s": <seconds>}.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from scenario import SRC, generate, load_spec  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    from decoymix import cli

    generate(cli, load_spec()["workloads"][args.workload], Path(args.out))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
