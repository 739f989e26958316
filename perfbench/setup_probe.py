"""One fresh start: import the package, build what the operations share.

Usage: python3 perfbench/setup_probe.py <checkout root> <workload>

Prints one JSON line {"import_s", "build_s"} as soon as the first
operation could start; the caller times the whole start from outside.
"""

import json
import sys
import time

start = time.perf_counter()
root, workload_name = sys.argv[1], sys.argv[2]
sys.path.insert(0, root + "/src")

import fracresolvent  # noqa: E402
import fracresolvent.cli  # noqa: E402

imported = time.perf_counter()
import workloads  # noqa: E402  (the benchmark's own, next to this file)

workloads.make(workload_name).setup()
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "build_s": built - imported}), flush=True)
