"""Write perfbench/golden.json: the sha256 of each fixed request's stdout.

    python3 perfbench/capture_golden.py

Run it from the root of a khbn source tree whose outputs are trusted.  It
covers every request of `table-compute` and `verify-checks` at both sizes;
`braid-cube` words change with the seed, so that workload is checked by
identities instead.  stderr is not captured because it carries timings.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
from workloads import digest, make_inputs  # noqa: E402


def main():
    khbn = run.import_khbn()
    table = khbn.linkdiag.load_link_table()
    requests = {}
    for workload in ("table-compute", "verify-checks"):
        for tiny in (False, True):
            for req in make_inputs(workload, 0, table, tiny).requests:
                requests[req.key] = req.argv
    client = run.Client(khbn.cli.main)
    digests = {}
    for key in sorted(requests):
        exit_code, stdout, _, error = client(requests[key])
        if exit_code != 0 or error:
            sys.exit(f"{key}: exit {exit_code} {error}")
        digests[key] = digest(stdout)
        print(f"{digests[key][:12]}  {key}", flush=True)
    with open(run.GOLDEN, "w") as fh:
        json.dump({"captured_at": run.git_sha(), "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
