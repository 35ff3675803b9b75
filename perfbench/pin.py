"""Pin the SHA-256 digests of every workload's outputs at the default seed.

Usage, from the root of a checkout:

    python3 perfbench/pin.py

Each workload runs once at full size and once at smoke size, serially (the
sweep with 1 worker), and every output check must pass before its digests
are written to perfbench/pinned.json. The timed runs use the workloads' own
worker counts, so matching these pins also shows that parallel runs write
the same bytes as serial ones. Re-pin only when an output format changes on
purpose; a kernel or refactoring change must match the existing pins.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    wl = run._import_workloads()
    pinned = {}
    for smoke in (False, True):
        for name, workload in wl.WORKLOADS.items():
            r = run.Run(wl, workload, wl.DEFAULT_SEED, smoke, run.OUT_ROOT / "pin", pinned=None)
            plan = workload.plan(wl.DEFAULT_SEED, smoke, r.dir)
            if r.execute(plan, trace=False) is None or r.checks.failures:
                print(f"{name}: checks failed: {r.checks.failures[:10]}", file=sys.stderr)
                return 1
            pinned[wl.pinned_key(name, smoke)] = r.first_digests
            print(f"{wl.pinned_key(name, smoke)}: {len(r.first_digests)} files")
    wl.PINNED_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
