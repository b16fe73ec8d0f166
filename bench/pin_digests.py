"""Pin the reference-pass digest of every workload for a range of seeds.

    python3 bench/pin_digests.py --seeds 0-63

Writes bench/digests.json.  A run whose seed is pinned compares its
reference pass with the pinned digest and counts every op as failed on a
mismatch, so outputs (certificates, check reports, sample tables, verdicts,
recoveries, trial outcomes) stay byte-identical across commits.  Re-pin only
when a change to those outputs is intended.
"""

import argparse
import json
import shutil
import sys
import tempfile

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range such as 0-63")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    run.import_library()
    from workloads import WORKLOADS

    run.WORKDIR.mkdir(exist_ok=True)
    pinned = {}
    for name, workload_cls in WORKLOADS.items():
        pinned[name] = {}
        for seed in range(int(lo), int(hi or lo) + 1):
            workdir = tempfile.mkdtemp(prefix="pin-", dir=run.WORKDIR)
            try:
                workload = workload_cls(seed, run.Path(workdir))
                workload.setup()
                checker = run.Checker()
                digests = run.reference_pass(workload, checker)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if checker.failed:
                print(f"{name} seed {seed}: {checker.failed} ops failed; nothing pinned",
                      file=sys.stderr)
                return 1
            pinned[name][str(seed)] = run.combined_digest(digests)
    (run.BENCH / "digests.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
