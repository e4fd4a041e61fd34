"""Record perfbench/pins.json: the outputs the benchmark's checks compare against.

    python3 perfbench/pin.py

Runs one untimed pass of every workload and stores, per job key, what the
job's observe() returns (report-body digests, exit codes, canonical-basis
digests, verify fields, decomposition outcomes), plus the digests of the
canonical bases the workloads generate as inputs.  The pins were recorded
at the seed commit of this benchmark; re-recording them on a later commit
would let a changed output pass, so only do that for a deliberate change of
output, and say so.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    lb = run.load_library()
    pins = {"bases": {}}
    work = os.path.join(run.OUT, f"pin-{os.getpid()}")
    os.makedirs(work)
    home = os.getcwd()
    os.chdir(work)
    try:
        for name, cls in workloads.WORKLOADS.items():
            w = cls(lb, 0, {})
            jobs = w.jobs(w.setup())
            pins[name] = {}
            for job in jobs:
                try:
                    out = job.run()
                except Exception as exc:
                    out = workloads.Raised(exc)
                if job.observe is not None:
                    pins[name][job.key] = job.observe(out)
            pins["bases"].update(w.input_digests)
            w.reset()
            print(f"{name}: {len(pins[name])} pinned jobs", file=sys.stderr)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
