#!/usr/bin/env python3
"""Regenerate bench/reference/*.json from one untimed run per workload at
the default seed. Only for a change that is meant to alter results; the
reference pins per-hour objectives and the sweep table to 1e-6.

    python3 bench/make_reference.py [WORKLOAD ...]
"""

import os
import shutil
import sys

import run


def main(names):
    for variable in run.THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(run.SRC))
    import checks
    from workloads import WORKLOADS, generate

    for name in names or WORKLOADS:
        spec = WORKLOADS[name]
        work = run.WORK_DIR / f"reference-{name}"
        try:
            inputs = generate(name, checks.DEFAULT_SEED, work / "inputs", run.ROOT)
            study = run.make_study(spec, inputs, work / "out", spec.workers)
            study.run()
            problems = study.check()
            values = study.values()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if problems:
            sys.exit(f"{name}: not writing a reference; checks failed: {problems}")
        checks.write_reference(name, values)
        print(f"{name}: wrote {checks.reference_path(name)}")


if __name__ == "__main__":
    main(sys.argv[1:])
