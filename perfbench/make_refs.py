"""Write ``refs.json``: the outputs of the canonical grid (pass 0) at the current commit.

    python3 perfbench/make_refs.py

Regenerate only on purpose: the references pin the outputs that later
commits must keep (to the tolerances in ``workloads.py``).
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, pin_threads


def main():
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    refs = {}
    workdir = ROOT / ".perfbench" / "refs"
    try:
        for name, workload in WORKLOADS.items():
            inp = workload.inputs(0, 0)  # pass 0: the canonical grid, the same for every seed
            passdir = workdir / name
            passdir.mkdir(parents=True)
            result = workload.compute(inp, passdir)
            verdict = workload.verify(inp, passdir, result)
            if verdict.failed:
                raise SystemExit(f"{name}: canonical pass fails its invariants: {verdict.notes}")
            refs[name] = workload.reference(inp, passdir, result)
            print(f"{name}: {verdict.attempted} units ok")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "refs.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
