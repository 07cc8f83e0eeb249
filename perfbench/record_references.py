"""Record the reference digests of every seeded CLI data file the workloads use.

Run from the root of a source checkout, at a commit whose outputs are the
reference (the ROADMAP fixes seeded outputs byte for byte):

    python3 perfbench/record_references.py

It rewrites perfbench/references.json, a map from argv (without ``--out``) to
the SHA-256 of the data file.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

from checks import REFERENCES_PATH
from run import RUNS, ROOT, bellbound_argv, child_env
from workloads import seeded_cli_steps


def main() -> int:
    workdir = RUNS / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    references = {}
    try:
        for step in seeded_cli_steps():
            out = workdir / step.out
            subprocess.run(
                bellbound_argv(*step.args, "--out", str(out)),
                cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            references[step.key] = hashlib.sha256(out.read_bytes()).hexdigest()
            print(f"{references[step.key][:16]}  {step.key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir)
    REFERENCES_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
