"""Record every workload's reference outputs from the current code.

    python3 perfbench/record_references.py

Writes ``references.json``: the exact text of every ``abd`` output and the
SHA-256 of every other output file.  The committed file was recorded from
the code the benchmark was introduced with; re-record only when an output
is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil

import workloads
from run import REFERENCES, WORK, Runner, output_digest


def record(name: str) -> dict[str, str]:
    work = WORK / f"record-{name}-{os.getpid()}"
    try:
        cases = workloads.write_inputs(name, work / "in")
        (work / "out").mkdir()
        runner = Runner(work / "in", work / "out", {})
        refs: dict[str, str] = {}
        for case in cases:
            for call in case.calls:
                r = runner.run_call(call)
                if r.code != 0:
                    raise SystemExit(f"error: {name}: {call.argv[0]}: {r.stderr}")
                for out in call.outputs:
                    refs[out] = output_digest(out, (work / "out" / out).read_bytes())
        return refs
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    refs = {name: record(name) for name in workloads.WORKLOADS}
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
