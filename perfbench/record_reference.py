#!/usr/bin/env python3
"""Record the paper-example reference from the library in ./src.

    python3 perfbench/record_reference.py

Runs `rsriccati paper-example` once with its defaults and stores its
exit code and parsed outputs in perfbench/reference/paper_example.json.
Re-record only when a change to the worked example's outputs is
intended, and say so where the change is described.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, import_library
from workloads import PAPER_REFERENCE, read_paper_outputs


def main() -> int:
    rs = import_library()
    out_dir = Path(tempfile.mkdtemp(prefix="record-", dir=HERE))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = rs.cli.main(["paper-example", "--out-dir", str(out_dir)])
        doc = {"exit_code": code, **read_paper_outputs(out_dir)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    PAPER_REFERENCE.parent.mkdir(exist_ok=True)
    PAPER_REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PAPER_REFERENCE} (exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
