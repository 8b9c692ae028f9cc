"""What a `repair` process imports before its first cell.

Every run pays its imports again, in every process.  `dataclasses` pulls
in `inspect` and with it `ast`, `dis` and `tokenize`, and the process
pool pulls in `multiprocessing`; no serial run needs either.  The pool is
imported when a run uses it, and
`test_experiment.py::test_worker_pool_does_not_change_the_bytes` keeps
checking that path.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NOT_IMPORTED = ("dataclasses", "inspect", "concurrent.futures")


def test_importing_the_command_line_loads_no_dataclasses_and_no_pool():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # only what the import itself loads: a site hook may load more first
    probe = ("import sys; before = set(sys.modules); "
             "import patchbandit.cli; "
             f"print(' '.join(m for m in {NOT_IMPORTED!r} "
             "if m in sys.modules and m not in before))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
