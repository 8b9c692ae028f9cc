"""One harness process of the benchmark.

Usage: python3 perfbench/child.py JOB_DIR

JOB_DIR/job.json names the mode, the source tree and the `repair`
arguments. The process imports the program from that source tree, installs
the hooks the mode asks for and calls `patchbandit.cli.main` in-process.

* `probe`: stop at the first cell or gate bug and record the time, so the
  parent can measure set-up (imports, `load_corpus`, plan parsing).
* `run`: the untraced run; only cells and gate bugs get a span.
* `trace`: every layer boundary in `spans.LAYER_HOOKS` gets a span.

In every mode the processes that do the work sample the host's speed
(speed.py): the child itself when serial, else each pool worker from its
first cell.

It writes the program's standard output to JOB_DIR/stdout.txt, its own
spans to JOB_DIR/spans-<pid>.json (pool workers add theirs) and its
timings (and a probe's speed samples) to JOB_DIR/result.json. Times are
`time.perf_counter()` readings, which on Linux share one clock across
processes.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import spans
import speed


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the largest
    # waited-for child, here the largest pool worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main() -> int:
    job_dir = Path(sys.argv[1])
    job = json.loads((job_dir / "job.json").read_text())
    # the process that runs the cells samples the host's speed from its
    # start; a pool's workers each start their own at their first cell
    sampler = speed.Sampler()
    if job["jobs"] == 1:
        sampler.start()
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import patchbandit
    from patchbandit import cli
    if not Path(patchbandit.__file__).resolve().is_relative_to(src):
        print(f"patchbandit imported from {patchbandit.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    result = {}
    recorder = None
    if job["mode"] == "probe":
        spans.install_probe(result)
    else:
        recorder = spans.Recorder(job_dir, sampler)
        recorder.install(layers=job["mode"] == "trace")

    with open(job_dir / "stdout.txt", "w") as out, \
            contextlib.redirect_stdout(out):
        try:
            result["exit_code"] = cli.main(job["argv"])
        except spans.Dispatched:
            result["exit_code"] = None
    result["t_end"] = time.perf_counter()
    result["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        recorder.dump()
    else:
        sampler.stop()
        result["samples"] = sampler.samples
    (job_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
