"""Work that must start from a fresh interpreter.

    python3 perfbench/child.py setup JOB.json
        Time ``import quadpend.cli`` and ``load_scenarios`` on the job's
        inputs; print ``{"import_s": .., "load_s": ..}``.

    python3 perfbench/child.py job RESULT.json ARGV...
        Run ``quadpend ARGV...`` like the console script does, with timers
        on the CLI's load, run and emit calls; write the run and emit
        totals, the steps run and the process's peak RSS to RESULT.json.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv):
    mode, path, rest = argv[0], Path(argv[1]), argv[2:]
    import quadpend.cli as cli
    import_s = time.perf_counter() - T0
    from workloads import Job, execute, job_summary
    from spans import Tracer

    if mode == "setup":
        t1 = time.perf_counter()
        Job.from_json(json.loads(path.read_text())).load(cli)
        load_s = time.perf_counter() - t1
        print(json.dumps({"import_s": import_s, "load_s": load_s}))
        return 0

    with Tracer() as tracer:
        rc = execute(cli, rest, tracer)
    out = job_summary(tracer)
    out["rc"] = rc
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
