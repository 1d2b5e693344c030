"""One workload's passes, run in-process through `loopstatics.cli.main`.

Started by run.py, one fresh process per workload, with loopstatics on
the path from the checkout's src/ and BLAS threads pinned.  The protocol
is a closed loop with one client: run.py writes one JSON request per line
on stdin and waits for the one-line JSON answer on stdout before sending
the next, and it checks each pass's outputs while this process waits.

Requests:
  {"commands": [[argv...], ...], "trace_file": path | null}   first line
  {"op": "pass", "traced": bool}   run every command once, in order
  {"op": "quit"}                   answer with the peak RSS and exit
"""

from __future__ import annotations

import gc
import io
import json
import resource
import sys
import tracemalloc
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter


def _run_command(cli, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer:
                rc = tracer.call(f"cli.{argv[0]}", cli.main, argv)
            else:
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code
        except Exception:  # a crash is a failed operation, not a failed run
            rc = None
            err.write(traceback.format_exc())
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _to_json_peak_mb(tracer) -> float:
    """tracemalloc peak of re-serializing the pass's largest report, taken
    after the pass because tracemalloc slows serialization several-fold."""
    report, tracer.largest_report = tracer.largest_report, None
    gc.collect()
    tracemalloc.start()
    try:
        report.to_json()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    import numpy.linalg
    import loopstatics
    import loopstatics.cli as cli
    from loopstatics.report import AnalysisReport
    from tracing import Tracer

    if src not in Path(loopstatics.__file__).resolve().parents:
        print(f"error: loopstatics imported from {loopstatics.__file__}, not {src}",
              file=sys.stderr)
        return 2
    proto = sys.stdout
    setup = json.loads(sys.stdin.readline())
    commands = setup["commands"]
    tracer = Tracer(loopstatics, AnalysisReport, numpy.linalg)
    peak_mb = None

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    send({"ready": True})
    for pass_no, line in enumerate(sys.stdin):
        request = json.loads(line)
        if request["op"] == "quit":
            break
        traced = request["traced"]
        gc.collect()
        if traced:
            tracer.install(pass_no)
        try:
            start = perf_counter()
            results = [_run_command(cli, argv, tracer if traced else None) for argv in commands]
            seconds = perf_counter() - start
        finally:
            tracer.uninstall()
        answer = {"seconds": seconds, "results": results}
        if traced:
            if peak_mb is None and tracer.largest_report is not None:
                peak_mb = _to_json_peak_mb(tracer)
            answer["layers"] = tracer.pass_metrics(pass_no)
            answer["layers"]["report.to_json_peak_mb"] = peak_mb or 0.0
        send(answer)
    if setup["trace_file"]:
        tracer.write(setup["trace_file"])
    send({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    return 0


if __name__ == "__main__":
    sys.exit(main())
