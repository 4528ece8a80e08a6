"""Launch ``repro serve`` for the service_mix workload.

    python3 perfbench/serve.py --trace 0 --info perfbench/out/tmp/s.json \\
        -- --port 0 --cache-dir perfbench/out/tmp/cache

Everything after ``--`` goes to ``repro serve`` unchanged, so the server
keeps its defaults (jobs=auto, executor=thread). With ``--trace 1`` the
span wrappers are installed before ``repro.cli.main(["serve", ...])``
runs. On SIGUSR1 the launcher writes its peak RSS so far to
``<info>.rss``. When the server has drained (SIGTERM) and returned, it
writes its final peak RSS and, when traced, its raw spans to ``--info``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--info", required=True)
    args = parser.parse_args(argv[:split])

    sys.path.insert(0, os.path.join(ROOT, "src"))
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    from repro.cli import main as cli_main

    def report_rss(signum, frame) -> None:
        with open(args.info + ".rss", "w") as handle:
            handle.write(repr(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))

    signal.signal(signal.SIGUSR1, report_rss)
    code = cli_main(["serve", *argv[split + 1:]])
    info = {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder is not None:
        info["spans"] = recorder.spans
    with open(args.info, "w") as handle:
        json.dump(info, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
