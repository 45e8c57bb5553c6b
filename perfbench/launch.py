"""Start the ``bregmanprox`` command line in this process, as its console
script does, for the cold workload.

    python3 perfbench/launch.py [--trace-out PATH] -- <bregmanprox arguments>

With ``--trace-out`` the per-layer wrappers are installed before the command
runs, and this process's trace summary is written to PATH (its spans next to
it) when the command ends. Without it nothing is wrapped.
"""

import json
import sys


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1:]
    trace_out = opts[1] if opts[:1] == ["--trace-out"] else None
    if trace_out is None:
        from bregmanprox.cli import main as cli_main
        return cli_main(cli_argv)
    import tracing
    tracer = tracing.install()
    from bregmanprox import cli
    try:
        return cli.main(cli_argv)
    finally:
        tracer.write_spans(trace_out[:-len(".json")] + ".spans")
        with open(trace_out, "w") as fh:
            json.dump(tracer.summary(tracing.gauges()), fh)


if __name__ == "__main__":
    sys.exit(main())
