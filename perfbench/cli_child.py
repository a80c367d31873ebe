"""Run the hivae CLI under the speed sampler, optionally with tracing.

    python3 perfbench/cli_child.py SPEED_JSON TRACE_JSON|- hivae-args...

Writes the sampler's totals to SPEED_JSON and, unless TRACE_JSON is ``-``,
the tracer's counts to TRACE_JSON; exits with the CLI's status.  The parent
times the whole process, from start to exit.
"""

import json
import sys

import paths  # noqa: F401
import speed

if __name__ == "__main__":
    speed_out, trace_out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    with speed.Sampler() as sampler:
        from hivae import cli

        if trace_out == "-":
            status = cli.main(argv)
        else:
            import tracing

            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                status = cli.main(argv)
            with open(trace_out, "w") as fh:
                json.dump(tracer.to_dict(), fh)
        totals = sampler.totals()
    with open(speed_out, "w") as fh:
        json.dump(totals.to_dict(), fh)
    sys.exit(status)
