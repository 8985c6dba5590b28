"""Run the fockspace command line with the span recorder installed.

    python perfbench/traced_cli.py TRACE.json ARG...

takes the same ARGs as ``python -m fockspace.cli`` and exits with the same
code.  The spans and counters of the run are written to TRACE.json (a list
holding one trace segment) when the command ends.
"""

import json
import sys


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import fockspace.cli
    from tracer import Recorder

    recorder = Recorder()
    recorder.install()
    try:
        code = fockspace.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        recorder.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump([recorder.to_json()], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
