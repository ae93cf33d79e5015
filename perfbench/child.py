"""One measured process, started by run.py with PYTHONPATH pointing at src/.

    child.py cli ARGV...             navrisk.cli.main(ARGV), nothing added
    child.py trace SPANS ARGV...     the same with tracer.py's wrappers;
                                     the spans are written to SPANS (JSON)
    child.py setup run|DOC           import navrisk and build the scenario
                                     (generate_case_study, or load_scenario
                                     of DOC); prints the seconds it took

The exit code is the one navrisk.cli.main returned.
"""

import sys
import time


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        t0 = time.perf_counter()
        import navrisk
        if rest[0] == "run":
            navrisk.generate_case_study()
        else:
            with open(rest[0], "rb") as f:
                navrisk.load_scenario(f.read())
        print(repr(time.perf_counter() - t0))
        return 0
    if mode == "cli":
        from navrisk.cli import main as cli_main
        return cli_main(rest)
    if mode == "trace":
        import json
        from tracer import Tracer
        tracer = Tracer()
        cli_main = tracer.install()
        code = cli_main(rest[1:])
        with open(rest[0], "w") as f:
            json.dump(tracer.spans, f)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
