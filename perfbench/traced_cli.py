"""One traced CLI op in a fresh interpreter.

    PYTHONPATH=src python perfbench/traced_cli.py SPANS.json [--tracemalloc] -- backtest ...

Times ``import specport`` in a span, wraps the layer boundaries, runs
``specport.cli.main`` on the arguments after ``--`` and writes the spans to
SPANS.json.  With ``--tracemalloc`` it also records the peak Python-visible
allocation of the estimator and solver calls.  Exits with the CLI's code.
"""

import sys
import tracemalloc

from tracer import Tracer


def main() -> int:
    split = sys.argv.index("--")
    spans_path, *flags = sys.argv[1:split]
    tracer = Tracer()
    with tracer.span("import.specport"):
        import specport.cli
    tracer.install()
    if "--tracemalloc" in flags:
        tracemalloc.start()
    code = specport.cli.main(sys.argv[split + 1 :])
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
