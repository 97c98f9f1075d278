"""Start `lemname serve` for the benchmark, optionally traced.

    python3 perfbench/serve_child.py SRC_DIR SPANS_OUT SERVE_ARGS...

Runs `lemname.cli.main(SERVE_ARGS)` against the package sources in
SRC_DIR. When SPANS_OUT is a path rather than `-`, the layer wrappers of
`spans.py` are installed first and every span is written to SPANS_OUT
when the server exits. The caller sets the BLAS thread variables.
"""

import sys


def main(argv) -> int:
    src, spans_out, *serve_args = argv
    sys.path.insert(0, src)
    from lemname import cli

    if spans_out == "-":
        return cli.main(serve_args)

    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        return cli.main(serve_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
