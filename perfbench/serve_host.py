"""Host the pre-fork server for one benchmark run.

Usage: ``python3 perfbench/serve_host.py DATASET INDEX SOCKET [SPANS]``

Serves the saved format-3 *INDEX* of the stand-in *DATASET* with one
``serve_prefork`` worker, the default ``ServerConfig``, an mmap'd
index and the ``auto`` flat backend, on the Unix socket *SOCKET*
(a path relative to the working directory, which keeps it short).
With *SPANS*, the layer wrappers are installed before the worker is
forked, and the worker writes its spans there when it stops.  SIGTERM
stops the server.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src")]


def main(argv) -> int:
    dataset, index_path, socket_path = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    if spans_path is not None:
        import instrument

        instrument.install(instrument.Recorder(), serve=True,
                           dump_path=spans_path)
    from repro.datasets import registry
    from repro.serve.server import (
        IndexProvider,
        ServerConfig,
        bind_socket,
        serve_prefork,
    )

    graph = registry.load_dataset(dataset)
    provider = IndexProvider(graph, index_path=index_path, mmap=True,
                             flat_backend="auto")
    sock = bind_socket(socket_path=socket_path)
    try:
        return serve_prefork(provider, ServerConfig(), sock, workers=1)
    finally:
        sock.close()
        os.unlink(socket_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
