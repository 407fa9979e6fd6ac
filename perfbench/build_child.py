"""One index build in a fresh process: edge list in, written ``.eqtsidx`` out.

Run as ``python3 -m perfbench.build_child --edges E.npz --store S --backend serial``.
A fresh process per build keeps its timings and its peak RSS its own.
Prints one JSON line: wall seconds, CPU seconds (with those of the
process backend's workers) and peak RSS; with ``--staged`` also the
spans around each layer's public call and the index's counts.

The plain build is the one call a user makes, ``build_index(...,
store_path=)``. The staged build makes the same calls one layer at a
time (CSR, triangles, truss decomposition, EquiTruss index, component
sweep, store write) so each gets its own span; the benchmark runs it
only when tracing. Spans of calls that are one of the paper's kernels
carry the kernel's name (``Support``, ``TrussDecomp``, ``Init``, ...),
so ``python3 -m repro info --trace`` tabulates them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from perfbench.procstat import peak_rss_mb
from perfbench.spans import SpanLog

#: The index kernels ``build_index`` times when trussness is supplied.
INDEX_KERNELS = ("Init", "SpNode", "SpEdge", "SmGraph", "SpNodeRemap")


def _staged(edges, ctx, store: str, log: SpanLog, build_id: int | None) -> dict:
    from repro.equitruss.pipeline import build_index
    from repro.graph.csr import CSRGraph
    from repro.serve.components import LevelComponents
    from repro.store.writer import write_store
    from repro.triangles.enumerate import enumerate_triangles
    from repro.truss.decompose import truss_decomposition

    with log.span("graph.csr", build_id):
        graph = CSRGraph.from_edgelist(edges, ctx=ctx)
    with log.span("Support", build_id):
        triangles = enumerate_triangles(graph, ctx=ctx)
    with log.span("TrussDecomp", build_id):
        decomp = truss_decomposition(graph, triangles=triangles, ctx=ctx)
    with log.span("equitruss.index", build_id) as sp:
        result = build_index(graph, decomp=decomp, triangles=triangles, ctx=ctx)
    index = result.index
    # the kernel regions the index build recorded, laid out inside its
    # span (the context's trace also holds the earlier layers' regions)
    kernels = {k: result.breakdown.seconds.get(k, 0.0) for k in INDEX_KERNELS}
    at = sp.start
    for kernel, seconds in kernels.items():
        log.add(kernel, at, at + seconds, parent=sp.id)
        at += seconds
    with log.span("components.sweep", build_id):
        components = LevelComponents(index, ctx=ctx)
    with log.span("store.write", build_id):
        write_store(index, store, components=components, generation=1, ctx=ctx)
    return {
        "triangles": int(triangles.count),
        "supernodes": int(index.num_supernodes),
        "superedges": int(index.num_superedges),
        "kernels": kernels,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.build_child")
    parser.add_argument("--edges", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--backend", choices=("serial", "process"), required=True)
    parser.add_argument("--staged", action="store_true")
    args = parser.parse_args(argv)

    from repro.equitruss.pipeline import build_index
    from repro.graph.csr import CSRGraph
    from repro.graph.edgelist import EdgeList
    from repro.parallel.context import ExecutionContext

    with np.load(args.edges) as data:
        edges = EdgeList(data["u"], data["v"], int(data["n"]))
    log = SpanLog(enabled=args.staged)
    cpu0 = os.times()
    if args.backend == "process":
        ctx = ExecutionContext(backend="process", num_workers=2)
    else:
        ctx = ExecutionContext()
    counts: dict = {}
    with ctx, log.span("build", backend=args.backend) as build:
        if args.staged:
            counts = _staged(edges, ctx, args.store, log, build.id)
        else:
            build_index(CSRGraph.from_edgelist(edges, ctx=ctx), ctx=ctx, store_path=args.store)
    # the process backend's workers are reaped when the context closes,
    # so their CPU time is in the children's share by now
    cpu1 = os.times()
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])
    out = {
        "wall_s": build.seconds,
        "cpu_s": cpu,
        "rss_mb": peak_rss_mb(),
        "spans": log.raw(),
        **counts,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
