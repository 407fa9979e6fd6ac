"""Build and update layers, timed from outside around their public calls.

* the input: the ``orkut`` stand-in recipe of ``repro.graph.datasets``
  with the benchmark's seed, saved as a canonical edge list;
* builds: one fresh child process each (``perfbench.build_child``),
  serial or on the process backend with 2 workers;
* identity: the serial and process-backend stores must hold
  bit-identical sections (the store header carries a sha256 per section);
* updates: journal batches replayed by ``AttachedStore.refresh``; the
  timed one is followed by one query at the new generation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from perfbench.spans import SpanLog

#: Edges in one update batch. Every replay recomputes trussness and
#: rebuilds the index, so the batch size barely changes the cost.
BATCH_EDGES = 16

#: Sampled queries compared against the from-scratch index after the
#: last update batch.
CHECK_QUERIES = 64

#: A build child that has not finished by then has hung.
BUILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The program failed an operation the benchmark needs to go on."""


def make_input(path: Path):
    """Generate the orkut stand-in and save its edge list."""
    from repro.graph.datasets import DATASETS

    edges = DATASETS["orkut"].generate()
    np.savez(path, u=edges.u, v=edges.v, n=edges.num_vertices)
    return edges


def run_build(root: Path, env: dict, edges_path: Path, store: Path, backend: str,
              log: SpanLog, staged: bool = False) -> dict:
    """One build in a fresh child process; returns what the child measured."""
    cmd = [
        sys.executable, "-m", "perfbench.build_child",
        "--edges", str(edges_path), "--store", str(store), "--backend", backend,
    ]
    if staged:
        cmd.append("--staged")
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{backend} build did not finish in {BUILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{backend} build failed:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = result.pop("spans")
    result["layers"] = {s["name"]: s["end"] - s["start"] for s in spans}
    log.graft(spans, parent=None)
    return result


def section_digests(store: Path) -> dict:
    """Name -> (dtype, shape, sha256) of every data section of a store."""
    from repro.store.reader import read_header

    return {
        name: (entry["dtype"], entry["shape"], entry["sha256"])
        for name, entry in read_header(store)["sections"].items()
    }


def _answer(engine, vertex: int, k: int) -> list[dict]:
    from repro.serve.protocol import serialize_communities

    return serialize_communities(engine.query(vertex, k, record=False))


def run_updates(store_path: Path, oracle, seed: int, log: SpanLog) -> dict:
    """Remove a batch of edges (the untimed seeding replay), then time inserting it back.

    The first replay also sets up the incremental state, so it is kept
    out of the timing. After the timed batch the graph is the built one
    again, and ``oracle`` (an engine over the from-scratch build of that
    graph) checks sampled answers.
    """
    from repro.store.journal import StoreJournal
    from repro.store.reader import attach_store

    with log.span("store.attach") as attach:
        store = attach_store(store_path)
    try:
        engine = store.engine()
        journal = StoreJournal.for_store(store_path)
        edges = store.graph.edges
        rng = np.random.default_rng([seed, 1])
        tau = np.asarray(store.index.trussness)
        kmax = int(tau.max())
        pick = np.sort(rng.choice(np.flatnonzero(tau >= 4), BATCH_EDGES, replace=False))
        eu, ev = np.array(edges.u[pick]), np.array(edges.v[pick])
        with log.span("store.seed_refresh", op="remove", edges=BATCH_EDGES) as seeding:
            journal.append("remove", eu, ev)
            store.refresh()
        with log.span("update", op="insert", edges=BATCH_EDGES) as update:
            with log.span("store.append", update.id) as append:
                generation = journal.append("insert", eu, ev)
            with log.span("store.refresh", update.id) as refresh:
                report = store.refresh()
            with log.span("engine.first_query", update.id) as first:
                engine.query(int(eu[0]), 3, record=False)
        if report.generation != generation or report.applied != 1:
            raise BenchError(f"insert batch replayed as {report!r}, expected gen {generation}")
        queries = [(int(u), 3) for u in eu] + [
            (int(rng.integers(edges.num_vertices)), int(rng.integers(3, kmax + 1)))
            for _ in range(CHECK_QUERIES - BATCH_EDGES)
        ]
        wrong = sum(_answer(engine, v, k) != _answer(oracle, v, k) for v, k in queries)
    finally:
        store.close()
    return {
        "wrong": wrong,
        "update_s": update.seconds,
        "store.attach_ms": attach.seconds * 1e3,
        "store.seed_refresh_s": seeding.seconds,
        "store.append_ms": append.seconds * 1e3,
        "store.refresh_s": refresh.seconds,
        "engine.first_query_ms": first.seconds * 1e3,
    }
