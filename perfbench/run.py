"""Benchmark of the EquiTruss index: build, journal update and serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-heavy --seed 1 --seconds 20 --trace 0

Every workload runs the whole product on the ``orkut`` stand-in of
``repro.graph.datasets`` (its shipped recipe, so every run builds the
same index; ``--seed`` draws the update batch and the query list):

1. a serial build and a process-backend build (2 workers), each in a
   fresh child process, from edge list to a written ``.eqtsidx`` store;
   the two stores must be bit-identical;
2. journal updates on an attached store: an untimed seeding replay
   that removes a batch of edges, then a timed batch that inserts them
   back, until the first answer at the new generation; sampled answers
   after it must equal those of the from-scratch build of the graph;
3. the shipped server (``python3 -m repro serve STORE``) in its own
   process, loaded for ``--seconds`` seconds: a closed loop over 2
   connections, then an open loop at a fixed rate on one pipelined
   connection. Every answer is checked against the in-process engine.

The workloads differ only in the queries they serve
(``perfbench.serving.CLASSES``): ``serve-heavy`` asks for answers that
are the giant community (1.2-1.4 MB frames), ``serve-light`` for empty
or small ones. ``serve-heavy`` needs ``--seconds 20`` or more to send
the 100 open-loop requests its tail percentile needs.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). A traced run
also writes its spans to ``.perfbench/trace-<workload>-<seed>.jsonl``,
which ``python3 -m repro info --trace FILE`` renders. The command exits
non-zero on any wrong answer, and without a result when the program's
sources (``src/repro``) are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Share of ``--seconds`` given to the closed loop; the open loop gets the
#: rest, which at 20 s still sends the heavy class >= 100 requests, enough
#: for a p90 with 10 samples beyond it.
CLOSED_SHARE = 0.35

#: Client connections of the closed loop: one per shard of the shipped server.
CONNECTIONS = 2

#: Per-layer build metric -> the span the staged build child records for it.
BUILD_LAYERS = {
    "graph.csr": "graph.csr",
    "triangles.support": "Support",
    "truss.decomp": "TrussDecomp",
    "equitruss.index": "equitruss.index",
    "components.sweep": "components.sweep",
    "store.write": "store.write",
}


#: The workloads; ``perfbench.serving.CLASSES`` maps each to its answer class
#: (that module imports the program, so it loads after the path is set).
WORKLOADS = ("serve-heavy", "serve-light")


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _progress(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    """One run; returns the result object and whether every answer was right."""
    from perfbench import buildpath, serving
    from perfbench.procstat import cpu_seconds, peak_rss_mb
    from perfbench.spans import SpanLog
    from repro.store.reader import attach_store

    cls = serving.CLASSES[workload]
    env = _env()
    log = SpanLog(enabled=trace)
    quiet = SpanLog(enabled=False)
    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    server = serving.Server(ROOT, env, work / "serial.eqtsidx", work)
    oracle_store = None
    try:
        # -------------------------------------------------------- build
        with log.span("setup.input") as t_input:
            edges = buildpath.make_input(work / "edges.npz")
        _progress(f"{workload} seed {seed}: {edges.num_edges} edges")
        serial_store, par_store = work / "serial.eqtsidx", work / "process.eqtsidx"
        serial = buildpath.run_build(ROOT, env, work / "edges.npz", serial_store, "serial", quiet)
        par = buildpath.run_build(ROOT, env, work / "edges.npz", par_store, "process", quiet)
        identical = (
            buildpath.section_digests(serial_store) == buildpath.section_digests(par_store)
        )
        staged = {}
        if trace:
            for backend in ("serial", "process"):
                path = work / f"staged-{backend}.eqtsidx"
                staged[backend] = buildpath.run_build(
                    ROOT, env, work / "edges.npz", path, backend, log, staged=True
                )
                identical &= (
                    buildpath.section_digests(path) == buildpath.section_digests(serial_store)
                )
        _progress(
            f"builds {serial['wall_s']:.2f} s serial ({serial['cpu_s']:.2f} s CPU), "
            f"{par['wall_s']:.2f} s process ({par['cpu_s']:.2f} s CPU)"
        )

        # ------------------------------------------------------- update
        with log.span("setup.attach") as t_attach:
            oracle_store = attach_store(serial_store)
            oracle = oracle_store.engine()
        updates = buildpath.run_updates(par_store, oracle, seed, log)
        _progress(f"updates {updates['update_s']:.2f} s")

        # ------------------------------------------------------ serving
        with log.span("setup.server") as t_server:
            server.start()
        with log.span("setup.queries") as t_queries:
            queries = serving.select_queries(oracle, cls, seed)
            expected = serving.expected_frames(oracle, queries)
        with log.span("setup.warmup") as t_warm:
            warm = serving.warmup(server.host, server.port, expected, cls.warmup)
        server.stats()
        frontend_pid, shard_pids = server.proc.pid, server.shard_pids
        serving_pids = [frontend_pid, *shard_pids]
        closed_s = CLOSED_SHARE * seconds
        open_count = round(cls.open_rate * (seconds - closed_s))
        tail_q = serving.tail_percentile(open_count)

        cpu0 = [cpu_seconds(p) for p in serving_pids] + [cpu_seconds()]
        closed = serving.closed_loop(
            server.host, server.port, expected, cls.warmup, closed_s, CONNECTIONS, quiet,
            "closed_loop",
        )
        cpu1 = [cpu_seconds(p) for p in serving_pids] + [cpu_seconds()]
        next_pos = cls.warmup + len(closed.pos)
        phases = [warm, closed]
        traced_closed = None
        if trace:
            traced_closed = serving.closed_loop(
                server.host, server.port, expected, next_pos, closed_s, CONNECTIONS, log,
                "closed_loop",
            )
            next_pos += len(traced_closed.pos)
            phases.append(traced_closed)
        opened = serving.open_loop(
            server.host, server.port, expected, next_pos, cls.open_rate, open_count, log,
            "open_loop",
        )
        phases.append(opened)
        stats = server.stats()
        with server.client() as c:
            fmetrics = c.metrics_json()
        rss = [peak_rss_mb(p) for p in serving_pids]
        server.stop()

        # ------------------------------------------------- correctness
        wrong = errors = lost = 0
        for phase in phases:
            w, e = serving.verify(phase, expected, oracle)
            wrong, errors, lost = wrong + w, errors + e, lost + phase.lost
        wrong += updates["wrong"] + (0 if identical else 1)
        # operations: the builds, the two journal batches and every request
        attempted = 2 + len(staged) + 2 + sum(len(p.pos) + p.lost for p in phases)
        failed = wrong + errors + lost

        latencies = [
            (done - due) * 1e3 if check is True else float("inf")
            for due, done, check in zip(opened.due, opened.done, opened.check)
        ] + [float("inf")] * opened.lost
        setup_s = sum(t.seconds for t in (t_input, t_attach, t_server, t_queries, t_warm)) + (
            updates["store.attach_ms"] / 1e3 + updates["store.seed_refresh_s"]
        )
        n_edges = edges.num_edges
        if not trace:
            metrics = {
                "setup_s": _metric(setup_s, "s"),
                "build_s": _metric(serial["wall_s"], "s"),
                "build_par_s": _metric(par["wall_s"], "s"),
                "update_s": _metric(updates["update_s"], "s"),
                "store_bytes_per_edge": _metric(serial_store.stat().st_size / n_edges, "B"),
                "rss_mb": _metric(sum(rss), "MB"),
                "qps": _metric(closed.qps(), "1/s"),
                "p50_ms": _metric(_finite(serving.percentile(latencies, 50)), "ms"),
                "tail_ms": _metric(_finite(serving.percentile(latencies, tail_q)), "ms"),
            }
        else:
            metrics = _per_layer(
                serial, par, staged, updates, oracle_store, expected, closed, traced_closed,
                opened, cpu0, cpu1, rss, stats, fmetrics, tail_q,
            )
            trace_path = OUT / f"trace-{workload}-{seed}.jsonl"
            log.write(trace_path)
            _progress(f"trace written to {trace_path}")
        result = {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        return result, wrong == 0
    finally:
        server.stop()
        if oracle_store is not None:
            oracle_store.close()
        shutil.rmtree(work, ignore_errors=True)


def _finite(ms: float) -> float:
    """A failed request's latency is infinite; report it as the socket timeout."""
    from perfbench.serving import SOCKET_TIMEOUT_S

    return min(ms, SOCKET_TIMEOUT_S * 1e3)


def _per_layer(serial, par, staged, updates, oracle_store, expected, closed, traced_closed,
               opened, cpu0, cpu1, rss, stats, fmetrics, tail_q) -> dict:
    """The per-layer metrics of a traced run."""
    from perfbench.serving import percentile
    from repro.serve import protocol

    out: dict = {}
    layers_s, layers_p = staged["serial"]["layers"], staged["process"]["layers"]
    for layer, span in BUILD_LAYERS.items():
        out[f"{layer}_s"] = _metric(layers_s[span], "s")
    for layer in ("triangles.support", "truss.decomp", "equitruss.index"):
        out[f"{layer}_par_s"] = _metric(layers_p[BUILD_LAYERS[layer]], "s")
    for kernel, seconds in staged["serial"]["kernels"].items():
        out[f"kernel.{kernel}_s"] = _metric(seconds, "s")
    out["triangles.count"] = _metric(staged["serial"]["triangles"], "count")
    out["equitruss.supernodes"] = _metric(staged["serial"]["supernodes"], "count")
    out["equitruss.superedges"] = _metric(staged["serial"]["superedges"], "count")
    covered = sum(layers_s[span] for span in BUILD_LAYERS.values())
    out["build.span_coverage"] = _metric(covered / layers_s["build"], "ratio")
    out["build.cpu_s"] = _metric(serial["cpu_s"], "s")
    out["build.rss_mb"] = _metric(serial["rss_mb"], "MB")
    out["build_par.cpu_s"] = _metric(par["cpu_s"], "s")
    out["build_par.rss_mb"] = _metric(par["rss_mb"], "MB")
    out["trace.build_overhead_pct"] = _metric(
        100.0 * (layers_s["build"] / serial["wall_s"] - 1.0), "%"
    )
    for key, unit in (("store.attach_ms", "ms"), ("store.seed_refresh_s", "s"),
                      ("store.append_ms", "ms"), ("store.refresh_s", "s"),
                      ("engine.first_query_ms", "ms")):
        out[key] = _metric(updates[key], unit)

    # in-process engine and protocol costs on this class's queries
    engine = oracle_store.engine(cache_size=0)
    sample = expected.queries[: min(len(expected.queries), 64)]
    q_ms, enc_ms, dec_ms = [], [], []
    for pos, (v, k) in enumerate(sample):
        t0 = time.perf_counter()
        comms = engine.query(v, k, record=False)
        t1 = time.perf_counter()
        frame = protocol.encode_frame(
            protocol.ok_response(pos, vertex=v, k=k,
                                 communities=protocol.serialize_communities(comms))
        )
        t2 = time.perf_counter()
        protocol.decode_frame(frame)
        t3 = time.perf_counter()
        q_ms.append((t1 - t0) * 1e3)
        enc_ms.append((t2 - t1) * 1e3)
        dec_ms.append((t3 - t2) * 1e3)
    out["engine.query_ms"] = _metric(statistics.median(q_ms), "ms")
    out["protocol.encode_ms"] = _metric(statistics.median(enc_ms), "ms")
    out["protocol.decode_ms"] = _metric(statistics.median(dec_ms), "ms")
    out["answers.frame_bytes_p50"] = _metric(percentile(expected.frame_bytes, 50), "B")
    out["answers.frame_bytes_max"] = _metric(max(expected.frame_bytes), "B")
    out["answers.empty_share"] = _metric(
        sum(1 for e in expected.answer_edges if e == 0) / len(expected.answer_edges), "ratio"
    )

    hits = misses = 0
    for shard in stats["shards"]:
        eng = (shard.get("stats") or {}).get("engine") or {}
        hits += int(eng.get("cache_hits", 0))
        misses += int(eng.get("cache_misses", 0))
    out["engine.cache_hit_share"] = _metric(hits / max(hits + misses, 1), "ratio")

    # process CPU over the untraced closed loop: frontend, shards, load generator
    requests = max(len(closed.pos), 1)
    deltas = [b - a for a, b in zip(cpu0, cpu1)]
    out["frontend.cpu_ms_per_req"] = _metric(deltas[0] * 1e3 / requests, "ms")
    out["shard.cpu_ms_per_req"] = _metric(sum(deltas[1:-1]) * 1e3 / requests, "ms")
    out["loadgen.cpu_ms_per_req"] = _metric(deltas[-1] * 1e3 / requests, "ms")
    out["frontend.rss_mb"] = _metric(rss[0], "MB")
    out["shard.rss_mb"] = _metric(sum(rss[1:]), "MB")

    def hist(name: str, key: str) -> float:
        value = fmetrics.get(name)
        return float(value[key]) if isinstance(value, dict) and value.get(key) is not None else 0.0

    out["frontend.batch_size_mean"] = _metric(
        hist("repro.serve.frontend.coalesce_batch_size", "mean"), "count"
    )
    out["frontend.latency_ms_p50"] = _metric(hist("repro.serve.frontend.latency_ms", "p50"), "ms")
    out["frontend.shard_ms_p50"] = _metric(hist("repro.serve.frontend.shard_ms", "p50"), "ms")
    out["frontend.rejected"] = _metric(fmetrics.get("repro.serve.frontend.rejected", 0), "count")
    late = [(s - d) * 1e3 for s, d in zip(opened.sent, opened.due)]
    out["loadgen.late_ms_p99"] = _metric(percentile(late, 99) if late else 0.0, "ms")
    out["open.samples"] = _metric(len(opened.pos), "count")
    out["open.tail_percentile"] = _metric(tail_q, "count")

    out["trace.serve_overhead_pct"] = _metric(
        100.0 * (closed.qps() / traced_closed.qps() - 1.0), "%"
    )
    return out


def _on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the serving phases load the server")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        _progress(f"the program's sources are missing ({SRC / 'repro'})")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    signal.signal(signal.SIGTERM, _on_sigterm)
    from perfbench.buildpath import BenchError

    try:
        result, correct = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        _progress(f"FAILED: {exc}")
        return 1
    print(json.dumps(result), flush=True)
    if not correct:
        _progress("WRONG ANSWERS: the program's output did not match the oracle")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
