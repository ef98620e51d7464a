"""Child launcher for ``wire_stream`` / ``web_stream`` and the shared server hooks.

``python3 benchmarks/e2e/serve.py '<json spec>'`` builds a volatile
``ActiveViewServer`` (2 shards) from the same ``(workload, seed)`` the
generator uses, puts ``NetworkServer(loops=1)`` or ``WebGateway`` in front,
prints ``host port`` once listening, then answers one JSON line per command
line on stdin:

* ``settle`` — warm-up is over: collect and freeze the heap (see
  ``measure.settle_heap``); reply ``{}``;
* ``reset``  — clear the hook buffers; reply with the current report;
* ``report`` — reply with the report (``ru_maxrss``, front-end and shard
  counters, evaluation report, table digest, hook timestamps);
* ``stop`` or end of input — shut everything down and exit 0.

End of input is what a dead parent looks like, so a generator that is
killed mid-run leaves no orphan; the volatile stack owns no files.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
from pathlib import Path

if __package__ in (None, ""):
    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[0] = str(_ROOT)
    sys.path.insert(1, str(_ROOT / "src"))

from repro.serving import ActiveViewServer
from repro.serving.net import NetworkServer
from repro.serving.web import WebGateway
from repro.workloads import HierarchyWorkload

from benchmarks.e2e import checks
from benchmarks.e2e.gen import SPECS, Spec, open_stream
from benchmarks.e2e.measure import now, settle_heap

SHARDS = 2
MAX_BATCH = 32
#: Activations a subscription may buffer before the front end pauses it;
#: sized so that a paused subscription means the consumer fell behind by
#: seconds, not that a burst was large.
SEND_BUFFER = 16_384


class ServerHooks:
    """Timestamps from the public hooks of an ``ActiveViewServer``.

    Per shard database a commit listener (``apply`` events: when a batch's
    rows are in, before its triggers fire) and per shard service an
    activation listener (when an activation has been produced).  Both
    record the monitored key — for the depth-2 hierarchy a leaf row's
    ``parent_id`` is its top element — so the generator can correlate them
    with its statements per key, in order.  A sampler thread reads the
    public ``queue_depths`` every few milliseconds.
    """

    def __init__(self, server: ActiveViewServer) -> None:
        self.server = server
        self.commits: list[tuple[float, list[int]]] = []
        self.activations: list[tuple[float, int]] = []
        self.applied: list[list] = []
        self.depths: list[int] = []
        self._stop = threading.Event()
        self._sampler: threading.Thread | None = None
        self._wrappers = server.sharded.add_commit_listener(self._on_commit)
        for service in server.services:
            service.add_activation_listener(self._on_activation)

    def _on_commit(self, shard: int, kind: str, payload) -> None:
        if kind == "apply":
            stamp = now()
            keys = [row[1] for delta in payload for row in delta.inserted.rows]
            self.commits.append((stamp, keys))
            if len(self.applied) < 256:
                self.applied.append(payload)

    def _on_activation(self, fired) -> None:
        self.activations.append((now(), fired.key[0]))

    def start_sampler(self, interval: float = 0.005) -> None:
        def sample() -> None:
            while not self._stop.wait(interval):
                self.depths.append(sum(self.server.queue_depths))

        self._sampler = threading.Thread(target=sample, name="queue-sampler", daemon=True)
        self._sampler.start()

    def reset(self) -> None:
        del self.commits[:], self.activations[:], self.depths[:], self.applied[:]

    def close(self) -> None:
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join(timeout=5)
        self.server.sharded.remove_commit_listeners(self._wrappers)
        for service in self.server.services:
            service.remove_activation_listener(self._on_activation)

    def dump(self) -> dict:
        return {
            "commits": self.commits,
            "activations": self.activations,
            "queue_depths": self.depths,
            "rows_touched": sum(len(keys) for _, keys in self.commits),
        }


def shard_report(server: ActiveViewServer) -> dict:
    """Counters every serving workload reads, whatever hosts the server."""
    return {
        "shards": [stats.as_dict() for stats in server.stats],
        "evaluation": server.evaluation_report(),
        "plan_cache": [
            sum(s.plan_cache_hits for s in server.services),
            sum(s.plan_cache_misses for s in server.services),
        ],
        "tables": checks.table_digest(server.sharded.snapshot()),
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def build_server(spec: Spec, seed: int) -> tuple[ActiveViewServer, float]:
    """The volatile two-shard stack, started; also ``core.register_bulk_s``."""
    triggers, _ = open_stream(spec, seed)
    workload = HierarchyWorkload(spec.parameters(seed))
    server = ActiveViewServer(
        workload.build_sharded_database(SHARDS), max_batch=MAX_BATCH
    )
    server.register_view(workload.build_view())
    server.register_action("collect", lambda node: None)
    started = now()
    server.register_triggers_bulk(triggers)
    register_s = now() - started
    return server.start(), register_s


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    spec = SPECS[request["workload"]]
    if request.get("smoke"):
        spec = spec.smoke()
    server, register_s = build_server(spec, request["seed"])
    if spec.kind == "web":
        front = WebGateway(server, send_buffer=SEND_BUFFER).start()
    else:
        front = NetworkServer(server, loops=1, send_buffer=SEND_BUFFER).start()
    hooks = ServerHooks(server) if request.get("trace") else None
    if hooks is not None:
        hooks.start_sampler()
    try:
        host, port = front.address
        print(host, port, flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if command == "settle":
                server.drain()
                settle_heap()
                print("{}", flush=True)
                continue
            if command not in ("reset", "report"):
                continue
            server.drain()
            report = shard_report(server)
            report["register_bulk_s"] = register_s
            report["front"] = front.web_report() if spec.kind == "web" else front.net_report()
            if hooks is not None:
                report["hooks"] = hooks.dump()
                if command == "reset":
                    hooks.reset()
            print(json.dumps(report), flush=True)
    finally:
        if hooks is not None:
            hooks.close()
        front.stop()
        server.stop(drain=False)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except KeyboardInterrupt:
        sys.exit(130)
