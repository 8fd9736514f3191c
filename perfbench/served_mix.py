"""``served_mix``: a request mix through gateway -> service -> coordinator -> worker.

The system is ``python -m repro serve --executor distributed --workers 1``
(the service, its in-process coordinator and one worker subprocess)
fronted by ``python -m repro gateway``, on an empty cache directory.  The
client is this process: a closed loop with two connections, one
``ServiceClient`` and one HTTP path through the gateway (POST, wait for
the SSE ``done`` event, GET the result).  It sends the next request only
when the previous one has completed, except in a burst, where both
connections submit the same fresh request at once (single-flight).

Each round sends, in a seeded order, fresh requests of every kind and
then a warm phase of exact repeats of earlier requests; each kind
alternates between the direct and the gateway path.  Set-up pays one
warm-up request per kind (worker calibration, first-touch imports), so
latency holds no cold-start costs.  Every request -- both requests of a
burst as one step -- is timed between host-speed probes
(:class:`harness.Timed`), and a round's times are scaled to the
reference host speed by the median speed of its steps; a round's wall
time sums its steps.

Checks: every ``eventsim`` answer reports ``matches_model``; every repeat
and every gateway answer is byte-identical to the first answer of the
same request; one fresh ``montecarlo`` answer a round equals an
in-process ``mismatch_monte_carlo``; the ``dse`` fom corner's energy and the
``dnn`` accuracies equal the recorded values.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import harness

#: Fresh requests per round by kind; ``burst`` is one request sent on
#: both connections.  With the warm phase a round holds 18 timed
#: requests.  The one ``dnn`` request (5.6% of the mix, more than the 5%
#: beyond the p95) is the slowest kind, so the nearest-rank p95 is one of
#: the faster ``dnn`` latencies rather than the edge between two kinds.
FRESH_MIX = {"miss": 3, "eventsim": 4, "dse": 2, "dnn": 1, "burst": 1}
#: Kinds of the earlier requests the warm phase repeats, one each; the
#: same mix every round keeps warm phases comparable.
WARM_MIX = ("miss", "eventsim", "dnn", "dse", "burst", "miss")
REQUESTS_PER_ROUND = sum(FRESH_MIX.values()) + FRESH_MIX["burst"] + len(WARM_MIX)
#: Rounds needed for at least 200 timed requests (ten beyond the p95).
MIN_ROUNDS = -(-200 // REQUESTS_PER_ROUND)
#: Set-ups timed per run (``setup_s`` is their median).  Each costs about
#: 3 s, 6 s on a slowed host; ten would add 20-40 s to every run, more than
#: the run budget allows, so this one metric has fewer than ten samples.
SETUPS = 3

MC_SAMPLES = 100
DNN_MODES = ("float32", "int4", "fom", "power")
REQUEST_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# The system under test
# ----------------------------------------------------------------------
class System:
    """``serve`` + ``gateway`` subprocesses on a fresh cache directory."""

    def __init__(self, root: pathlib.Path, directory: pathlib.Path):
        self.root = root
        self.directory = directory
        self.processes: List[subprocess.Popen] = []
        self.logs: List[Any] = []
        self.service_port = 0
        self.gateway_port = 0

    def _spawn(self, name: str, argv: List[str], banner: str) -> Tuple[subprocess.Popen, re.Match]:
        log_path = self.directory / f"{name}.log"
        log = open(log_path, "w")
        self.logs.append(log)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=self.root,
            env=harness.python_env(self.root),
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.processes.append(process)
        deadline = time.monotonic() + 60.0
        pattern = re.compile(banner)
        while time.monotonic() < deadline:
            match = pattern.search(log_path.read_text())
            if match:
                return process, match
            if process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"{name} did not start: {log_path.read_text()[-2000:]}")

    def start(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        _, match = self._spawn(
            "serve",
            [
                "serve", "--port", "0",
                "--executor", "distributed", "--workers", "1",
                "--cache-dir", str(self.directory / "cache"),
            ],
            r"serving sweeps on [\d.]+:(\d+)",
        )
        self.service_port = int(match.group(1))
        _, match = self._spawn(
            "gateway",
            [
                "gateway", "--service", f"127.0.0.1:{self.service_port}", "--port", "0",
                "--artifact-root", str(self.directory / "artifacts"),
            ],
            r"gateway on [\d.]+:(\d+)",
        )
        self.gateway_port = int(match.group(1))

    def pids(self) -> Dict[str, List[int]]:
        service, gateway = self.processes[0].pid, self.processes[1].pid
        return {
            "service": [service],
            "gateway": [gateway],
            "worker": harness.child_pids(service),
        }

    def cpu(self) -> Dict[str, float]:
        return {
            role: sum(harness.proc_cpu_seconds(pid) for pid in pids)
            for role, pids in self.pids().items()
        }

    def peak_rss_mb(self) -> float:
        return sum(
            harness.proc_peak_rss_mb(pid) for pids in self.pids().values() for pid in pids
        )

    def stop(self) -> None:
        """Interrupt every process group, wait for each, then kill stragglers."""
        for process in reversed(self.processes):
            if process.poll() is None:
                try:
                    os.killpg(process.pid, signal.SIGINT)
                except ProcessLookupError:
                    pass
        for process in reversed(self.processes):
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=15)
            # Worker subprocesses share the service's process group.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            harness.wait_group_gone(process.pid, timeout=15)
        for log in self.logs:
            log.close()
        self.processes.clear()
        self.logs.clear()


# ----------------------------------------------------------------------
# The client: one direct connection, one gateway path
# ----------------------------------------------------------------------
def canonical(payload: Any) -> bytes:
    from repro.gateway.artifacts import encode_result

    return encode_result(payload)


def gateway_call(port: int, workload: str, params: Dict[str, Any]) -> Tuple[bytes, Dict[str, Any]]:
    """POST the sweep, wait for its terminal SSE frame, GET the result."""
    base = f"http://127.0.0.1:{port}"
    body = json.dumps({"workload": workload, "params": params}).encode()
    request = urllib.request.Request(
        f"{base}/v1/sweeps", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT) as response:
        accepted = json.load(response)
    sweep = accepted["id"]
    terminal: Optional[Dict[str, Any]] = None
    with urllib.request.urlopen(f"{base}/v1/sweeps/{sweep}/events", timeout=REQUEST_TIMEOUT) as stream:
        event = None
        for raw in stream:
            line = raw.decode().rstrip("\r\n")
            if line.startswith("event: "):
                event = line[7:]
            elif line.startswith("data: ") and event in ("snapshot", "done"):
                # A sweep that finished before the subscription gets one
                # terminal snapshot and no ``done`` frame.
                document = json.loads(line[6:])
                if event == "done" or document.get("state") != "running":
                    terminal = document
                    break
    if terminal is None or terminal.get("state") != "completed":
        raise RuntimeError(f"gateway sweep {sweep} ended {terminal!r}")
    with urllib.request.urlopen(f"{base}/v1/sweeps/{sweep}/result", timeout=REQUEST_TIMEOUT) as result:
        return result.read(), terminal


class Client:
    """Sends requests on either path and records every one of them."""

    def __init__(self, run: harness.Run, system: System):
        self.run = run
        self.system = system
        self.direct: Any = None
        self.records: List[Dict[str, Any]] = []
        self.answers: Dict[str, bytes] = {}

    async def connect(self) -> None:
        from repro.service import ServiceClient

        self.direct = await ServiceClient("127.0.0.1", self.system.service_port).connect(timeout=30)

    async def close(self) -> None:
        if self.direct is not None:
            await self.direct.aclose()
            self.direct = None

    async def send(self, kind: str, path: str, workload: str, params: Dict[str, Any], timed: bool = True) -> Dict[str, Any]:
        """One request; checks its answer against the first answer of the
        same request, and records latency, compute time and dedup."""
        fingerprint = json.dumps([workload, params], sort_keys=True)
        record: Dict[str, Any] = {"kind": kind, "path": path, "workload": workload, "params": params}
        self.run.attempted += 1
        started = time.perf_counter()
        try:
            if path == "direct":
                result = await asyncio.wait_for(
                    self.direct.submit(workload, params), REQUEST_TIMEOUT
                )
                body = canonical(result.payload)
                record.update(compute=result.elapsed_seconds, deduplicated=result.deduplicated)
            else:
                body, terminal = await asyncio.to_thread(
                    gateway_call, self.system.gateway_port, workload, params
                )
                record.update(
                    compute=float(terminal.get("elapsed_seconds") or 0.0),
                    deduplicated=bool(terminal.get("deduplicated")),
                )
        except Exception as error:
            self.run.fail(f"{kind} via {path} raised {error!r}")
            record.update(latency=time.perf_counter() - started, ok=False)
            if timed:
                self.records.append(record)
            return record
        record["latency"] = time.perf_counter() - started
        first = self.answers.setdefault(fingerprint, body)
        record["ok"] = body == first
        if not record["ok"]:
            self.run.fail(f"{kind} via {path}: answer differs from the first answer")
        record["payload"] = json.loads(body)
        if timed:
            self.records.append(record)
        return record


# ----------------------------------------------------------------------
# The seeded request sequence
# ----------------------------------------------------------------------
def dnn_orders(rng: np.random.Generator) -> List[List[str]]:
    """Every ordering of :data:`DNN_MODES` but the warm-up's, shuffled;
    each ordering is a distinct request (a cache miss) of equal cost."""
    orders = [list(order) for order in itertools.permutations(DNN_MODES)][1:]
    return [orders[int(index)] for index in rng.permutation(len(orders))]


def round_plan(rng: np.random.Generator, dnn_modes: List[str]) -> List[Tuple[str, str, Dict[str, Any]]]:
    """The fresh requests of one round, in a seeded order."""
    plan = []
    for _ in range(FRESH_MIX["miss"]):
        plan.append(("miss", "montecarlo", _montecarlo_params(rng)))
    for _ in range(FRESH_MIX["eventsim"]):
        pairs = rng.integers(0, 16, size=(4, 2)).tolist()
        plan.append(("eventsim", "eventsim", {"pairs": pairs, "shards": 2, "fast": True}))
    for _ in range(FRESH_MIX["dse"]):
        plan.append(("dse", "dse", {"fast": True}))
    plan.append(("dnn", "dnn", {"model": "VGG16", "modes": dnn_modes, "shards": 2}))
    for _ in range(FRESH_MIX["burst"]):
        plan.append(("burst", "montecarlo", _montecarlo_params(rng)))
    return [plan[int(index)] for index in rng.permutation(len(plan))]


def _montecarlo_params(rng: np.random.Generator) -> Dict[str, Any]:
    return {"samples": MC_SAMPLES, "seed": int(rng.integers(1, 2**31)), "shards": 2}


WARM_UP = [
    ("miss", "direct", "montecarlo", {"samples": MC_SAMPLES, "seed": 1, "shards": 2}),
    ("eventsim", "direct", "eventsim", {"pairs": [[3, 5], [15, 15], [0, 7], [9, 2]], "shards": 2, "fast": True}),
    ("dse", "direct", "dse", {"fast": True}),
    ("dnn", "direct", "dnn", {"model": "VGG16", "modes": list(DNN_MODES), "shards": 2}),
    ("hit", "gateway", "montecarlo", {"samples": MC_SAMPLES, "seed": 1, "shards": 2}),
]


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
async def set_up(run: harness.Run, root: pathlib.Path, directory: pathlib.Path) -> Tuple[System, Client, harness.Timed]:
    system = System(root, directory)
    client = Client(run, system)
    try:
        with harness.Timed() as timed:
            system.start()
            await client.connect()
            for kind, path, workload, params in WARM_UP:
                await client.send(kind, path, workload, params, timed=False)
    except BaseException:
        await client.close()
        system.stop()
        raise
    return system, client, timed


async def step(*sends: Any) -> Tuple[List[Dict[str, Any]], harness.Timed]:
    """Send one request, or a burst of concurrent ones, between probes."""
    with harness.Timed() as timed:
        records = await asyncio.gather(*sends)
    return records, timed


async def one_round(
    client: Client, rng: np.random.Generator, index: int, dnn_modes: List[str], history: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """One round; its times are scaled to the reference host speed by the
    median speed its probes read.  The work runs in other processes while
    this one waits, so a probe right after a long request reads this
    process's cold caches, not the host: per-request speeds would be noisy."""
    cpu_before = client.system.cpu()
    steps: List[harness.Timed] = []
    # Each kind alternates paths, starting on the other path every round,
    # so the two paths share every kind equally over a pair of rounds.
    parity = {kind: index for kind in FRESH_MIX}
    fresh: List[Dict[str, Any]] = []
    for kind, workload, params in round_plan(rng, dnn_modes):
        if kind == "burst":
            sends = [client.send(kind, path, workload, params) for path in ("direct", "gateway")]
        else:
            sends = [client.send(kind, ("direct", "gateway")[parity[kind] % 2], workload, params)]
            parity[kind] += 1
        records, timed = await step(*sends)
        fresh.extend(records)
        steps.append(timed)
    history.extend(record for record in fresh if record.get("ok"))
    warm_steps = len(steps)
    warm: List[Dict[str, Any]] = []
    for position, kind in enumerate(WARM_MIX):
        earlier = [record for record in history if record["kind"] == kind] or history
        chosen = earlier[int(rng.integers(0, len(earlier)))]
        path = ("direct", "gateway")[(index + position) % 2]
        records, timed = await step(client.send("hit", path, chosen["workload"], chosen["params"]))
        warm.extend(records)
        steps.append(timed)
    cpu_after = client.system.cpu()
    speed = harness.median([timed.speed for timed in steps])
    for record in fresh + warm:
        record["raw_latency"] = record["latency"]
        record["latency"] /= speed
        if "compute" in record:
            record["compute"] /= speed
    return {
        "wall": sum(timed.raw_s for timed in steps) / speed,
        "warm_wall": sum(timed.raw_s for timed in steps[warm_steps:]) / speed,
        "raw_wall": sum(timed.raw_s for timed in steps),
        "speed": speed,
        "cpu": {role: (cpu_after[role] - cpu_before[role]) / speed for role in cpu_after},
        "fresh": fresh,
    }


def check_round(client: Client, fresh: List[Dict[str, Any]], reference: Dict[str, Any]) -> None:
    """Output checks of one round, outside its timed region."""
    from repro.analysis.pvt_sweeps import mismatch_monte_carlo
    from repro.circuits.technology import tsmc65_like

    sampled = False
    for record in fresh:
        payload = record.get("payload")
        workload = record["workload"]
        if payload is None:
            continue
        if workload == "eventsim":
            client.run.check(payload.get("matches_model") is True, "eventsim matches_model")
        elif workload == "montecarlo" and record["path"] == "direct" and not sampled:
            sampled = True
            params = record["params"]
            expected = mismatch_monte_carlo(
                tsmc65_like(), samples=params["samples"], seed=params["seed"]
            )
            sigmas = {
                f"{float(t) * 1e9:.1f}ns": float(s)
                for t, s in zip(expected["sampling_times"], expected["sigma_at_sampling_times"])
            }
            client.run.check(payload["sigma_v_blb"] == sigmas, "montecarlo == in-process")
        elif workload == "dse":
            client.run.check(
                _fom_energy(payload) == reference["fom_energy_pj"], "dse fom energy == recorded"
            )
        elif workload == "dnn":
            client.run.check(
                _dnn_reports(payload) == reference["dnn_reports"], "dnn accuracies == recorded"
            )


def _fom_energy(payload: Dict[str, Any]) -> float:
    return next(row for row in payload["selected"] if row["corner"] == "fom")["energy_per_operation_pj"]


def _dnn_reports(payload: Dict[str, Any]) -> Dict[str, List[float]]:
    return {
        mode: [report["top1"], report["top5"]] for mode, report in sorted(payload["reports"].items())
    }


async def measure(run: harness.Run, root: pathlib.Path) -> Dict[str, Any]:
    scratch = harness.scratch_dir(root, "served_mix")
    reference = harness.load_reference("served_mix")
    setups: List[harness.Timed] = []
    system = client = None
    try:
        for index in range(SETUPS):
            if system is not None:
                await client.close()
                system.stop()
            system, client, timed = await set_up(run, root, scratch / f"system-{index}")
            setups.append(timed)
        rng = np.random.default_rng(run.seed)
        orders = dnn_orders(rng)
        rounds: List[Dict[str, Any]] = []
        history: List[Dict[str, Any]] = []
        started = time.perf_counter()
        while harness.keep_measuring(started, run.seconds, len(rounds), MIN_ROUNDS):
            index = len(rounds)
            measured = await one_round(client, rng, index, orders[index % len(orders)], history)
            check_round(client, measured.pop("fresh"), reference)
            rounds.append(measured)
        status = await client.direct.status()
        peak_rss = system.peak_rss_mb()
    finally:
        if client is not None:
            await client.close()
        if system is not None:
            system.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "setups": setups,
        "rounds": rounds,
        "records": client.records,
        "status": status,
        "peak_rss_mb": peak_rss,
    }


def run(run: harness.Run, root: pathlib.Path) -> Dict[str, float]:
    """Measure; fill the run's end-to-end metrics, return layer values."""
    measured = asyncio.run(measure(run, root))
    rounds, records = measured["rounds"], measured["records"]
    latencies = [record["latency"] for record in records]
    setups = measured["setups"]
    run.metric("setup_s", harness.median([timed.seconds for timed in setups]), "s")
    run.metric("wall_s", harness.median([r["wall"] for r in rounds]), "s")
    run.metric("warm_wall_s", harness.median([r["warm_wall"] for r in rounds]), "s")
    run.metric("cpu_s", harness.median([sum(r["cpu"].values()) for r in rounds]), "s")
    run.metric("peak_rss_mb", measured["peak_rss_mb"], "MB")
    run.metric("latency_p50_s", harness.percentile(latencies, 0.50), "s")
    run.metric("latency_p95_s", harness.percentile(latencies, 0.95), "s")
    run.metric("ok_ratio", run.ok_ratio, "1")
    run.details["samples"] = {
        "rounds": len(rounds),
        "requests": len(records),
        "setup_s": [timed.seconds for timed in setups],
        "wall_s": [r["wall"] for r in rounds],
        "warm_wall_s": [r["warm_wall"] for r in rounds],
        "raw": {
            "setup_s": [timed.raw_s for timed in setups],
            "wall_s": [r["raw_wall"] for r in rounds],
        },
        "host_speed": {
            "setup": [timed.speed for timed in setups],
            "rounds": [r["speed"] for r in rounds],
        },
        "requests_by_round": [
            [
                (r["kind"], r["path"], round(r["latency"], 5), round(r["raw_latency"], 5))
                for r in records[i * REQUESTS_PER_ROUND:(i + 1) * REQUESTS_PER_ROUND]
            ]
            for i in range(len(rounds))
        ],
        "latency_by_kind": {
            kind: sorted(record["latency"] for record in records if record["kind"] == kind)
            for kind in ("miss", "hit", "eventsim", "dse", "dnn", "burst")
        },
    }
    dse = next((r for r in records if r["workload"] == "dse" and "payload" in r), None)
    dnn = next((r for r in records if r["workload"] == "dnn" and "payload" in r), None)
    run.details["outputs"] = {
        "fom_energy_pj": _fom_energy(dse["payload"]) if dse else None,
        "dnn_reports": _dnn_reports(dnn["payload"]) if dnn else None,
    }
    if not run.trace:
        return {}
    return layers(measured, records, rounds)


def layers(measured: Dict[str, Any], records: List[Dict[str, Any]], rounds: List[Dict[str, Any]]) -> Dict[str, float]:
    med = harness.median
    values: Dict[str, float] = {}
    for kind in ("miss", "hit", "eventsim", "dse", "dnn", "burst"):
        values[f"served.{kind}.p50_s"] = med([r["latency"] for r in records if r["kind"] == kind])
    values["served.requests"] = len(records)
    direct = [r for r in records if r["path"] == "direct" and r.get("ok")]
    values["service.compute_p50_s"] = med([r["compute"] for r in direct])
    values["service.overhead_p50_s"] = med([r["latency"] - r["compute"] for r in direct])
    hits = {
        path: med([r["latency"] for r in records if r["kind"] == "hit" and r["path"] == path])
        for path in ("direct", "gateway")
    }
    values["gateway.overhead_p50_s"] = hits["gateway"] - hits["direct"]
    bursts = [r for r in records if r["kind"] == "burst"]
    values["service.dedup_ratio"] = (
        sum(1 for r in bursts if r.get("deduplicated")) / len(bursts) if bursts else 0.0
    )
    values["service.cpu_s"] = med([r["cpu"]["service"] for r in rounds])
    values["gateway.cpu_s"] = med([r["cpu"]["gateway"] for r in rounds])
    values["cluster.worker_cpu_s"] = med([r["cpu"]["worker"] for r in rounds])
    stats = (measured["status"].get("cluster") or {}).get("stats", {})
    for key in ("chunks_dispatched", "jobs_done", "chunks_retried", "chunks_refitted", "workers_lost"):
        values[f"cluster.{key}"] = float(stats.get(key, 0))
    values["trace.overhead_s"] = 0.0
    values["trace.span_coverage"] = 0.0
    return values
