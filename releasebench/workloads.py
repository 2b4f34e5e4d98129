"""The release benchmark's workloads.

Each workload is a closed loop: a client sends its next release only after
the previous one returned.  A workload's timed phase repeats *rounds*, each
the same list of operations fixed by the run seed, until another round
would overrun the run length; at least one round always runs.  Repeating
identical rounds keeps every count (``f_M`` runs, released populations,
failed operations) an exact function of the seed, whatever the run length.

``setup`` is the program's set-up, timed by the parent process as
``setup_s``; everything in ``run`` before the first round (picking the
queried records with the oracle, planning seeds and appended rows) and
after the last (correctness checks) is the benchmark's own work and
untimed.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import oracle
from common import (
    DATASET_SEED,
    N_RECORDS,
    SPEC,
    evenly_spaced,
    latency_figures,
    release_seeds,
    workload_rng,
)
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

#: cold_release: records per round (spread evenly over all exact-context
#: outliers), each released once per round from an emptied profile store.
COLD_RECORDS = 120
#: served_append: records per segment, segments per round, rows per append
#: (one append between consecutive segments), client threads.
SERVED_RECORDS = 40
SEGMENTS = 4
APPEND_ROWS = 10
CLIENTS = 2
#: Coalescing like the README's example; serial execution (the default).
MAX_BATCH = 16
MAX_DELAY_MS = 5.0
DATASET_NAME = "salary"
#: Budgets large enough that no release is refused.
BUDGET = 1.0e6

Key = Tuple[int, int]


def table_of(dataset) -> oracle.Table:
    """The oracle's raw view of a program dataset."""
    attrs = dataset.schema.attributes
    return oracle.Table(
        [dataset.codes(a.name) for a in attrs],
        [len(a) for a in attrs],
        dataset.metric,
        dataset.ids,
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary(result: Dict[str, Any]) -> Dict[str, Any]:
    """The parts of a release (``PCORResult.to_dict`` form) that must be
    identical wherever and whenever the same release is made."""
    start = result.get("starting_context")
    return {
        "record_id": result["record_id"],
        "bits": result["context"]["bits"],
        "utility_value": result["utility_value"],
        "n_candidates": result["n_candidates"],
        "starting_bits": start["bits"] if start else None,
        "dataset_version": result["dataset_version"],
    }


class Ops:
    """Attempted and failed operations of one kind, with latencies;
    a failed operation's latency is +inf."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.failed = 0

    def add(self, latency_s: float, ok: bool) -> None:
        self.latencies.append(latency_s if ok else math.inf)
        self.failed += 0 if ok else 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def to_dict(self) -> Dict[str, int]:
        return {"attempted": self.attempted, "failed": self.failed}


class Run:
    """What one timed phase measured, and what the checks found."""

    def __init__(self) -> None:
        self.releases = Ops()
        self.appends = Ops()
        self.wall_s = 0.0  # timed release phase
        self.cpu_s = 0.0
        self.rounds = 0
        self.fm_runs: List[int] = []
        self.populations: List[float] = []
        self.problems: List[str] = []
        self.extra: Dict[str, float] = {}
        self.edges: List[Tuple[float, float]] = []  # (HTTP edge, queue wait) s
        self.peak_rss_mb = 0.0

    def report(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        releases = self.releases
        figures = latency_figures(releases.latencies, self.wall_s)
        done = max(1, releases.completed)
        metrics = {
            "release_p50_ms": figures["p50"],
            "release_p90_ms": figures["p90"],
            "releases_per_s": releases.completed / self.wall_s,
            "cpu_ms_per_release": self.cpu_s * 1000.0 / done,
            "peak_rss_mb": self.peak_rss_mb,
            "released_population_mean": float(np.mean(self.populations)) if self.populations else 0.0,
        }
        extra = {
            "fm_runs_per_release": float(np.mean(self.fm_runs)) if self.fm_runs else 0.0,
            "append_p50_ms": (
                latency_figures(self.appends.latencies, self.wall_s)["p50"]
                if self.appends.attempted
                else 0.0
            ),
            "release_samples": releases.attempted,
            "rounds": self.rounds,
            **self.extra,
        }
        out: Dict[str, Any] = {
            "correct": not self.problems,
            "problems": self.problems[:20],
            "ops": {"release": releases.to_dict()},
            "metrics": metrics,
            "extra": extra,
        }
        if self.appends.attempted:
            out["ops"]["append"] = self.appends.to_dict()
        if tracer is not None:
            finite = [x for x in releases.latencies if math.isfinite(x)]
            per_layer = layer_metrics(
                tracer,
                releases.completed,
                self.appends.completed,
                sum(finite),
                self.edges or None,
            )
            per_layer["fm_runs_per_release"] = extra["fm_runs_per_release"]
            per_layer["append_p50_ms"] = extra["append_p50_ms"]
            out["per_layer"] = per_layer
        return out


class Pacer:
    """The timed phase's clock, split into ``chunks`` pieces of equal
    length.  At each pause point past its piece's length the run stops,
    prints ``PAUSED`` and waits for a line on stdin, so the parent can time
    another set-up in between; :meth:`now` leaves the pauses out.  Spreading
    the timed phase over the whole run samples more of the host's load than
    one stretch of the same length would."""

    def __init__(self, seconds: float, chunks: int = 1):
        self.seconds = float(seconds)
        self.chunk_s = self.seconds / max(1, chunks)
        self.pauses_left = max(1, chunks) - 1
        self.paused_s = 0.0
        self.chunk_started = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self.paused_s

    def pause_point(self) -> None:
        if not self.pauses_left or time.perf_counter() - self.chunk_started < self.chunk_s:
            return
        paused = time.perf_counter()
        print("PAUSED", flush=True)
        sys.stdin.readline()
        self.chunk_started = time.perf_counter()
        self.paused_s += self.chunk_started - paused
        self.pauses_left -= 1

    def another_round(self, started: float, round_started: float) -> bool:
        """Start another round only if one more, as long as the last, fits."""
        self.pause_point()
        now = self.now()
        return (now - started) + (now - round_started) <= self.seconds


def check_rounds(rounds: Sequence[Sequence[Any]], problems: List[str]) -> None:
    """Every round repeats the first one's operations; their outcomes
    must repeat too."""
    for index, outcomes in enumerate(rounds[1:], start=1):
        if list(outcomes) != list(rounds[0]):
            problems.append(f"round {index} released differently from round 0")


# ---------------------------------------------------------------- direct


class _Direct:
    """Releases through ``ReleaseEngine.submit`` from one client thread."""

    name = ""

    def setup(self) -> None:
        from repro import PipelineSpec, ReleaseEngine, salary_reduced

        self.dataset = salary_reduced(n_records=N_RECORDS, seed=DATASET_SEED)
        self.engine = ReleaseEngine(self.dataset)
        self.spec = PipelineSpec.from_dict(SPEC)
        self.verifier = self.engine.verifier_for(self.spec.build_detector())

    def teardown(self) -> None:
        self.engine.close()

    def records(self, outliers: List[int]) -> List[int]:
        raise NotImplementedError

    def before_release(self) -> None:
        """Untimed work before each release."""

    def run(self, seed: int, pacer: Pacer, tracer: Optional[Tracer]) -> Run:
        from repro import ReleaseRequest
        from repro.exceptions import ReproError

        table = table_of(self.dataset)
        records = self.records(oracle.exact_context_outliers(table))
        rng = workload_rng(seed, self.name, "releases")
        order = [records[i] for i in rng.permutation(len(records))]
        plan = list(zip(order, release_seeds(rng, len(order))))
        requests = [ReleaseRequest(record_id=r, spec=self.spec, seed=s) for r, s in plan]

        run = Run()
        fm_before = self.verifier.fm_evaluations
        rounds: List[List[Any]] = []
        started = pacer.now()
        while True:
            round_started = pacer.now()
            outcomes: List[Any] = []
            for request in requests:
                pacer.pause_point()
                self.before_release()
                if tracer is not None:
                    tracer.recording = True
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    result = self.engine.submit(request)
                except ReproError as exc:
                    result = exc
                t1 = time.perf_counter()
                c1 = time.process_time()
                if tracer is not None:
                    tracer.recording = False
                ok = not isinstance(result, ReproError)
                run.releases.add(t1 - t0, ok)
                run.wall_s += t1 - t0
                run.cpu_s += c1 - c0
                if ok:
                    run.fm_runs.append(result.fm_evaluations)
                    run.populations.append(result.utility_value)
                    outcomes.append((summary(result.to_dict()), result.fm_evaluations))
                else:
                    outcomes.append(f"{type(result).__name__}: {result}")
            rounds.append(outcomes)
            run.rounds += 1
            if not pacer.another_round(started, round_started):
                break
        run.peak_rss_mb = peak_rss_mb()
        self.check(table, plan, rounds, run, self.verifier.fm_evaluations - fm_before)
        return run

    def check(self, table, plan, rounds, run: Run, fm_total: int) -> None:
        for (record, seed), outcome in zip(plan, rounds[0]):
            if isinstance(outcome, str):
                run.problems.append(f"record {record} seed {seed}: {outcome}")
                continue
            result, _ = outcome
            if result["dataset_version"] != 0:
                run.problems.append(f"record {record}: released at version {result['dataset_version']}")
            run.problems.extend(
                oracle.check_release(table, record, result["bits"], result["utility_value"])
            )
        check_rounds(rounds, run.problems)


class ColdRelease(_Direct):
    """Distinct exact-context outliers, each released from an emptied
    profile store: every context a release examines costs an f_M run."""

    name = "cold_release"

    def records(self, outliers: List[int]) -> List[int]:
        return evenly_spaced(outliers, COLD_RECORDS)

    def before_release(self) -> None:
        self.verifier.profile_store.clear()


class WarmRelease(_Direct):
    """Every context of the schema profiled at set-up (the paper's
    Section 6.2 reference file); releases then run no f_M at all."""

    name = "warm_release"

    def setup(self) -> None:
        from repro.core.reference import ReferenceFile

        super().setup()
        self.reference = ReferenceFile.build(self.verifier)

    def records(self, outliers: List[int]) -> List[int]:
        return outliers

    def check(self, table, plan, rounds, run: Run, fm_total: int) -> None:
        super().check(table, plan, rounds, run, fm_total)
        if fm_total or any(run.fm_runs):
            run.problems.append(f"warm releases ran {fm_total} f_M evaluations, expected 0")
        run.extra["reference_max_population_mean"] = float(
            np.mean([self.reference.max_population_utility(r) for r, _ in plan])
        )


# ---------------------------------------------------------------- served


class ServedAppend:
    """Two analysts release through an in-process HTTP server with a
    coalescer and a JSONL write-ahead ledger, while rows are appended to
    the served dataset between fixed segments of releases."""

    name = "served_append"

    def setup(self) -> None:
        self.work = ROOT / ".releasebench-work" / str(os.getpid())
        self.server = self.start_server(0)

    def start_server(self, index: int):
        from repro import PCORServer, ServerConfig

        config = ServerConfig.from_dict(
            {
                "server": {
                    "port": 0,
                    "ledger": "jsonl",
                    "ledger_dir": str(self.work / f"round{index}"),
                },
                "datasets": {
                    DATASET_NAME: {
                        "source": "salary_reduced",
                        "records": N_RECORDS,
                        "seed": DATASET_SEED,
                        "budget": BUDGET,
                        "tenant_budget": BUDGET,
                        "max_batch": MAX_BATCH,
                        "max_delay_ms": MAX_DELAY_MS,
                    }
                },
            }
        )
        server = PCORServer(config).start()
        # The dataset and its index are built lazily on the first release;
        # build them now so that set-up, not the first release, pays.
        server.registry.get(DATASET_NAME).engine.masks
        return server

    def teardown(self) -> None:
        self.server.shutdown()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another worker's directory is still there

    def plan(self, seed: int):
        """Appended rows, per-version oracle tables and the release plan."""
        from repro import salary_reduced

        engine = self.server.registry.get(DATASET_NAME).engine
        base = table_of(engine.dataset)
        n_rows = APPEND_ROWS * (SEGMENTS - 1)
        row_seed = int(workload_rng(seed, self.name, "rows").integers(0, 2**31 - 1))
        source = salary_reduced(n_records=n_rows, seed=row_seed)
        attrs = source.schema.attributes
        rows = [source.record(int(r)) for r in source.ids]
        tables = [base]
        next_id = int(base.ids.max()) + 1
        for a in range(SEGMENTS - 1):
            part = slice(a * APPEND_ROWS, (a + 1) * APPEND_ROWS)
            ids = np.arange(next_id + a * APPEND_ROWS, next_id + (a + 1) * APPEND_ROWS)
            tables.append(
                tables[-1].append(
                    [source.codes(attr.name)[part] for attr in attrs],
                    source.metric[part],
                    ids,
                )
            )
        # A record can stop being an outlier when rows join its context;
        # query only records that stay outliers at every version.
        outliers = [set(oracle.exact_context_outliers(table)) for table in tables]
        records = evenly_spaced(
            sorted(outliers[0]), SERVED_RECORDS, keep=lambda r: all(r in o for o in outliers)
        )
        rng = workload_rng(seed, self.name, "releases")
        segments = []
        for _ in range(SEGMENTS):
            order = [records[i] for i in rng.permutation(len(records))]
            segments.append(list(zip(order, release_seeds(rng, len(order)))))
        appends = [rows[a * APPEND_ROWS : (a + 1) * APPEND_ROWS] for a in range(SEGMENTS - 1)]
        return tables, segments, appends, next_id

    def run(self, seed: int, pacer: Pacer, tracer: Optional[Tracer]) -> Run:
        from repro import PCORClient

        tables, segments, appends, next_id = self.plan(seed)
        run = Run()
        rounds: List[List[Any]] = []
        fm_per_round: List[int] = []
        started = pacer.now()
        while True:
            round_started = pacer.now()
            if run.rounds:
                self.server.shutdown()
                self.server = self.start_server(run.rounds)
            url = self.server.url
            clients = [PCORClient(url, tenant=t, timeout=120.0) for t in ("alice", "bob")]
            loader = PCORClient(url, tenant="loader", timeout=120.0)
            outcomes: List[Any] = []
            for index, items in enumerate(segments):
                if index:
                    pacer.pause_point()
                outcomes.extend(self.segment(clients, items, run, tracer))
                if index < len(appends):
                    self.append(loader, appends[index], index, next_id, run, tracer)
            self.check_ledger(loader, run)
            for client in clients + [loader]:
                client.close()
            rounds.append(outcomes)
            fm_per_round.append(sum(o[1] for o in outcomes if not isinstance(o, str)))
            run.rounds += 1
            if not pacer.another_round(started, round_started):
                break
        run.peak_rss_mb = peak_rss_mb()
        self.check(tables, segments, appends, rounds, fm_per_round, run)
        return run

    def segment(self, clients, items, run: Run, tracer: Optional[Tracer]) -> List[Any]:
        """Both clients release their half of the segment, closed loop."""
        halves = [items[i::CLIENTS] for i in range(CLIENTS)]
        measured: List[List[Tuple[float, Any]]] = [[] for _ in range(CLIENTS)]
        gate = threading.Barrier(CLIENTS + 1)

        def client_loop(i: int) -> None:
            gate.wait()
            for record, seed in halves[i]:
                t0 = time.perf_counter()
                try:
                    outcome = clients[i].release(DATASET_NAME, record, SPEC, seed=seed)["result"]
                except Exception as exc:  # noqa: BLE001 - a failed operation, counted below
                    outcome = exc
                measured[i].append((time.perf_counter() - t0, outcome))

        threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        if tracer is not None:
            tracer.recording = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        gate.wait()
        for thread in threads:
            thread.join()
        run.wall_s += time.perf_counter() - t0
        run.cpu_s += time.process_time() - c0
        if tracer is not None:
            tracer.recording = False

        by_key: Dict[Key, Any] = {}
        for i in range(CLIENTS):
            for (record, seed), (latency, outcome) in zip(halves[i], measured[i]):
                ok = not isinstance(outcome, Exception)
                run.releases.add(latency, ok)
                if ok:
                    run.fm_runs.append(outcome["fm_evaluations"])
                    run.populations.append(outcome["utility_value"])
                    if tracer is not None:
                        run.edges.append(tracer.split((record, seed), latency))
                    by_key[(record, seed)] = (summary(outcome), outcome["fm_evaluations"])
                else:
                    by_key[(record, seed)] = f"{type(outcome).__name__}: {outcome}"
        return [by_key[item] for item in items]

    def append(self, loader, rows, index: int, next_id: int, run: Run, tracer: Optional[Tracer]) -> None:
        if tracer is not None:
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            info = loader.append(DATASET_NAME, rows)
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted below
            info = exc
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        ok = not isinstance(info, Exception)
        run.appends.add(latency, ok)
        if not ok:
            run.problems.append(f"append {index}: {type(info).__name__}: {info}")
            return
        first = next_id + index * APPEND_ROWS
        expected = {
            "appended": APPEND_ROWS,
            "record_ids": list(range(first, first + APPEND_ROWS)),
            "n_records": N_RECORDS + (index + 1) * APPEND_ROWS,
            "dataset_version": index + 1,
        }
        got = {key: info.get(key) for key in expected}
        if got != expected:
            run.problems.append(f"append {index}: server answered {got}, expected {expected}")

    def check_ledger(self, loader, run: Run) -> None:
        """Spend equals epsilon per admitted release, in the server's
        metrics and in the write-ahead ledger file."""
        import json

        admitted = SEGMENTS * SERVED_RECORDS
        expected = SPEC["epsilon"] * admitted
        spent = loader.metrics()["datasets"][DATASET_NAME]["epsilon_spent"]
        if not math.isclose(spent, expected, rel_tol=1e-9):
            run.problems.append(f"server reports spend {spent}, expected {expected}")
        path = Path(self.server.config.ledger_dir) / f"{DATASET_NAME}.ledger.jsonl"
        charges = [json.loads(line) for line in path.read_text().splitlines() if line]
        logged = math.fsum(c["epsilon"] for c in charges)
        if len(charges) != admitted or not math.isclose(logged, expected, rel_tol=1e-9):
            run.problems.append(
                f"ledger holds {len(charges)} charges totalling {logged}, "
                f"expected {admitted} totalling {expected}"
            )
        if not self.server.registry.get(DATASET_NAME).engine.dataset.n_records == (
            N_RECORDS + APPEND_ROWS * (SEGMENTS - 1)
        ):
            run.problems.append("served dataset size differs from n plus the appended rows")

    def check(self, tables, segments, appends, rounds, fm_per_round, run: Run) -> None:
        """Round 0 against the oracle and a direct engine; later rounds
        against round 0."""
        from repro import PipelineSpec, ReleaseEngine, ReleaseRequest, salary_reduced
        from repro.exceptions import ReproError

        engine = ReleaseEngine(salary_reduced(n_records=N_RECORDS, seed=DATASET_SEED))
        spec = PipelineSpec.from_dict(SPEC)
        position = 0
        for index, items in enumerate(segments):
            for record, seed in items:
                outcome = rounds[0][position]
                position += 1
                if isinstance(outcome, str):
                    run.problems.append(f"record {record} seed {seed}: {outcome}")
                    continue
                served, _ = outcome
                try:
                    direct = summary(
                        engine.submit(ReleaseRequest(record_id=record, spec=spec, seed=seed)).to_dict()
                    )
                except ReproError as exc:
                    direct = f"{type(exc).__name__}: {exc}"
                if served != direct:
                    run.problems.append(
                        f"record {record} seed {seed}: served {served} but direct engine {direct}"
                    )
                if served["dataset_version"] != index:
                    run.problems.append(
                        f"record {record}: released at version {served['dataset_version']}, expected {index}"
                    )
                    continue
                run.problems.extend(
                    oracle.check_release(tables[index], record, served["bits"], served["utility_value"])
                )
            if index < len(appends):
                engine.append(appends[index])
        engine.close()
        check_rounds([[o if isinstance(o, str) else o[0] for o in r] for r in rounds], run.problems)
        if len(set(fm_per_round)) > 1:
            run.problems.append(f"f_M runs per round differ: {fm_per_round}")


WORKLOADS = {w.name: w for w in (ColdRelease, WarmRelease, ServedAppend)}
