"""The benchmark's workloads and the runner that measures them.

Each workload prepares its inputs from the seed in `setup`, then repeats
one user-visible operation (`op`): a training run, one suggestNaming
request to the server, or one `evaluate --baseline` run. Every operation
checks its own output; a failed check counts as a failed operation and
its time is dropped. Timings are medians over the repeated operations.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from io import StringIO
from pathlib import Path

import numpy as np

from lemname import cli as lcli
from lemname import corpus as lcorpus
from lemname import diagserver as ldiag
from lemname import model as lmodel
from lemname import nn as lnn
from lemname.chop import ChopConfig
from lemname.subtok import DEFAULT_LEXICON

import spans

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# The fixed parts of the workloads.
TRAIN_EPOCHS = 2
# Every run serves the same model (its corpus seed is fixed); the run's
# seed picks the request files, as traffic to a deployed model varies.
SERVE_MODEL_SEED = 999_983
SERVE_K = 5
SWEEP_LENGTHS = (64, 128, 256, 512)  # encoder lengths of the traced run's sweep
REFERENCE_REPEATS = 3  # reference timings on each side of an operation


@dataclass(frozen=True)
class Plan:
    """Input sizes and repeat counts; `run.py` uses the defaults, the self-tests shrink them."""

    # Set-up runs at least `setups` times and for at least `setup_seconds`.
    setups: int = 3
    setup_seconds: float = 1.0
    # train: the acceptance-suite recipe (stmt+ckt, 32/64 dims, batch 16),
    # one run per corpus; 10 documents of 2 lemmas give one batch of 16
    # training records
    train_corpora: int = 4
    train_docs: int = 10
    train_lemmas_per_doc: int = 2
    # serve: checkpoint trained in set-up, then closed-loop requests at k=5
    serve_train_docs: int = 10
    serve_train_lemmas_per_doc: int = 4
    serve_train_epochs: int = 4
    # Request file sizes in lemmas, equally often. The bundled corpus and
    # generate_synthetic_corpus's default have 10 lemmas per file; the mix is
    # centred there and spans 1 to 20. The first reply, checked in-process,
    # is for a 10-lemma file.
    serve_file_sizes: tuple = (10, 1, 5, 15, 20)
    serve_files_per_size: int = 8  # distinct files per size: the rounds of requests
    # baseline_eval: evaluate --baseline on stmt+cst+ckt
    baseline_docs: int = 16
    baseline_lemmas_per_doc: int = 50
    # traced run: encoder length sweep on statement-only records
    sweep_batch: int = 16  # the training batch size
    sweep_repeats: int = 3


class CheckFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Sample:
    seconds: float
    records: int


@dataclass
class Counts:
    attempted: int = 0
    failed: int = 0


def _model_config(inputs: str, max_input_len: int) -> lmodel.ModelConfig:
    return lmodel.ModelConfig(
        inputs=lmodel.INPUT_CONFIGS[inputs], embed_dim=32, hidden_dim=64, max_input_len=max_input_len
    )


def _load_corpus(directory: Path, seed: int, n_docs: int, lemmas_per_doc: int):
    """Generate a corpus, load it, and split it by document."""
    shutil.rmtree(directory, ignore_errors=True)
    lcorpus.generate_synthetic_corpus(directory, seed=seed, n_docs=n_docs, lemmas_per_doc=lemmas_per_doc)
    documents = lcorpus.load_directory(directory)
    return documents, lcorpus.split_corpus(sorted(documents), seed=0)


class Workload:
    """One workload: set-up, the repeated operation, and its tracing.

    The operation comes in `parts` kinds, each on its own inputs; a round
    runs every part once. Timings are per round, so every round does the
    same mix of work, while each operation stays short enough to be
    rescaled on its own (see Meter). The base class traces in this
    process; ServeWorkload overrides that.
    """

    parts = 1

    def __init__(self, plan: Plan, seed: int, workdir: Path):
        self.plan = plan
        self.seed = seed
        self.workdir = workdir
        self.tracer: spans.Tracer | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, round_: int, part: int) -> Sample:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _timed(self, fn, *args, **kwargs):
        """Call fn with the tracer (if any) recording; return (result, seconds)."""
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False
        return result, seconds

    # Tracing: wrappers live in this process.

    def begin_trace(self) -> None:
        self.tracer = spans.Tracer()
        self.tracer.install()

    def reset_trace(self) -> None:
        self.tracer.spans.clear()

    def set_request(self, request_id: int) -> None:
        if self.tracer is not None:
            self.tracer.request = request_id

    def end_trace(self, samples) -> dict:
        tracer, self.tracer = self.tracer, None
        tracer.uninstall()
        return {"summary": spans.summarize(tracer.spans), "absent": tracer.absent}


# ---------------------------------------------------------------- train


class TrainWorkload(Workload):
    """`model.train` for a few epochs, one corpus per part; unit of work: one record-epoch."""

    def __init__(self, plan: Plan, seed: int, workdir: Path):
        super().__init__(plan, seed, workdir)
        self.parts = plan.train_corpora

    def setup(self) -> None:
        plan = self.plan
        self.corpora = [
            _load_corpus(
                self.workdir / f"train_corpus{part}", 1000 * self.seed + part,
                plan.train_docs, plan.train_lemmas_per_doc,
            )
            for part in range(self.parts)
        ]
        self.config = _model_config("stmt+ckt", 128)
        self.training = lmodel.TrainingConfig(
            epochs=TRAIN_EPOCHS, batch_size=16, seed=self.seed, learning_rate=3e-3
        )
        self.reference_losses: dict = {}

    def op(self, round_: int, part: int) -> Sample:
        documents, split = self.corpora[part]
        (checkpoint, epochs), seconds = self._timed(
            lmodel.train, documents, split, self.config, self.training
        )
        losses = [m.train_loss for m in epochs]
        if len(losses) != TRAIN_EPOCHS or not all(math.isfinite(x) for x in losses):
            raise CheckFailed(f"expected {TRAIN_EPOCHS} finite epoch losses, got {losses}")
        if not losses[-1] < losses[0]:
            raise CheckFailed(f"loss did not fall from the first epoch to the last: {losses}")
        first = self.reference_losses.setdefault(part, losses)
        if losses != first:
            raise CheckFailed(f"same inputs, different losses: {losses} != {first}")
        path = self.workdir / "train.ckpt"
        lmodel.save_checkpoint(path, checkpoint)
        loaded = lmodel.load_checkpoint(path)
        same = (
            loaded.config == checkpoint.config
            and loaded.chop_config == checkpoint.chop_config
            and loaded.lexicon == checkpoint.lexicon
            and loaded.vocabularies == checkpoint.vocabularies
            and loaded.parameter_state.keys() == checkpoint.parameter_state.keys()
            and all(
                np.array_equal(loaded.parameter_state[name], value)
                for name, value in checkpoint.parameter_state.items()
            )
        )
        if not same:
            raise CheckFailed("checkpoint changed in a save/load round trip")
        return Sample(seconds, len(lcorpus.ordered_records(documents, split.train)) * TRAIN_EPOCHS)


# ---------------------------------------------------------------- serve


def _frame(payload: dict) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body


class ServerProcess:
    """`lemname serve` in a child process, spoken to over its stdio."""

    TIMEOUT_S = 150.0  # kill a server that stops answering

    def __init__(self, workdir: Path, checkpoint: Path, k: int, spans_out: Path | None):
        env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
        self.log = open(workdir / "server.log", "ab")
        argv = [
            sys.executable,
            str(HERE / "serve_child.py"),
            str(HERE.parent / "src"),
            "-" if spans_out is None else str(spans_out),
            "serve", "--model", str(checkpoint), "-k", str(k), "--project", str(workdir),
        ]
        self.proc = subprocess.Popen(
            argv, cwd=workdir, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log
        )
        self.watchdog = threading.Timer(self.TIMEOUT_S, self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        self.next_id = 0
        self.intervals: list = []  # (send, receive) perf_counter of every request

    def request(self, method: str, params=None) -> tuple:
        """Send one request; return (request id, reply, round-trip seconds)."""
        request_id = self.next_id
        self.next_id += 1
        message = {"jsonrpc": "2.0", "id": request_id, "method": method}
        if params is not None:
            message["params"] = params
        frame = _frame(message)
        start = time.perf_counter()
        self.proc.stdin.write(frame)
        self.proc.stdin.flush()
        body = self._read_body()
        end = time.perf_counter()
        self.intervals.append((start, end))
        return request_id, json.loads(body), end - start

    def _read_body(self) -> bytes:
        stdout = self.proc.stdout
        length = None
        while True:
            line = stdout.readline()
            if not line:
                raise CheckFailed("server closed its output")
            line = line.rstrip(b"\r\n")
            if not line:
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        if length is None:
            raise CheckFailed("reply frame without Content-Length")
        body = stdout.read(length)
        if len(body) != length:
            raise CheckFailed("truncated reply")
        return body

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark since it exec'd."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        (line,) = [line for line in status.splitlines() if line.startswith("VmHWM:")]
        return int(line.split()[1]) / 1024.0

    def close(self) -> None:
        """Shut the server down and wait until it has exited."""
        try:
            if self.proc.poll() is None:
                self.request("shutdown")
                self.proc.stdin.write(_frame({"jsonrpc": "2.0", "method": "exit"}))
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, ValueError, CheckFailed, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.watchdog.cancel()
            for stream in (self.proc.stdin, self.proc.stdout, self.log):
                if not stream.closed:
                    stream.close()


class ServeWorkload(Workload):
    """Closed-loop suggestNaming requests, one file size per part; unit of work: one lemma."""

    def __init__(self, plan: Plan, seed: int, workdir: Path):
        super().__init__(plan, seed, workdir)
        self.parts = len(plan.serve_file_sizes)
        self.server: ServerProcess | None = None
        self.checkpoint_bytes = None
        self.spans_out = None

    def setup(self) -> None:
        plan = self.plan
        self._stop_server()
        documents, split = _load_corpus(
            self.workdir / "serve_train", SERVE_MODEL_SEED,
            plan.serve_train_docs, plan.serve_train_lemmas_per_doc,
        )
        training = lmodel.TrainingConfig(
            epochs=plan.serve_train_epochs, batch_size=16, seed=SERVE_MODEL_SEED, learning_rate=1e-2
        )
        checkpoint, _ = lmodel.train(documents, split, _model_config("stmt+ckt", 128), training)
        self.checkpoint = self.workdir / "serve.ckpt"
        lmodel.save_checkpoint(self.checkpoint, checkpoint)
        self.by_size = []
        for index, size in enumerate(plan.serve_file_sizes):
            directory = self.workdir / "requests" / f"{index:02d}"
            shutil.rmtree(directory, ignore_errors=True)
            paths = lcorpus.generate_synthetic_corpus(
                directory, seed=100 * self.seed + 1 + index,
                n_docs=plan.serve_files_per_size, lemmas_per_doc=size,
            )
            self.by_size.append(paths)
        self._start_server(None)
        data = self.checkpoint.read_bytes()
        if self.checkpoint_bytes is None:
            self.checkpoint_bytes = data
        elif data != self.checkpoint_bytes:
            raise CheckFailed("same training inputs, different checkpoint bytes across set-ups")
        self.replies: dict = {}
        self.in_process_checked = False

    def _start_server(self, spans_out: Path | None) -> None:
        self._stop_server()
        self.server = ServerProcess(self.workdir, self.checkpoint, SERVE_K, spans_out)
        _, reply, _ = self.server.request("initialize", {})
        if not isinstance(reply.get("result"), dict) or "capabilities" not in reply["result"]:
            raise CheckFailed(f"bad initialize reply: {reply}")

    def _stop_server(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def op(self, round_: int, part: int) -> Sample:
        files = self.by_size[part]
        path, size = files[round_ % len(files)], self.plan.serve_file_sizes[part]
        request_id, reply, seconds = self.server.request(ldiag.SUGGEST_METHOD, {"uri": path.as_uri()})
        if reply.get("id") != request_id or "error" in reply or not isinstance(reply.get("result"), list):
            raise CheckFailed(f"request {request_id}: not a result with a matching id: {reply}")
        result = reply["result"]
        if len(result) > size:
            raise CheckFailed(f"request {request_id}: {len(result)} diagnostics for {size} lemmas")
        if not self.in_process_checked:
            self.in_process_checked = True
            model = lmodel.load_checkpoint(self.checkpoint).to_model()
            # The server's own reply code, run in-process; it calls
            # cli.build_suggestion_report, as the CLI does.
            expected = ldiag.DiagnosticServer(model, SERVE_K).diagnostics(path.as_uri())
            if result != json.loads(json.dumps(expected)):
                raise CheckFailed(f"request {request_id}: reply differs from the in-process report")
        first = self.replies.setdefault(path, result)
        if result != first:
            raise CheckFailed(f"request {request_id}: reply for {path.name} changed between requests")
        return Sample(seconds, size)

    def close(self) -> None:
        self._stop_server()

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    # Tracing: wrappers live in a fresh, traced server process.

    def begin_trace(self) -> None:
        self.spans_out = self.workdir / "server-spans.json"
        self._start_server(self.spans_out)

    def reset_trace(self) -> None:
        self.server.intervals.clear()

    def set_request(self, request_id: int) -> None:
        pass

    def end_trace(self, samples) -> dict:
        # Only the parts of server spans inside the client's round trips
        # count: between requests the server waits in read_message while
        # the client checks replies and times its reference work.
        requests = spans.Intervals(self.server.intervals)
        self._stop_server()
        child_spans, absent = spans.load_dump(self.spans_out)
        handle_s = sum(
            requests.overlap(span[1], span[2])
            for span in child_spans
            if span is not None and span[0] == spans.REQUEST_BOUNDARY
        )
        round_trip_s = sum(sample.seconds for sample in samples)
        return {
            "summary": spans.summarize(child_spans, within=requests),
            "absent": absent,
            "client_wait_pct": 100.0 * (round_trip_s - handle_s) / round_trip_s,
        }


# -------------------------------------------------------- baseline_eval


class BaselineWorkload(Workload):
    """`lemname evaluate --baseline`; unit of work: one corpus record."""

    METRICS = ("bleu4", "fragment_accuracy", "top1", "top5")

    def setup(self) -> None:
        plan = self.plan
        self.data = self.workdir / "baseline_corpus"
        shutil.rmtree(self.data, ignore_errors=True)
        lcorpus.generate_synthetic_corpus(
            self.data, seed=self.seed, n_docs=plan.baseline_docs, lemmas_per_doc=plan.baseline_lemmas_per_doc
        )
        docs = plan.baseline_docs
        test_docs = docs - int(docs * 0.8) - int(docs * 0.1)
        self.expected_rows = test_docs * plan.baseline_lemmas_per_doc
        self.records = docs * plan.baseline_lemmas_per_doc
        self.report = self.workdir / "baseline-report.jsonl"
        self.reference_report = None

    def op(self, round_: int, part: int) -> Sample:
        argv = [
            "evaluate", "--data", str(self.data), "--baseline", "--config-name", "stmt+cst+ckt",
            "-k", "5", "--project", str(self.workdir), "--report", str(self.report),
        ]
        with redirect_stdout(StringIO()):
            code, seconds = self._timed(lcli.main, argv)
        if code != 0:
            raise CheckFailed(f"evaluate --baseline exited {code}")
        text = self.report.read_text(encoding="utf-8")
        rows = [json.loads(line) for line in text.splitlines()]
        lemmas = [row for row in rows if not row.get("aggregate")]
        if len(lemmas) != self.expected_rows or len(rows) != self.expected_rows + 1:
            raise CheckFailed(f"report has {len(lemmas)} lemma rows, expected {self.expected_rows}")
        for row in rows:
            for metric in self.METRICS:
                value = row.get(metric)
                if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                    raise CheckFailed(f"{metric} = {value!r} is not in [0, 1]")
        if self.reference_report is None:
            self.reference_report = text
        elif text != self.reference_report:
            raise CheckFailed("same inputs, different evaluation report")
        return Sample(seconds, self.records)


WORKLOADS = {
    "train": TrainWorkload,
    "serve": ServeWorkload,
    "baseline_eval": BaselineWorkload,
}


# --------------------------------------------------------------- sweep


def length_sweep(plan: Plan, seed: int) -> dict:
    """Forward (`model.loss`) and `nn.backward` ms per encoder step by length.

    Statement-only records whose tokens are single sub-tokens, so the
    encoder runs exactly T steps per record.
    """
    rng = random.Random(seed)
    words = sorted(lcorpus.DEFAULT_OPERATIONS)
    vocabularies = {
        lmodel.STREAM_STATEMENT: lcorpus.Vocabulary(words),
        "output": lcorpus.Vocabulary(words),
    }
    config = lmodel.ModelConfig(
        inputs=(lmodel.STREAM_STATEMENT,), embed_dim=32, hidden_dim=64,
        max_input_len=max(SWEEP_LENGTHS),
    )
    model = lmodel.LemmaNameModel(config, ChopConfig(), DEFAULT_LEXICON, vocabularies, seed=seed)
    out = {}
    for length in SWEEP_LENGTHS:
        records = [
            lcorpus.LemmaRecord(
                name=rng.choice(words),
                module_path=("sweep",),
                statement_tokens=tuple(rng.choice(words) for _ in range(length)),
                syntax_tree=(),
                kernel_tree=(),
                source=lcorpus.SourceLocation(file="sweep.v", line=index + 1),
            )
            for index in range(plan.sweep_batch)
        ]
        forward, backward = [], []
        for _ in range(plan.sweep_repeats):
            start = time.perf_counter()
            loss = model.loss(records)
            middle = time.perf_counter()
            lnn.backward(loss, model.parameters)
            forward.append(middle - start)
            backward.append(time.perf_counter() - middle)
        out[f"model.loss.ms_per_step.T{length}"] = 1000.0 * statistics.median(forward) / length
        out[f"nn.backward.ms_per_step.T{length}"] = 1000.0 * statistics.median(backward) / length
    return out


# -------------------------------------------------------------- runner


# Median time of `reference_work` on the machine the quoted figures come
# from: 2 vCPUs (x86-64), Python 3.11, numpy 2.4, one BLAS thread.
REFERENCE_MS = 3.0


def reference_work() -> None:
    """Fixed work in the program's own mix: an interpreted loop and small numpy ops."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    a = np.full((16, 32), 0.5)
    w = np.full((32, 32), 0.01)
    for _ in range(200):
        a = np.tanh(a @ w + 0.1) * 0.9


class Meter:
    """Counts attempts and rescales each timing to the reference speed.

    A shared machine changes speed by tens of percent from one second to
    the next. `reference_work` is timed just before and just after each
    operation; the operation's time times REFERENCE_MS over the median of
    those reference times is its time at the reference speed. The
    machine's drift cancels; a change in the program's speed does not.
    """

    def __init__(self, repeats: int):
        self.counts = Counts()
        self.repeats = repeats
        self.scales: list = []
        self._last: list = []

    def _reference(self) -> list:
        out = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            reference_work()
            out.append(time.perf_counter() - start)
        return out

    def attempt(self, fn, what: str):
        """Run fn() as one attempted operation; return (result, scale) or None if it failed."""
        before = self._last or self._reference()
        self.counts.attempted += 1
        try:
            result = fn()
        except CheckFailed as err:
            print(f"{what} check failed: {err}", file=sys.stderr)
            result = None
        except Exception as err:  # a crashing operation is a failed one; keep measuring
            print(f"{what} failed: {type(err).__name__}: {err}", file=sys.stderr)
            result = None
        finally:
            self._last = self._reference()
        if result is None:
            self.counts.failed += 1
            return None
        scale = REFERENCE_MS / (1000.0 * statistics.median(before + self._last))
        self.scales.append(scale)
        return result, scale


@dataclass
class Result:
    counts: Counts
    metrics: dict  # name -> value
    notes: list = field(default_factory=list)


def _rounds(workload: Workload, meter: Meter, what: str, seconds: float = 0.0) -> list:
    """Run rounds of the operation until `seconds` have passed (at least one round).

    Returns (round, sample, scale) triples of the operations that passed their checks.
    """
    samples: list = []
    deadline = time.perf_counter() + seconds
    round_ = 0
    while True:
        for part in range(workload.parts):
            workload.set_request(round_ * workload.parts + part)
            outcome = meter.attempt(functools.partial(workload.op, round_, part), what)
            if outcome is not None:
                samples.append((round_, *outcome))
        round_ += 1
        if time.perf_counter() >= deadline:
            return samples


def _setup(workload: Workload, plan: Plan, meter: Meter) -> list:
    """Set up at least `plan.setups` times and `plan.setup_seconds` long; scaled seconds."""

    def timed_setup() -> float:
        start = time.perf_counter()
        workload.setup()
        return time.perf_counter() - start

    times: list = []
    attempts = 0
    started = time.perf_counter()
    while attempts < plan.setups or time.perf_counter() - started < plan.setup_seconds:
        attempts += 1
        outcome = meter.attempt(timed_setup, "set-up")
        if outcome is not None:
            seconds, scale = outcome
            times.append(seconds * scale)
    if not times:
        raise RuntimeError("every set-up failed; nothing to measure")
    return times


def _record_ms(samples, parts: int, scaled: bool = True) -> float:
    """Median over rounds of milliseconds per record, at the reference speed if `scaled`.

    Only rounds whose every part passed count, unless there are none.
    """
    rounds: dict = {}
    for round_, sample, scale in samples:
        rounds.setdefault(round_, []).append((sample.seconds * (scale if scaled else 1.0), sample.records))
    complete = [parts_ for parts_ in rounds.values() if len(parts_) == parts] or list(rounds.values())
    if not complete:
        raise RuntimeError("every operation failed; nothing to report")
    return statistics.median(
        1000.0 * sum(seconds for seconds, _ in parts_) / sum(records for _, records in parts_)
        for parts_ in complete
    )


def _per_layer(trace: dict, traced, untraced, parts: int) -> dict:
    summary = trace["summary"]
    records = sum(s.records for _, s, _ in traced)
    wall_s = sum(s.seconds for _, s, _ in traced)
    out = {}
    for boundary in spans.BOUNDARIES:
        out[f"{boundary.name}.calls"] = summary.calls.get(boundary.name, 0) / records
        out[f"{boundary.name}.self_pct"] = 100.0 * summary.self_s.get(boundary.name, 0.0) / wall_s
    for name in spans.DISTINCT_KEYS:
        calls = summary.calls.get(name, 0)
        out[f"{name}.distinct_share"] = len(summary.distinct.get(name, ())) / calls if calls else 0.0
    out["serve.client_wait_pct"] = trace.get("client_wait_pct", 0.0)
    out["trace.record_ms"] = _record_ms(traced, parts)
    out["trace.overhead_pct"] = 100.0 * (out["trace.record_ms"] / _record_ms(untraced, parts) - 1.0)
    return out


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, plan: Plan = Plan()) -> Result:
    """Set up, warm up, measure; the traced variant also traces and sweeps."""
    workload = WORKLOADS[name](plan, seed, workdir)
    meter = Meter(REFERENCE_REPEATS)
    notes = []
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = _setup(workload, plan, meter)
        _rounds(workload, meter, "warm-up")  # includes the one-off checks
        if not trace:
            samples = _rounds(workload, meter, "operation", seconds)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "record_ms": _record_ms(samples, workload.parts),
                "peak_rss_mb": workload.peak_rss_mb(),
            }
            raw_ms = _record_ms(samples, workload.parts, scaled=False)
            notes.append(
                f"{len(samples)} timed operations in {samples[-1][0] + 1 if samples else 0} rounds, "
                f"{sum(s.records for _, s, _ in samples)} records"
            )
            notes.append(
                f"times are at the reference speed; measured record_ms {raw_ms:.4f}, "
                f"median speed scale {statistics.median(meter.scales):.4f}"
            )
        else:
            untraced = _rounds(workload, meter, "operation", seconds / 2)
            workload.begin_trace()
            _rounds(workload, meter, "warm-up")  # of the traced process
            workload.reset_trace()
            traced = _rounds(workload, meter, "operation", seconds / 2)
            trace_data = workload.end_trace([s for _, s, _ in traced])
            metrics = _per_layer(trace_data, traced, untraced, workload.parts)
            metrics.update(length_sweep(plan, seed))
            if trace_data["absent"]:
                notes.append("absent boundaries: " + ", ".join(trace_data["absent"]))
            notes.append(f"{len(untraced)} untraced and {len(traced)} traced operations")
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return Result(counts=meter.counts, metrics=metrics, notes=notes)


def tiny_plan() -> Plan:
    """The smallest plan that still exercises every check (for self-tests)."""
    return replace(
        Plan(),
        setups=1,
        setup_seconds=0.0,
        train_corpora=2,
        train_docs=5,
        train_lemmas_per_doc=4,
        serve_train_docs=5,
        serve_train_lemmas_per_doc=3,
        serve_train_epochs=2,
        serve_file_sizes=(2, 1),
        serve_files_per_size=2,
        baseline_docs=5,
        baseline_lemmas_per_doc=4,
        sweep_batch=1,
        sweep_repeats=1,
    )
