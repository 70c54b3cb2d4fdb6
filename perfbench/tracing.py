"""Spans and counters for the benchmark's traced run.

Hooks wrap the library's entry points from outside: for the length of the
run each target attribute is replaced by a timing wrapper, and the model
handed to the decoder is a proxy that times the model interface. A hook
whose target is missing or whose leading parameters changed is skipped, and
the metrics of its layer are reported as absent instead of failing the run.
The untraced run never imports this module.

A span is (name, start, end, parent, stream id). Self time is a span's
duration minus the time covered by its direct children. Spans are kept in
memory (the first ``SPAN_LIMIT`` of them; aggregates cover all) and written
out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

SPAN_LIMIT = 100_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.count: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.stack: list[list] = []  # [name id, start, child time, stored index]
        self.stream = -1
        self.dropped = 0
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_stream = array("i")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def enter(self, nid: int) -> None:
        index = -1
        if len(self.span_name) < SPAN_LIMIT:
            index = len(self.span_name)
            self.span_name.append(nid)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(self.stack[-1][3] if self.stack else -1)
            self.span_stream.append(self.stream)
        else:
            self.dropped += 1
        start = perf_counter()
        if index >= 0:
            self.span_start[index] = start
        self.stack.append([nid, start, 0.0, index])

    def exit(self) -> None:
        end = perf_counter()
        nid, start, child, index = self.stack.pop()
        duration = end - start
        self.count[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if index >= 0:
            self.span_end[index] = end

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit()

    def stat(self, name: str) -> tuple[int, float, float]:
        """(count, inclusive seconds, self seconds) over every span of ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.count[nid], self.total[nid], self.self_time[nid]

    def spans(self) -> list[dict]:
        return [
            {"name": self.names[self.span_name[i]], "start": self.span_start[i], "end": self.span_end[i],
             "parent": self.span_parent[i], "stream": self.span_stream[i]}
            for i in range(len(self.span_name))
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans():
                f.write(json.dumps(span) + "\n")


# what a counter raises when the arguments or results it reads changed shape
COUNTER_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def timed(tracer: Tracer, name: str, fn: Callable, before=None, after=None,
          on_error: Callable = lambda exc: None) -> Callable:
    """Wrap ``fn`` in a span; ``before(args, kwargs)`` returns a context for
    ``after(args, kwargs, result, context)``, which updates counters. A
    counter that fails is reported to ``on_error`` and never fails the call."""
    nid = tracer.name_id(name)
    enter, leave = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        ctx = None
        if before is not None:
            try:
                ctx = before(args, kwargs)
            except COUNTER_ERRORS as exc:
                on_error(exc)
        enter(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            leave()
        if after is not None:
            try:
                after(args, kwargs, out, ctx)
            except COUNTER_ERRORS as exc:
                on_error(exc)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _leading_params(fn) -> tuple[str, ...]:
    return tuple(inspect.signature(fn).parameters)


@dataclass(frozen=True)
class Hook:
    span: str
    layer: str
    module: str
    attr: str  # "function" or "Class.method"
    params: tuple[str, ...]  # the leading parameters the counters rely on


STEP_PARAMS = ("model", "beam", "buffer", "buffer_complete", "cfg")
HOOKS = (
    Hook("streamer.push", "streamer", "silstream.streamer", "StreamSession.push", ("self", "frames", "is_last")),
    Hook("decoder.decode_step", "streamer", "silstream.streamer", "decode_step", STEP_PARAMS),
    Hook("decoder.decode_step", "decoder", "silstream.decoder", "decode_step", STEP_PARAMS),
    Hook("decoder.append", "decoder", "silstream.decoder", "EncodedBuffer.append", ("self", "encoded")),
    Hook("attention.mocha_infer_step", "attention", "silstream.model", "mocha_infer_step",
         ("params", "cfg", "query", "frames", "state", "force")),
    Hook("attention.energies", "attention", "silstream.trainer", "energies", ("params", "kind", "query", "keys")),
    Hook("attention.soft_step", "attention", "silstream.trainer", "soft_step", ("p", "u", "alpha_prev", "chunk_size")),
    Hook("nn.gru_step", "nn", "silstream.nn", "gru_step", ("params", "prefix", "x", "h")),
    Hook("encoder.encode_with_cache", "encoder", "silstream.trainer", "encode_with_cache", ("params", "cfg", "frames")),
    Hook("encoder.encode_backward", "encoder", "silstream.trainer", "encode_backward", ("params", "cfg", "cache")),
    Hook("trainer.forward_loss", "trainer", "silstream.trainer", "forward_loss",
         ("cfg", "params", "features", "reference")),
    Hook("trainer.backward", "trainer", "silstream.trainer", "backward", ("cfg", "params", "cache")),
    Hook("synth.gen_corpus", "synth", "silstream.synth", "gen_corpus", ("cfg", "spec", "seed")),
    Hook("synth.oracle_build", "synth", "silstream.synth", "OracleModel", ("mode", "vocab", "alignment")),
)
PROXY_PARAMS = {
    "encoder_push": ("enc_state", "frames"),
    "encoder_finish": ("enc_state",),
    "decode_step": ("dec_state", "prev_token", "frames", "att_state", "buffer_complete"),
}
NOT_PER_PASS = frozenset({
    "encoder.us_per_frame", "attention.key_rows_per_call", "model.stalled_frac", "decoder.hyps_per_step",
    "decoder.token_cost_growth", "streamer.step_yield", "streamer.buffer_frames_max",
    "streamer.commit_lag_ms_p50", "synth.corpus_s", "synth.oracle_build_s",
})


class Probe:
    """Installs the hooks, keeps the counters and derives per-layer metrics."""

    def __init__(self, hooks=HOOKS):
        self.tracer = Tracer()
        self.hooks = hooks
        self.c: Counter = Counter()
        self.absent: set[str] = set()
        self.problems: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._last_beam = None  # the beam the streamer's latest step returned
        self.stream_lags: list[float] = []

    # --- installing ---

    def install(self) -> None:
        for hook in self.hooks:
            try:
                owner = importlib.import_module(hook.module)
                *path, attr = hook.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                target = getattr(owner, attr)
                params = _leading_params(target)
            except (ImportError, AttributeError, TypeError, ValueError) as exc:
                self._missing(hook.layer, f"{hook.module}.{hook.attr}: {exc}")
                continue
            if params[: len(hook.params)] != hook.params:
                self._missing(hook.layer, f"{hook.module}.{hook.attr}: parameters {params}")
                continue
            before, after = self._callbacks(hook)
            # None marks an attribute inherited from a base class: uninstall deletes the wrapper
            self._restore.append((owner, attr, vars(owner).get(attr)))
            on_error = functools.partial(self._counter_failed, hook.layer, hook.span)
            setattr(owner, attr, timed(self.tracer, hook.span, target, before, after, on_error))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _counter_failed(self, layer: str, span: str, exc: Exception) -> None:
        self._missing(layer, f"{span}: counters no longer fit: {exc!r}")

    def _missing(self, layer: str, why: str) -> None:
        self.absent.add(layer)
        if why not in self.problems:
            self.problems.append(why)

    def _callbacks(self, hook: Hook):
        c = self.c
        if hook.span == "streamer.push":
            def after(args, kwargs, out, ctx):
                if self._last_beam is not None and args[0].beam is self._last_beam:
                    c["streamer.steps_kept"] += 1
                self._last_beam = None
            return None, after
        if hook.span == "decoder.decode_step":
            def before(args, kwargs):
                beam = _arg(args, kwargs, 1, "beam")
                c["decoder.steps"] += 1
                c["decoder.live_hyps"] += sum(1 for h in beam if not h.finished)
                if hook.layer == "streamer":
                    c["streamer.steps_computed"] += 1
                    # a step was kept iff the session fed its beam to the next step
                    if self._last_beam is not None and beam is self._last_beam:
                        c["streamer.steps_kept"] += 1
            after = None
            if hook.layer == "streamer":
                def after(args, kwargs, out, ctx):
                    self._last_beam = out[0]
            return before, after
        if hook.span == "decoder.append":
            def before(args, kwargs):
                return _data_pointer(args[0])

            def after(args, kwargs, out, ctx):
                encoded = _arg(args, kwargs, 1, "encoded")
                if encoded.size:
                    # a moved buffer means everything was copied, else only the new rows
                    moved = _data_pointer(args[0]) != ctx
                    c["decoder.append_bytes_copied"] += args[0].array.nbytes if moved else encoded.nbytes
            return before, after
        if hook.span == "attention.mocha_infer_step":
            def after(args, kwargs, out, ctx):
                n = _arg(args, kwargs, 3, "frames").shape[0]
                start = max(_arg(args, kwargs, 4, "state").prev_index, 0)
                selected = out.status == "selected" and not out.forced
                c["attention.key_rows"] += (n - start if start < n else 0) + (n if selected else 0)
                c["attention.projections"] += 1 + selected
                c["attention.exhausted"] += out.status == "exhausted"
                c["attention.forced"] += bool(out.forced)
            return None, after
        if hook.span == "attention.energies":
            def after(args, kwargs, out, ctx):
                c["attention.key_rows"] += _arg(args, kwargs, 3, "keys").shape[0]
                c["attention.projections"] += 1
            return None, after
        if hook.span == "encoder.encode_with_cache":
            def after(args, kwargs, out, ctx):
                c["encoder.frames_in"] += len(_arg(args, kwargs, 2, "frames"))
                c["encoder.frames_out"] += out[0].shape[0]
            return None, after
        if hook.span == "trainer.forward_loss":
            def after(args, kwargs, out, ctx):
                c["trainer.utts"] += 1
                c["trainer.dec_steps"] += len(_arg(args, kwargs, 3, "reference")) - 1
            return None, after
        return None, None

    # --- the workload observer interface ---

    def wrap_model(self, model):
        return ModelProxy(model, self)

    @contextlib.contextmanager
    def op(self, kind: str, stream_id: int):
        self.tracer.stream = stream_id
        try:
            with self.tracer.span(f"bench.{kind}"):
                yield
        finally:
            self.tracer.stream = -1

    def stream_done(self, stream_id: int, session, result) -> None:
        """Streamer counters the session and its result already hold."""
        if "streamer" in self.absent:
            return
        c = self.c
        try:
            c["streamer.steps_voided"] += len(session.backtracks)
            for record in session.trace:
                c[f"streamer.decisions.{record['decision']}"] += 1
                c["streamer.buffer_frames_max"] = max(c["streamer.buffer_frames_max"], record["buffer_len"])
            c["streamer.display_tokens"] += sum(len(shown) for _, shown in result.display_log)
            c["streamer.forced_emissions"] += sum(1 for em in result.emissions if em.forced)
            frame_ms = session.frame_shift_ms * session.model.total_reduction
            self.stream_lags.extend(
                em.clock_ms - (em.selected_index + 1) * frame_ms for em in result.emissions
            )
        except (AttributeError, KeyError, TypeError) as exc:
            self._missing("streamer", f"session or result fields changed: {exc!r}")

    # --- per-layer metrics ---

    def layer_metrics(self, rec, setups: int) -> dict[str, float]:
        """Every per-layer metric whose layer was fully hooked.

        Counts and busy times are per pass over the workload; ratios, levels
        and the per-setup ``synth`` times are not.
        """
        c = self.c

        def count(name: str) -> int:
            return self.tracer.stat(name)[0]

        def total(name: str) -> float:
            return self.tracer.stat(name)[1]

        def own(name: str) -> float:
            return self.tracer.stat(name)[2]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        enc_spans = ("model.encoder_push", "model.encoder_finish", "encoder.encode_with_cache",
                     "encoder.encode_backward")
        att_spans = ("attention.mocha_infer_step", "attention.energies", "attention.soft_step")
        enc_busy = sum(total(n) for n in enc_spans)
        computed = c["streamer.steps_computed"]
        m = {
            "encoder.calls": sum(count(n) for n in enc_spans),
            "encoder.frames_in": c["encoder.frames_in"],
            "encoder.frames_out": c["encoder.frames_out"],
            "encoder.busy_s": enc_busy,
            "encoder.us_per_frame": ratio(enc_busy * 1e6, c["encoder.frames_in"]),
            "attention.calls": sum(count(n) for n in att_spans),
            "attention.busy_s": sum(total(n) for n in att_spans),
            "attention.key_rows": c["attention.key_rows"],
            "attention.key_rows_per_call": ratio(c["attention.key_rows"], c["attention.projections"]),
            "attention.exhausted": c["attention.exhausted"],
            "attention.forced": c["attention.forced"],
            "model.calls": count("model.decode_step"),
            "model.busy_s": own("model.decode_step"),
            "model.stalled_frac": ratio(c["model.stalled"], count("model.decode_step")),
            "nn.gru_calls": count("nn.gru_step"),
            "nn.gru_busy_s": own("nn.gru_step"),
            "decoder.steps": c["decoder.steps"],
            "decoder.busy_s": own("decoder.decode_step") + own("decoder.append"),
            "decoder.hyps_per_step": ratio(c["decoder.live_hyps"], c["decoder.steps"]),
            "decoder.append_s": total("decoder.append"),
            "decoder.append_bytes_copied": c["decoder.append_bytes_copied"],
            "decoder.token_cost_growth": token_cost_growth(rec),
            "streamer.pushes": count("streamer.push"),
            "streamer.busy_s": own("streamer.push"),
            "streamer.steps_computed": computed,
            "streamer.steps_kept": c["streamer.steps_kept"],
            "streamer.steps_voided": c["streamer.steps_voided"],
            "streamer.step_yield": ratio(computed - c["streamer.steps_voided"], computed),
            "streamer.decisions.no-decode": c["streamer.decisions.no-decode"],
            "streamer.decisions.committed": c["streamer.decisions.committed"],
            "streamer.decisions.backtrack": c["streamer.decisions.backtrack"],
            "streamer.forced_emissions": c["streamer.forced_emissions"],
            "streamer.buffer_frames_max": c["streamer.buffer_frames_max"],
            "streamer.display_tokens": c["streamer.display_tokens"],
            "streamer.commit_lag_ms_p50": statistics.median(self.stream_lags) if self.stream_lags else 0.0,
            "trainer.forward_s": total("trainer.forward_loss"),
            "trainer.backward_s": total("trainer.backward"),
            # everything train() does outside forward and backward: batching,
            # gradient accumulation and the parameter update
            "trainer.update_s": own("bench.epoch"),
            "trainer.utts": c["trainer.utts"],
            "trainer.dec_steps": c["trainer.dec_steps"],
            "synth.corpus_s": ratio(total("synth.gen_corpus"), setups),
            "synth.oracle_build_s": ratio(total("synth.oracle_build"), setups),
        }
        # runs repeat whole passes for a fixed time, so totals are reported per pass
        passes = max(rec.passes, 1)
        return {k: float(v if k in NOT_PER_PASS else v / passes) for k, v in m.items()
                if k.split(".")[0] not in self.absent}


UNITS = {
    "busy_s": "s", "append_s": "s", "gru_busy_s": "s", "forward_s": "s", "backward_s": "s",
    "update_s": "s", "corpus_s": "s", "oracle_build_s": "s", "us_per_frame": "us",
    "append_bytes_copied": "bytes", "commit_lag_ms_p50": "ms", "stalled_frac": "frac",
    "step_yield": "frac", "overhead_frac": "frac", "token_cost_growth": "ratio",
    "hyps_per_step": "hyps", "key_rows_per_call": "rows", "key_rows": "rows", "frames_in": "frames",
    "frames_out": "frames", "buffer_frames_max": "frames", "display_tokens": "tokens",
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "count")


def token_cost_growth(rec) -> float:
    """Streamed wall time per decoded token on the longest streams divided by
    the same on the shortest; 1.0 means per-token cost does not grow."""
    by_length: dict[float, list[float]] = {}
    for s in rec.streams:
        by_length.setdefault(s.seconds, []).append(sum(s.push_s) / s.n_tokens)
    if len(by_length) < 2:
        return 0.0
    return statistics.median(by_length[max(by_length)]) / statistics.median(by_length[min(by_length)])


def _data_pointer(buffer) -> int:
    return buffer.array.__array_interface__["data"][0]


class ModelProxy:
    """Times the model interface the decoder and streamer call."""

    def __init__(self, model, probe: Probe):
        self._model = model
        c = probe.c
        for method, params in PROXY_PARAMS.items():
            target = getattr(model, method, None)
            layer = "model" if method == "decode_step" else "encoder"
            try:
                ok = target is not None and _leading_params(target)[: len(params)] == params
            except (TypeError, ValueError):
                ok = False
            if not ok:
                probe._missing(layer, f"model.{method}: missing or parameters changed")
                continue
            span = f"model.{method}"
            setattr(self, method, timed(probe.tracer, span, target, after=self._counter(c, method),
                                        on_error=functools.partial(probe._counter_failed, layer, span)))

    @staticmethod
    def _counter(c: Counter, method: str):
        if method == "decode_step":
            def after(args, kwargs, out, ctx):
                c["model.stalled"] += out.att.status == "exhausted"
            return after

        def after(args, kwargs, out, ctx):
            if method == "encoder_push":
                c["encoder.frames_in"] += _arg(args, kwargs, 1, "frames").shape[0]
            c["encoder.frames_out"] += out.shape[0]
        return after

    def __getattr__(self, name):
        return getattr(self._model, name)
