"""Error-rate and latency metrics, plus the buffer/beam sweep harness."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from .data import Alignment
from .decoder import BeamConfig
from .streamer import StreamConfig, stream_decode
from .synth import Utterance
from .vocab import Vocab, strip_nonscoring


@dataclass
class CerReport:
    """Edit-distance scoring with substitution/insertion/deletion breakdown."""

    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0
    ref_len: int = 0

    @property
    def edits(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def cer(self) -> float:
        return self.edits / max(self.ref_len, 1)

    @property
    def sub_rate(self) -> float:
        return self.substitutions / max(self.ref_len, 1)

    @property
    def ins_rate(self) -> float:
        return self.insertions / max(self.ref_len, 1)

    @property
    def del_rate(self) -> float:
        return self.deletions / max(self.ref_len, 1)

    def rates(self) -> dict[str, float]:
        """The error rates, as the sweep CSV and ``silstream evaluate`` name them."""
        return {"cer": self.cer, "sub_rate": self.sub_rate, "ins_rate": self.ins_rate, "del_rate": self.del_rate}

    def __add__(self, other: "CerReport") -> "CerReport":
        return CerReport(
            self.substitutions + other.substitutions,
            self.insertions + other.insertions,
            self.deletions + other.deletions,
            self.ref_len + other.ref_len,
        )


def cer(reference: list[int], hypothesis: list[int], vocab: Vocab) -> CerReport:
    """Minimal-edit alignment of the scoring tokens of both sequences.

    Both inputs are stripped of BOS/EOS/SIL first. Among minimal alignments
    the substitution-heavy one wins (a substitution is never reported as an
    insertion plus a deletion).
    """
    ref = strip_nonscoring(reference, vocab)
    hyp = strip_nonscoring(hypothesis, vocab)
    R, H = len(ref), len(hyp)
    # dp holds (edits, -substitutions) so lexicographic min prefers substitutions
    dp = [[(0, 0)] * (H + 1) for _ in range(R + 1)]
    for i in range(1, R + 1):
        dp[i][0] = (i, 0)
    for j in range(1, H + 1):
        dp[0][j] = (j, 0)
    for i in range(1, R + 1):
        for j in range(1, H + 1):
            sub_cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            diag = (dp[i - 1][j - 1][0] + sub_cost, dp[i - 1][j - 1][1] - sub_cost)
            dele = (dp[i - 1][j][0] + 1, dp[i - 1][j][1])
            ins = (dp[i][j - 1][0] + 1, dp[i][j - 1][1])
            dp[i][j] = min(diag, dele, ins)
    edits, subs = dp[R][H][0], -dp[R][H][1]
    # every alignment has insertions - deletions = H - R
    gaps = edits - subs
    return CerReport(substitutions=subs, insertions=(gaps + H - R) // 2, deletions=(gaps - H + R) // 2, ref_len=R)


@dataclass
class CplRecord:
    """Consumer-perceived latency of one utterance.

    Stabilization is the simulated stream clock at which the displayed best
    hypothesis last changed; latency is measured from the end of the final
    speech segment. Negative values (hypothesis settled before speech ended)
    are reported as-is. Utterances without any speech have no defined
    latency.
    """

    last_speech_end_ms: float = 0.0
    stabilization_ms: float = 0.0
    defined: bool = True

    @property
    def cpl_ms(self) -> float:
        return self.stabilization_ms - self.last_speech_end_ms


def cpl(
    display_log: list[tuple[float, tuple[int, ...]]],
    alignment: Alignment,
    frame_shift_ms: int = 10,
) -> CplRecord:
    last_speech = alignment.last_speech_end_frame()
    if last_speech is None:
        return CplRecord(defined=False)
    shown: tuple[int, ...] = ()
    stabilization = 0.0
    for clock, display in display_log:
        if display != shown:
            stabilization = clock
            shown = display
    return CplRecord(
        last_speech_end_ms=float(last_speech * frame_shift_ms),
        stabilization_ms=stabilization,
    )


def average_cpl(records: Iterable[CplRecord]) -> tuple[float, int]:
    """Mean CPL over defined records plus the count of undefined ones."""
    records = list(records)  # any iterable, a generator too
    defined = [r.cpl_ms for r in records if r.defined]
    return (sum(defined) / len(defined) if defined else math.nan), len(records) - len(defined)


SWEEP_COLUMNS = (
    "beam",
    "min_buffer_ms",
    "sil_buffer_ms",
    "batch_ms",
    "cer",
    "sub_rate",
    "ins_rate",
    "del_rate",
    "avg_cpl_ms",
    "undefined_cpl_count",
    "backtracks",
    "wall_ms",
)


def evaluate_point(
    utterances: dict[str, Utterance],
    model_for: Callable[[Utterance], object],
    stream_cfg: StreamConfig,
    beam_cfg: BeamConfig,
    simulated_clock: bool = True,
) -> dict:
    """Stream every utterance at one configuration and aggregate the metrics."""
    total = CerReport()
    cpls = []
    backtracks = 0
    wall = 0.0
    for utt_id in sorted(utterances):
        utt = utterances[utt_id]
        model = model_for(utt)
        result, session = stream_decode(model, utt.features, stream_cfg, beam_cfg)
        total = total + cer(utt.tokens, result.tokens, model.vocab)
        cpls.append(cpl(result.display_log, utt.alignment, utt.features.frame_shift_ms))
        backtracks += len(session.backtracks)
        wall += session.wall_ms
    avg, undefined = average_cpl(cpls)
    return {
        **total.rates(),
        "avg_cpl_ms": avg,
        "undefined_cpl_count": undefined,
        "backtracks": backtracks,
        "wall_ms": wall if not simulated_clock else 0.0,
    }


def sweep(
    utterances: dict[str, Utterance],
    model_for: Callable[[Utterance], object],
    beams: Iterable[int],
    min_buffers_ms: Iterable[float],
    sil_buffers_ms: Iterable[float | None],
    stream_cfg: StreamConfig,
    beam_cfg: BeamConfig,
    simulated_clock: bool = True,
) -> list[dict]:
    """Grid sweep; rows come back in deterministic grid order.

    A silence buffer of None is ``StreamConfig``'s unset one: the point's
    minimum buffer, which its row records. A failing grid point is marked
    failed, keeps its ``error`` and does not stop the sweep.
    """
    rows = []
    for beam in beams:
        for min_ms in min_buffers_ms:
            for sil_ms in sil_buffers_ms:
                row = {
                    "beam": beam,
                    "min_buffer_ms": min_ms,
                    "sil_buffer_ms": sil_ms,
                    "batch_ms": stream_cfg.batch_ms,
                    "failed": False,
                }
                try:
                    point_stream = replace(stream_cfg, min_buffer_ms=min_ms, sil_buffer_ms=sil_ms)
                    row["sil_buffer_ms"] = point_stream.sil_buffer_ms
                    point_beam = replace(beam_cfg, beam_size=beam)
                    row.update(
                        evaluate_point(utterances, model_for, point_stream, point_beam, simulated_clock)
                    )
                except Exception as exc:  # noqa: BLE001 - a bad grid point must not kill the sweep
                    row["failed"] = True
                    row["error"] = str(exc)
                rows.append(row)
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def sweep_csv(rows: list[dict]) -> str:
    """One line per row; a failed row has "nan" in the columns it lacks or holds None in."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join("nan" if row.get(c) is None else _fmt(row[c]) for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"
