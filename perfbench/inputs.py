"""Seeded workload inputs and the single-process oracle they are checked
against.

Inputs depend only on the seed: synthetic utterances of 20–60 phones,
each held 4–10 frames (about 1.4–4.2 s of speech, 10 ms frames), either
as log-mel features or rendered to raw 16 kHz audio.  The oracle decodes
every utterance on its own, offline, in this process:
``log_mel_spectrogram`` (audio inputs) → ``ModelPlan.forward_utterance``
→ ``decode_utterance``.  It also works out which client chunk *settles*
each phone — the chunk whose frames make ``IncrementalDecoder`` commit
it — by pushing the oracle's frame labels through a decoder chunk by
chunk.  Phone latency is measured from that chunk.  All of this runs
before the timed phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.speech.decoder import IncrementalDecoder, decode_utterance
from repro.speech.features import FeatureConfig, log_mel_spectrogram
from repro.speech.synth import SynthConfig, make_dataset, synth_waveform

SYNTH = SynthConfig(min_phones=20, max_phones=60, min_duration=4, max_duration=10)
FEATURES = FeatureConfig()
#: One client piece of live audio: 250 ms at 16 kHz.
PIECE_SAMPLES = 4000
PIECE_S = PIECE_SAMPLES / FEATURES.sample_rate
#: Feature chunk a fabric client feeds: 250 ms of 10 ms frames.
CHUNK_FRAMES = 25
MIN_DURATION = 2


@dataclass
class Utterance:
    """One input with its oracle decode and per-phone settling chunk."""

    features: np.ndarray  # (T, num_mels): model input, or the oracle's
    audio: Optional[np.ndarray]  # raw samples for audio workloads
    chunk_frames: List[int]  # frames each client chunk carries
    hypothesis: List[int]  # oracle phones
    settle: List[int]  # per oracle phone: the chunk that commits it

    @property
    def audio_s(self) -> float:
        if self.audio is not None:
            return len(self.audio) / FEATURES.sample_rate
        return len(self.features) * FEATURES.hop_length / FEATURES.sample_rate


def feature_utterances(count: int, seed: int) -> List[np.ndarray]:
    """``count`` feature utterances ``(T, 40)``."""
    return [ex.features for ex in make_dataset(count, SYNTH, seed=seed).examples]


def audio_utterances(count: int, seed: int) -> List[np.ndarray]:
    """``count`` raw waveforms rendered from synthetic phone labels."""
    dataset = make_dataset(count, SYNTH, seed=seed)
    rngs = np.random.SeedSequence([seed, 1]).spawn(count)
    return [
        synth_waveform(ex.labels, SYNTH, FEATURES, rng=np.random.default_rng(r))
        for ex, r in zip(dataset.examples, rngs)
    ]


def piece_frames(num_samples: int, config: FeatureConfig = FEATURES) -> List[int]:
    """Frames a ``StreamingFrontend`` emits for each 4000-sample piece;
    the last entry includes the tail frames ``finish`` emits.  Worked out
    from the framing arithmetic, not by running the frontend."""
    length, hop = config.frame_length, config.hop_length

    def ready(samples: int) -> int:
        return 0 if samples < length else (samples - length) // hop + 1

    counts, emitted = [], 0
    for end in range(PIECE_SAMPLES, num_samples + PIECE_SAMPLES, PIECE_SAMPLES):
        frames = ready(min(end, num_samples))
        counts.append(frames - emitted)
        emitted = frames
    total = max(1, 1 + math.ceil((num_samples - length) / hop))
    counts[-1] += total - emitted
    return counts


def feature_chunks(num_frames: int) -> List[int]:
    """Frames per fixed 25-frame client chunk."""
    return [
        min(CHUNK_FRAMES, num_frames - start)
        for start in range(0, num_frames, CHUNK_FRAMES)
    ]


class OracleError(RuntimeError):
    """The offline decode and the incremental decoder disagree."""


def oracle(plan, features: np.ndarray, chunk_frames: List[int], audio=None) -> Utterance:
    """Decode one utterance offline and find each phone's settling chunk."""
    if sum(chunk_frames) != len(features):
        raise OracleError(
            f"chunks carry {sum(chunk_frames)} frames, utterance has {len(features)}"
        )
    logits = plan.forward_utterance(features)
    hypothesis = decode_utterance(logits, MIN_DURATION)
    labels = logits.argmax(axis=1)
    decoder = IncrementalDecoder(MIN_DURATION)
    phones: List[int] = []
    settle: List[int] = []
    start = 0
    for index, frames in enumerate(chunk_frames):
        committed = decoder.push(labels[start : start + frames])
        start += frames
        phones += committed
        settle += [index] * len(committed)
    tail = decoder.finish()
    phones += tail
    settle += [len(chunk_frames) - 1] * len(tail)
    if phones != hypothesis:
        raise OracleError("incremental decode differs from decode_utterance")
    return Utterance(features, audio, chunk_frames, hypothesis, settle)


def audio_oracle(plan, audio: np.ndarray) -> Utterance:
    features = log_mel_spectrogram(audio, FEATURES)
    return oracle(plan, features, piece_frames(len(audio)), audio)


def feature_oracle(plan, features: np.ndarray) -> Utterance:
    return oracle(plan, features, feature_chunks(len(features)))
