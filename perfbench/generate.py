"""Seeded inputs for the benchmark workloads.

The inputs are built here with numpy alone, not with ``logan.synthetic``, so
a later change to the package's generator cannot change what the benchmark
audits.  Every workload draws the same kind of mixture: ``COMPONENTS``
Gaussian components whose means sit ``SEPARATION`` standard deviations apart
along the first axis.  One component carries a ``PLANTED_GAP`` accuracy
gap between the two groups; the others get a small opposite tilt sized from
the realised group counts, so the corpus-level gap stays under
``GLOBAL_GAP_LIMIT`` and only a local audit can see the bias.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMPONENTS = 5
SEPARATION = 8.0
PLANTED_GAP = 0.30
BACKGROUND_ACC = 0.85
GLOBAL_GAP_LIMIT = 0.02
MAX_RESAMPLES = 20
# Seed of the feature layout shared by every input (see make_rows).
LAYOUT_SEED = 0

# Token pools for text rows: each component has its own topic words, and
# every row also draws from a shared pool, so clusters differ in which
# tokens are over-represented without any of them being exclusive.
SHARED_WORDS = tuple(f"w{i:03d}" for i in range(400))
TOPIC_WORDS = tuple(tuple(f"t{c}x{i:02d}" for i in range(40)) for c in range(COMPONENTS))
TOKENS_PER_TEXT = 20
TOPIC_SHARE = 0.3


@dataclass(frozen=True)
class InputSpec:
    """Shape of one workload's input file."""

    n: int
    dim: int
    scale: float = 1.0
    with_text: bool = False


def _accuracy_targets(comp: np.ndarray, in_a: np.ndarray) -> np.ndarray:
    planted = comp == 0
    half = PLANTED_GAP / 2.0
    targets = np.full(len(comp), BACKGROUND_ACC)
    targets[in_a & planted] = BACKGROUND_ACC + half
    targets[~in_a & planted] = BACKGROUND_ACC - half
    for grp, sign in ((in_a, 1.0), (~in_a, -1.0)):
        tilt = sign * half * np.sum(grp & planted) / np.sum(grp & ~planted)
        targets[grp & ~planted] = BACKGROUND_ACC - tilt
    return targets


def make_rows(spec: InputSpec, seed: int | tuple[int, ...]) -> list[dict]:
    """Draw the rows of one input; the same (spec, seed) gives the same rows.

    The feature layout comes from ``LAYOUT_SEED``, not from ``seed``:
    on this mixture the k-means iteration count ranges from 10 to 41 across
    layouts, so a seeded layout would let the amount of work, rather than
    the code, set the spread between runs.  ``seed`` draws everything else:
    groups, labels, which predictions are correct, scores and texts.  The
    lambda fits on ``detect-bites`` still vary with those draws.
    """
    n, dim = spec.n, spec.dim
    comp = np.arange(n) % COMPONENTS
    means = np.zeros((COMPONENTS, dim))
    means[:, 0] = np.arange(COMPONENTS) * SEPARATION
    layout = np.random.default_rng(LAYOUT_SEED)
    features = (means[comp] + layout.standard_normal((n, dim))) * spec.scale
    rng = np.random.default_rng(seed)
    in_a = rng.random(n) < 0.5
    labels = rng.integers(0, 2, size=n)
    targets = _accuracy_targets(comp, in_a)
    for _ in range(MAX_RESAMPLES):
        correct = rng.random(n) < targets
        if abs(correct[in_a].mean() - correct[~in_a].mean()) < GLOBAL_GAP_LIMIT:
            break
    else:
        raise RuntimeError(f"seed {seed}: corpus-level gap stayed above {GLOBAL_GAP_LIMIT}")
    preds = np.where(correct, labels, 1 - labels)
    noise = rng.random(n)
    scores = np.where(preds == 1, 0.5 + 0.5 * noise, 0.5 * noise)
    if spec.with_text:
        topic = rng.random((n, TOKENS_PER_TEXT)) < TOPIC_SHARE
        topic_pick = rng.integers(0, len(TOPIC_WORDS[0]), size=(n, TOKENS_PER_TEXT))
        shared_pick = rng.integers(0, len(SHARED_WORDS), size=(n, TOKENS_PER_TEXT))
    rows = []
    for i in range(n):
        row = {
            "id": f"r{i:06d}",
            "features": features[i].tolist(),
            "group": "a" if in_a[i] else "b",
            "label": int(labels[i]),
            "pred": int(preds[i]),
        }
        if spec.with_text:
            row["score"] = float(scores[i])
            words = TOPIC_WORDS[comp[i]]
            row["text"] = " ".join(
                words[topic_pick[i, t]] if topic[i, t] else SHARED_WORDS[shared_pick[i, t]]
                for t in range(TOKENS_PER_TEXT)
            )
        rows.append(row)
    return rows


def write_input(spec: InputSpec, seed: int | tuple[int, ...], path: Path) -> dict:
    """Write one JSONL input and return its row count, size and sha256."""
    data = "".join(json.dumps(row) + "\n" for row in make_rows(spec, seed)).encode()
    path.write_bytes(data)
    return {"n": spec.n, "dim": spec.dim, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
