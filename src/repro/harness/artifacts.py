"""Trained-model cache shared by examples, benchmarks and tests.

Training the reference SNN takes tens of seconds, so trained weights are
cached under ``<repo>/.cache/repro-sushi/`` keyed by their full
configuration.  ``get_trained_bundle`` returns the model together with its
dataset and evaluation metrics, training only on a cache miss; an
unreadable bundle counts as a miss and is overwritten.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data import Dataset, load_digits, load_fashion
from repro.snn import (
    SpikingClassifier,
    Trainer,
    TrainerConfig,
)

CACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR",
    os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))), ".cache",
        "repro-sushi"),
)


@dataclass
class TrainedBundle:
    """A trained classifier plus the data it was trained on."""

    model: SpikingClassifier
    dataset: Dataset
    train_accuracy: float
    config_key: str


def _config_key(dataset: str, hidden: int, epochs: int, train_size: int,
                time_steps: int, lr: float, seed: int,
                downsample: int, binary_aware: bool) -> str:
    mode = "ba" if binary_aware else "fp"
    return (
        f"{dataset}_h{hidden}_e{epochs}_n{train_size}_t{time_steps}"
        f"_lr{lr:g}_s{seed}_d{downsample}_{mode}"
    )


def downsample_images(images: np.ndarray, factor: int) -> np.ndarray:
    """Average-pool square images by ``factor`` (28x28 -> 7x7 at 4)."""
    if factor <= 1:
        return images
    n, h, w = images.shape
    h2, w2 = h // factor, w // factor
    trimmed = images[:, : h2 * factor, : w2 * factor]
    return trimmed.reshape(n, h2, factor, w2, factor).mean(axis=(2, 4))


def _weights_path(key: str) -> str:
    return os.path.join(CACHE_DIR, f"{key}.npz")


def _save_weights(model: SpikingClassifier, path: str,
                  train_accuracy: float) -> None:
    """Write the bundle atomically (tmp file + rename, as the plan cache
    does), so an interrupted save never leaves a torn file behind."""
    directory, name = os.path.split(path)
    os.makedirs(directory, exist_ok=True)
    arrays = {"train_accuracy": np.array(train_accuracy)}
    for i, layer in enumerate(model.linear_layers()):
        arrays[f"w{i}"] = layer.weight.numpy()
        if layer.bias is not None:
            arrays[f"b{i}"] = layer.bias.numpy()
    tmp = os.path.join(directory, f".{name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_weights(model: SpikingClassifier, path: str) -> Optional[float]:
    """Load a cached bundle into ``model`` and return its training
    accuracy, or None on a miss.  A bundle that is absent, unreadable
    (not a zip archive, truncated) or shaped for another model is a miss;
    the model is only touched once the whole bundle has been read."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        return None
    layers = model.linear_layers()
    weights = [arrays.get(f"w{i}") for i in range(len(layers))]
    if "train_accuracy" not in arrays or any(
        w is None or w.shape != layer.weight.shape
        for w, layer in zip(weights, layers)
    ):
        return None
    for i, (w, layer) in enumerate(zip(weights, layers)):
        layer.weight.data[...] = w
        if layer.bias is not None and f"b{i}" in arrays:
            layer.bias.data[...] = arrays[f"b{i}"]
    return float(arrays["train_accuracy"])


def get_trained_bundle(
    dataset: str = "digits",
    hidden: int = 256,
    epochs: int = 15,
    train_size: int = 2000,
    test_size: int = 500,
    time_steps: int = 5,
    learning_rate: float = 5e-3,
    seed: int = 0,
    use_cache: bool = True,
    downsample: int = 1,
    binary_aware: bool = True,
) -> TrainedBundle:
    """Return a binary-aware trained classifier (cached on disk).

    The defaults reproduce the scaled-down Table 3 setup: the paper's
    INPUT-FC-IF-FC-IF architecture with T=5 and Adam, trained with the
    binarized forward pass (section 5.1).  ``downsample`` average-pools the
    images (used by the gate-level Fig. 16 demonstration, which needs a
    tiny network)."""
    loader = {"digits": load_digits, "fashion": load_fashion}[dataset]
    data = loader(train_size=train_size, test_size=test_size, seed=seed)
    if downsample > 1:
        data = Dataset(
            downsample_images(data.train_images, downsample),
            data.train_labels,
            downsample_images(data.test_images, downsample),
            data.test_labels,
            name=data.name,
        )
    input_size = data.train_images.shape[1] * data.train_images.shape[2]
    model = SpikingClassifier.mlp(
        input_size=input_size,
        hidden_size=hidden,
        time_steps=time_steps,
        binary_aware=binary_aware,
        seed=seed,
    )
    key = _config_key(dataset, hidden, epochs, train_size, time_steps,
                      learning_rate, seed, downsample, binary_aware)
    path = _weights_path(key)
    if use_cache:
        cached_accuracy = _load_weights(model, path)
        if cached_accuracy is not None:
            model.eval()
            return TrainedBundle(model, data, cached_accuracy, key)
    trainer = Trainer(
        model,
        TrainerConfig(epochs=epochs, batch_size=64,
                      learning_rate=learning_rate),
    )
    history = trainer.fit(data.train_images, data.train_labels)
    train_accuracy = history.train_accuracies[-1]
    if use_cache:
        _save_weights(model, path, train_accuracy)
    return TrainedBundle(model, data, train_accuracy, key)
