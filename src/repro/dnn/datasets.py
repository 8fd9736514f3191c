"""Synthetic structured image datasets.

The paper's application analysis uses ImageNet and CIFAR-10; neither is
available in this offline environment, and the experiment does not actually
require them — it requires *a classification task hard enough that replacing
exact INT4 multiplications with the analogue in-SRAM multiplier visibly moves
top-1 / top-5 accuracy*.  The generator below produces such a task:

* every class gets a smooth random prototype image (low-frequency pattern,
  so convolutional features are meaningful),
* samples are the prototype plus per-sample brightness/contrast jitter,
  a small spatial shift and additive Gaussian noise,
* the noise is meant to make the classes overlap, but at the full
  experiment config it does not: FLOAT32 top-1 measures 99.5-100 % on all
  four models, so the task saturates and Tables II / III discriminate the
  corners less than the paper's.  Recalibrating the difficulty is ROADMAP
  item 2; it changes every generated sample and so the pinned hit counts.

Two ready-made configurations mirror the paper's datasets in spirit:
:func:`imagenet_like` (20 classes, used for the Table II reproduction) and
:func:`cifar10_like` (10 classes, Table III).

A generated dataset carries its :class:`DatasetSpec`: the generator's
arguments, a few numbers that stand for the whole dataset.  An engine job
ships the spec instead of the arrays, and the process that runs it
regenerates the same arrays with :meth:`DatasetSpec.generate`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """The arguments of :func:`make_synthetic_image_dataset`.

    Generation is deterministic, so a spec stands for its dataset bit for
    bit: :meth:`generate` makes the same arrays in any process.
    """

    classes: int
    train_per_class: int
    test_per_class: int
    image_size: int
    channels: int
    noise: float
    seed: int
    name: str

    @property
    def test_size(self) -> int:
        """Number of test samples of the generated dataset."""
        return self.classes * self.test_per_class

    def generate(self) -> "Dataset":
        """The dataset this spec describes."""
        return make_synthetic_image_dataset(**dataclasses.asdict(self))


@dataclasses.dataclass
class Dataset:
    """A train/test split of images and integer labels.

    Images are float32 NHWC tensors scaled to [0, 1]; labels are integer
    class indices.  ``spec`` is set on a generated dataset (``None`` for
    one built by hand).
    """

    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    classes: int
    name: str = "synthetic"
    spec: Optional[DatasetSpec] = None

    def __post_init__(self) -> None:
        if self.train_images.shape[0] != self.train_labels.shape[0]:
            raise ValueError("train images and labels must have the same length")
        if self.test_images.shape[0] != self.test_labels.shape[0]:
            raise ValueError("test images and labels must have the same length")
        if self.classes <= 1:
            raise ValueError("a classification dataset needs at least two classes")

    @property
    def image_shape(self) -> Tuple[int, ...]:
        """Shape of one image (H, W, C)."""
        return tuple(self.train_images.shape[1:])

    @property
    def train_size(self) -> int:
        """Number of training samples."""
        return int(self.train_images.shape[0])

    @property
    def test_size(self) -> int:
        """Number of test samples."""
        return int(self.test_images.shape[0])

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        return (
            f"{self.name}: {self.classes} classes, "
            f"{self.train_size} train / {self.test_size} test samples of "
            f"shape {self.image_shape}"
        )


def _smooth_random_image(
    rng: np.random.Generator, size: int, channels: int, smoothness: int = 3
) -> np.ndarray:
    """Low-frequency random pattern in [0, 1] used as a class prototype."""
    coarse = rng.uniform(0.0, 1.0, size=(smoothness, smoothness, channels))
    # Bilinear upsample of the coarse grid to the target resolution.
    coords = np.linspace(0.0, smoothness - 1.0, size)
    x0 = np.floor(coords).astype(int)
    x1 = np.minimum(x0 + 1, smoothness - 1)
    frac = coords - x0
    rows = (
        coarse[x0][:, x0] * (1 - frac)[:, None, None] * (1 - frac)[None, :, None]
        + coarse[x1][:, x0] * frac[:, None, None] * (1 - frac)[None, :, None]
        + coarse[x0][:, x1] * (1 - frac)[:, None, None] * frac[None, :, None]
        + coarse[x1][:, x1] * frac[:, None, None] * frac[None, :, None]
    )
    return rows


def _augment(
    prototype: np.ndarray, rng: np.random.Generator, noise: float
) -> np.ndarray:
    """One augmented sample: shift + contrast/brightness jitter + noise."""
    size = prototype.shape[0]
    # The spatial jitter scales with the image so that small test images are
    # not overwhelmed by translation (a +/-2 pixel shift is a quarter of an
    # 8x8 image but only an eighth of a 16x16 one).
    max_shift = max(1, size // 8)
    shift_y, shift_x = rng.integers(-max_shift, max_shift + 1, size=2)
    shifted = np.roll(prototype, (int(shift_y), int(shift_x)), axis=(0, 1))
    contrast = rng.uniform(0.8, 1.2)
    brightness = rng.uniform(-0.1, 0.1)
    sample = shifted * contrast + brightness
    sample = sample + rng.normal(0.0, noise, size=sample.shape)
    return np.clip(sample, 0.0, 1.0)


def make_synthetic_image_dataset(
    classes: int = 10,
    train_per_class: int = 100,
    test_per_class: int = 30,
    image_size: int = 16,
    channels: int = 3,
    noise: float = 0.18,
    seed: int = 0,
    name: str = "synthetic",
) -> Dataset:
    """Generate a synthetic structured image classification dataset.

    Parameters
    ----------
    classes:
        Number of classes.
    train_per_class, test_per_class:
        Samples per class in each split.
    image_size:
        Square image edge length in pixels.
    channels:
        Number of colour channels.
    noise:
        Additive Gaussian noise sigma (relative to the [0, 1] intensity
        range); larger values make the task harder.
    seed:
        Seed of the generator (prototypes and augmentations).
    name:
        Dataset name used in reports.
    """
    if classes <= 1:
        raise ValueError("need at least two classes")
    if train_per_class <= 0 or test_per_class <= 0:
        raise ValueError("per-class sample counts must be positive")
    if image_size < 4:
        raise ValueError("image_size must be at least 4")
    if noise < 0.0:
        raise ValueError("noise must be non-negative")

    rng = np.random.default_rng(seed)
    prototypes = [
        _smooth_random_image(rng, image_size, channels) for _ in range(classes)
    ]

    def build_split(per_class: int) -> Tuple[np.ndarray, np.ndarray]:
        images = np.empty(
            (classes * per_class, image_size, image_size, channels), dtype=np.float32
        )
        labels = np.empty(classes * per_class, dtype=np.int64)
        index = 0
        for class_index, prototype in enumerate(prototypes):
            for _ in range(per_class):
                images[index] = _augment(prototype, rng, noise)
                labels[index] = class_index
                index += 1
        order = rng.permutation(images.shape[0])
        return images[order], labels[order]

    train_images, train_labels = build_split(train_per_class)
    test_images, test_labels = build_split(test_per_class)
    return Dataset(
        train_images=train_images,
        train_labels=train_labels,
        test_images=test_images,
        test_labels=test_labels,
        classes=classes,
        name=name,
        spec=DatasetSpec(
            classes, train_per_class, test_per_class, image_size, channels, noise, seed, name
        ),
    )


def imagenet_like_spec(
    image_size: int = 16,
    train_per_class: int = 80,
    test_per_class: int = 25,
    seed: int = 7,
) -> DatasetSpec:
    """The spec of :func:`imagenet_like`, without generating a sample."""
    return DatasetSpec(
        classes=20,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        image_size=image_size,
        channels=3,
        noise=0.20,
        seed=seed,
        name="imagenet-like",
    )


def imagenet_like(
    image_size: int = 16,
    train_per_class: int = 80,
    test_per_class: int = 25,
    seed: int = 7,
) -> Dataset:
    """The 20-class stand-in for ImageNet used by the Table II reproduction.

    Twenty classes keep top-5 accuracy a meaningful metric (as it is for
    ImageNet's 1000 classes) while staying trainable in seconds on a laptop.
    """
    return imagenet_like_spec(image_size, train_per_class, test_per_class, seed).generate()


def cifar10_like(
    image_size: int = 16,
    train_per_class: int = 80,
    test_per_class: int = 25,
    seed: int = 11,
) -> Dataset:
    """The 10-class stand-in for CIFAR-10 used by the Table III reproduction."""
    return make_synthetic_image_dataset(
        classes=10,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        image_size=image_size,
        channels=3,
        noise=0.22,
        seed=seed,
        name="cifar10-like",
    )
