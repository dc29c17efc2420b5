"""Workload definitions and the writer that puts their galleries on disk.

A workload is a list of galleries, a method and a probe count. Each gallery is
written as binary PGMs plus a `split,label,path` manifest: the training faces
as `train` records and the finished, block-occluded probes as `test` records,
so the program under test receives only files.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from faceid import corruptions, dataio, experiment, model

# Dataset seed of the paper-scale gallery. It is fixed, as a face database is
# fixed: with 8 to 16 probes, a gallery drawn per run seed moves accuracy by
# whole probes (paper-lowrank scores 0.625 on dataset seed 0 and 0.5 on 1),
# far beyond any usable bound. The run seed orders those probes instead.
PAPER_DATASET_SEED = 0


@dataclass(frozen=True)
class GallerySpec:
    """One synthetic gallery and the probes drawn from its test split."""

    dataset_seed: int
    classes: int
    per_class: int
    rows: int
    cols: int
    extra_tests: int
    occlusion: float
    probes: tuple  # indices into the synthetic test split

    @property
    def geometry(self) -> model.ImageGeometry:
        return model.ImageGeometry(self.rows, self.cols)


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    setup_reps: int
    accuracy_floor: float
    nnls_oracle: bool

    def galleries(self, seed: int) -> list:
        if self.name == "small-lowrank":
            # Acceptance-6 shape: 6 train + 4 test images per class, 40 probes.
            return [
                GallerySpec(5 * seed + k, 10, 7, 24, 21, 3, 0.5, tuple(range(40)))
                for k in range(5)
            ]
        # Yale B shape: 19 train images for each of 38 classes (n=722), one
        # held-out test image per class; probes are spread over the classes.
        count = 16 if self.name == "paper-plain" else 8
        probes = tuple((i * 38) // count for i in range(count))
        return [GallerySpec(PAPER_DATASET_SEED, 38, 20, 96, 84, 0, 0.6, probes)]


# Accuracy floors come from the method, not from today's output: acceptance 6
# demands 0.85 of F-LR-IRNNLS at the small shape; at paper scale a floor of
# 0.25 (9.5 times chance, 1/38) only asserts that identification works.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-lowrank", "F-LR-IRNNLS", setup_reps=25, accuracy_floor=0.85, nnls_oracle=False),
        Workload("paper-plain", "F-IRNNLS", setup_reps=5, accuracy_floor=0.25, nnls_oracle=True),
        Workload("paper-lowrank", "F-LR-IRNNLS", setup_reps=5, accuracy_floor=0.25, nnls_oracle=False),
    )
}


def _occlusion_seed(dataset_seed: int, index: int) -> int:
    # Keyed by test index, so paper-lowrank's probes are a subset of
    # paper-plain's with the same blocks.
    return int(np.random.SeedSequence((dataset_seed, 7, index)).generate_state(1)[0])


def write_gallery(spec: GallerySpec, directory) -> None:
    """Write one gallery's training faces and occluded probes plus manifest.txt."""
    out = Path(directory)
    (out / "train").mkdir(parents=True, exist_ok=True)
    (out / "test").mkdir(exist_ok=True)
    ds = experiment.make_synthetic_benchmark(
        classes=spec.classes,
        per_class=spec.per_class,
        geometry=spec.geometry,
        seed=spec.dataset_seed,
        extra_tests=spec.extra_tests,
    )
    lines = []
    for i, (face, label) in enumerate(zip(ds.train, ds.train_labels)):
        rel = f"train/{i:04d}.pgm"
        dataio.save_pgm(model.matricize(face), out / rel)
        lines.append(f"train,c{label:02d},{rel}")
    patch = corruptions.textured_patch()
    for index in spec.probes:
        probe, _ = corruptions.occlude_block(
            ds.test[index], patch, spec.occlusion, _occlusion_seed(spec.dataset_seed, index)
        )
        rel = f"test/{index:04d}.pgm"
        dataio.save_pgm(model.matricize(probe), out / rel)
        lines.append(f"test,c{ds.test_labels[index]:02d},{rel}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def gallery_dirs(workload: Workload, seed: int, directory) -> list:
    return [Path(directory) / f"g{k}" for k in range(len(workload.galleries(seed)))]


def write_galleries(workload: Workload, seed: int, directory) -> None:
    """Write every gallery of the workload under `directory`/g<k>."""
    specs = workload.galleries(seed)
    for spec, out in zip(specs, gallery_dirs(workload, seed, directory)):
        write_gallery(spec, out)


if __name__ == "__main__":
    # python3 perfbench/workloads.py <workload> <seed> <directory>
    name, seed, directory = sys.argv[1:]
    write_galleries(WORKLOADS[name], int(seed), directory)
