"""Workload definitions and input generation for the concm benchmark.

A workload is a generator config and a session config; both take the
benchmark seed, and every workload runs the full ``concm`` strategy.
Inputs are generated with the program's own ``generate_benchmark`` +
``write_benchmark`` in a child process, so that generation time and memory
stay out of the measured process, and are cached per (workload, seed)
under ``.perfbench_data/`` at the checkout root, one seed per workload at a
time.

Run directly, this module generates one input set:
``python3 perfbench/workloads.py <workload> <seed> <outdir>``.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / ".perfbench_data"
# the program runs from its sources in this checkout, never an installed copy
if not (SRC / "concm" / "__init__.py").is_file():
    raise ImportError(f"no concm sources under {SRC}")
sys.path.insert(0, str(SRC))

from concm.session import SessionConfig  # noqa: E402
from concm.synth import GenConfig, generate_benchmark, write_benchmark  # noqa: E402

# The acceptance suite's run config (BENCH_RUN_CONFIG in the acceptance tests).
SMALL_RUN = dict(d_g=64, lr_projector=0.5, epochs_base=30,
                 epochs_incremental=15, meta_episodes=1000, batch_size=128)

# miniImageNet / CIFAR-100 protocol shape: 60 base + 8 x 5-way 5-shot.
PAPER_GEN = dict(base_classes=60, sessions=8, d_f=512)
# SessionConfig defaults (d_g 512, lr 1e-2) at 1/10 of the default
# schedule (50/20 epochs, 200 meta episodes).  The learning rate stays at
# its default so the projector collapse at this shape stays visible.
PAPER_RUN = dict(base_classes=60, sessions=8, epochs_base=5,
                 epochs_incremental=2, meta_episodes=20)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen: dict = field(default_factory=dict)   # GenConfig fields but seed
    run: dict = field(default_factory=dict)   # SessionConfig fields but seed


STRATEGY = "concm"
WORKLOADS = {w.name: w for w in (
    Workload("small",
             "interpreter-bound tiny arrays: calibration meta-training and "
             "projector tape steps split the time",
             run=SMALL_RUN),
    Workload("paper",
             "BLAS-bound projector training at d = 512 with per-epoch "
             "resampling, SVD at 512 x 60..100 and 98 MB of CSV",
             gen=PAPER_GEN, run=PAPER_RUN),
)}


def gen_config(w: Workload, seed: int) -> GenConfig:
    return GenConfig(seed=seed, **w.gen)


def session_config(w: Workload, seed: int) -> SessionConfig:
    cfg = SessionConfig(seed=seed, **w.run)
    cfg.validate()
    return cfg


def ensure_inputs(w: Workload, seed: int) -> Path:
    """Manifest path of the workload's inputs, generating them if absent."""
    out = DATA / f"{w.name}-seed{seed}"
    manifest = out / "manifest.json"
    if manifest.is_file():
        return manifest
    # keep one input set per workload: paper's is ~94 MB per seed
    for old in DATA.glob(f"{w.name}-seed*"):
        shutil.rmtree(old)
    tmp = DATA / f".tmp-{w.name}-seed{seed}"
    if tmp.exists():
        shutil.rmtree(tmp)
    DATA.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, str(Path(__file__).resolve()), w.name,
                    str(seed), str(tmp)], check=True, timeout=600)
    tmp.rename(out)
    return manifest


def digest(paths) -> str:
    """sha256 over the names and bytes of the given files, in order."""
    h = hashlib.sha256()
    for p in paths:
        p = Path(p)
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def input_files(manifest_path: Path) -> list[Path]:
    """Every file the generator wrote for this input set, sorted."""
    return sorted(p for p in manifest_path.parent.iterdir() if p.is_file())


def program_digest() -> str:
    return digest(sorted((SRC / "concm").glob("*.py")))


def _generate(name: str, seed: int, outdir: str) -> None:
    write_benchmark(generate_benchmark(gen_config(WORKLOADS[name], seed)), outdir)


if __name__ == "__main__":
    _generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
