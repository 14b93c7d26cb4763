"""Deterministic synthetic microwell corpus.

Good (OK) crops are a soft bright ring on a dark noisy background, with the
center, radius, width, and brightness jittered per image. Defective (NG)
crops start from the same rendering and apply one defect:

    occlusion_blob: a bright or dark Gaussian blob inside the well
    missing_well:   the ring is almost entirely absent
    deformed_ring:  the ring radius is modulated around the circumference
    scratch_line:   a straight bright or dark streak across the crop

The defect taxonomy is invented for this generator; it is chosen so defect
and non-defect classes are visually separable, not to match any particular
production failure mode. Everything is a pure function of (seed, counts,
mix): image i draws from generator SeedSequence(seed, spawn_key=(i,)), so
parallel and serial generation produce byte-identical files.
"""

import math
from pathlib import Path

import numpy as np

from wellqc.errors import ConfigError
from wellqc.data.manifest import DatasetManifest, ManifestEntry, write_manifest
from wellqc.data.pgm import write_pgm
from wellqc.data.wells import CROP_SIZE, LABEL_NG, LABEL_OK

DEFECT_KINDS = ("occlusion_blob", "missing_well", "deformed_ring", "scratch_line")

_YY, _XX = np.mgrid[0:CROP_SIZE, 0:CROP_SIZE].astype(np.float64)


def _well_params(rng):
    return {
        "cx": CROP_SIZE / 2 + rng.uniform(-3.0, 3.0),
        "cy": CROP_SIZE / 2 + rng.uniform(-3.0, 3.0),
        "radius": rng.uniform(33.0, 39.0),
        "width": rng.uniform(6.0, 8.0),
        "amplitude": rng.uniform(0.70, 0.82),
        "background": rng.uniform(0.10, 0.16),
    }


def _render_ring(p, wobble_amp=0.0, wobble_k=0, wobble_phase=0.0):
    dx = _XX - p["cx"]
    dy = _YY - p["cy"]
    dist = np.sqrt(dx * dx + dy * dy)
    radius = p["radius"]
    if wobble_amp:
        theta = np.arctan2(dy, dx)
        radius = radius * (1.0 + wobble_amp * np.sin(wobble_k * theta + wobble_phase))
    return p["background"] + p["amplitude"] * np.exp(-(((dist - radius) / p["width"]) ** 2))


def _apply_defect(img, p, kind, rng):
    if kind == "occlusion_blob":
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(0.0, 0.6) * p["radius"]
        bx = p["cx"] + rad * math.cos(ang)
        by = p["cy"] + rad * math.sin(ang)
        sigma = rng.uniform(8.0, 14.0)
        amp = rng.uniform(0.5, 0.7) * rng.choice([-1.0, 1.0])
        blob = amp * np.exp(-(((_XX - bx) ** 2 + (_YY - by) ** 2) / (2.0 * sigma * sigma)))
        return img + blob
    if kind == "missing_well":
        residual = rng.uniform(0.0, 0.12)
        ring = _render_ring(p) - p["background"]
        return img - (1.0 - residual) * ring
    if kind == "deformed_ring":
        amp = rng.uniform(0.25, 0.40)
        k = int(rng.integers(2, 5))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return _render_ring(p, wobble_amp=amp, wobble_k=k, wobble_phase=phase)
    if kind == "scratch_line":
        ang = rng.uniform(0.0, math.pi)
        offset = rng.uniform(-0.35, 0.35) * CROP_SIZE
        nx, ny = math.cos(ang), math.sin(ang)
        dist = np.abs((_XX - CROP_SIZE / 2) * nx + (_YY - CROP_SIZE / 2) * ny - offset)
        width = rng.uniform(2.5, 4.0)
        amp = rng.uniform(0.5, 0.7) * rng.choice([-1.0, 1.0])
        return img + amp * np.exp(-((dist / width) ** 2))
    raise ConfigError(f"unknown defect kind {kind!r}")


def render_well(rng, defect: str | None = None) -> np.ndarray:
    """One crop as float64 in [0, 1]; ``defect`` None renders an OK well."""
    p = _well_params(rng)
    img = _render_ring(p)
    if defect is not None:
        img = _apply_defect(img, p, defect, rng)
    img = img + rng.normal(0.0, 0.025, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def _normalize_mix(defect_mix) -> dict[str, float]:
    if defect_mix is None:
        return {k: 1.0 / len(DEFECT_KINDS) for k in DEFECT_KINDS}
    unknown = set(defect_mix) - set(DEFECT_KINDS)
    if unknown:
        raise ConfigError(f"unknown defect kinds in mix: {sorted(unknown)}")
    if any(v < 0 for v in defect_mix.values()):
        raise ConfigError("defect mix probabilities must be >= 0")
    total = sum(defect_mix.values())
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ConfigError(f"defect mix must sum to 1, got {total}")
    return {k: float(defect_mix.get(k, 0.0)) for k in DEFECT_KINDS}


def _pick_defect(rng, mix: dict[str, float]) -> str:
    u = rng.uniform(0.0, 1.0)
    acc = 0.0
    for kind in DEFECT_KINDS:
        acc += mix[kind]
        if u < acc:
            return kind
    return DEFECT_KINDS[-1]


def generate_synthetic(seed: int, n_ok: int, n_ng: int, defect_mix=None, out_dir=None) -> DatasetManifest:
    """Generate the corpus under ``out_dir`` and return its manifest.

    Writes ok_NNNN.pgm / ng_NNNN.pgm plus manifest.tsv; reruns with the same
    arguments are byte-identical.
    """
    if n_ok < 0 or n_ng < 0:
        raise ConfigError(f"image counts must be >= 0, got ok={n_ok}, ng={n_ng}")
    mix = _normalize_mix(defect_mix)
    out_dir = Path(out_dir if out_dir is not None else ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    for i in range(n_ok + n_ng):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        if i < n_ok:
            name, label = f"ok_{i:04d}.pgm", LABEL_OK
            pixels = render_well(rng)
        else:
            name, label = f"ng_{i - n_ok:04d}.pgm", LABEL_NG
            pixels = render_well(rng, defect=_pick_defect(rng, mix))
        write_pgm(pixels, out_dir / name, maxval=255)
        entries.append(ManifestEntry(path=name, label=label))

    write_manifest(out_dir / "manifest.tsv", ((e.path, e.label) for e in entries))
    return DatasetManifest(entries=entries, root=out_dir)
