"""Frame tiling: crop geometry, ordering, and bound enforcement."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from wellqc import configio
from wellqc.errors import ConfigError, GridOutOfBounds
from wellqc.data.tiles import TileGrid, tile_scan
from wellqc.data.wells import CROP_SIZE


def checkerboard_frame(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((h, w)).astype(np.float32)


class TestTileScan:
    def test_full_scanner_frame_geometry(self):
        # 3840x2748 frame, origin (10,10), pitch 130: 21 rows x 29 cols fit
        grid = TileGrid(origin_x=10, origin_y=10, pitch_x=130, pitch_y=130, rows=21, cols=29)
        frame = np.zeros((2748, 3840), dtype=np.float32)
        crops = tile_scan(frame, grid)
        assert len(crops) == 21 * 29 == 609

    def test_identity_crop_on_exact_frame(self):
        frame = checkerboard_frame(CROP_SIZE, CROP_SIZE)
        grid = TileGrid(origin_x=0, origin_y=0, pitch_x=1, pitch_y=1, rows=1, cols=1)
        crops = tile_scan(frame, grid)
        assert len(crops) == 1
        npt.assert_array_equal(crops[0][2], frame)

    @pytest.mark.parametrize(
        "h, w, pitch, cell",
        [(300, 300, 250, r"\(0, 1\)"), (110, 120, 111, r"\(0, 0\)")],
        ids=["pitch-past-the-frame", "frame-smaller-than-one-crop"],
    )
    def test_first_crop_outside_the_frame_is_named(self, h, w, pitch, cell):
        grid = TileGrid(origin_x=0, origin_y=0, pitch_x=pitch, pitch_y=pitch, rows=2, cols=2)
        with pytest.raises(GridOutOfBounds, match=rf"crop {cell} .* outside the {w}x{h} frame"):
            tile_scan(checkerboard_frame(h, w), grid)

    def test_row_major_order_and_positions(self):
        frame = checkerboard_frame(350, 350)
        grid = TileGrid(origin_x=5, origin_y=7, pitch_x=115, pitch_y=120, rows=2, cols=3)
        crops = tile_scan(frame, grid)
        assert [(r, c) for r, c, _ in crops] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_crops_cover_declared_pixels(self):
        frame = checkerboard_frame(400, 400, seed=3)
        grid = TileGrid(origin_x=12, origin_y=30, pitch_x=130, pitch_y=140, rows=2, cols=2)
        for r, c, pixels in tile_scan(frame, grid):
            y0 = 30 + r * 140
            x0 = 12 + c * 130
            npt.assert_array_equal(pixels, frame[y0 : y0 + CROP_SIZE, x0 : x0 + CROP_SIZE])

    def test_reembedding_crops_reconstructs_frame_region(self):
        # non-overlapping pitch: pasting crops back reproduces the covered area
        frame = checkerboard_frame(500, 400, seed=4)
        grid = TileGrid(origin_x=20, origin_y=10, pitch_x=111, pitch_y=111, rows=3, cols=2)
        crops = tile_scan(frame, grid)
        rebuilt = np.zeros_like(frame)
        covered = np.zeros_like(frame, dtype=bool)
        for r, c, pixels in crops:
            y0 = 10 + r * 111
            x0 = 20 + c * 111
            rebuilt[y0 : y0 + CROP_SIZE, x0 : x0 + CROP_SIZE] = pixels
            covered[y0 : y0 + CROP_SIZE, x0 : x0 + CROP_SIZE] = True
        npt.assert_array_equal(rebuilt[covered], frame[covered])


class TestTileGridConfig:
    def test_json_round_trip(self, tmp_path):
        grid = TileGrid(origin_x=10, origin_y=10, pitch_x=130, pitch_y=130, rows=21, cols=29)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(configio.dump(grid)))
        assert configio.load_file(TileGrid, path) == grid

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            configio.load(TileGrid, {"origin_x": 0})

    def test_negative_origin_rejected(self):
        with pytest.raises(ConfigError):
            TileGrid(origin_x=-1, origin_y=0, pitch_x=10, pitch_y=10, rows=1, cols=1)
