"""Tiling of weight matrices onto fixed-size crossbars.

A quantised weight matrix of shape ``(K, M)`` maps onto a grid of
``ceil(K / rows) x ceil(M / cols)`` crossbar tiles, zero-padded at the
edges. Tiles in a tile-row share the same input-vector slice; tiles in a
tile-column produce partial sums that are accumulated digitally
(paper Fig. 6, phase 2).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def n_tiles(length: int, tile: int) -> int:
    """Number of tiles covering ``length`` elements."""
    if length < 1 or tile < 1:
        raise ShapeError("length and tile size must be >= 1")
    return -(-length // tile)


def pad_axis(array: np.ndarray, axis: int, multiple: int) -> np.ndarray:
    """Zero-pad ``axis`` up to the next multiple of ``multiple``."""
    length = array.shape[axis]
    target = n_tiles(length, multiple) * multiple
    if target == length:
        return array
    # A zero-filled copy, as np.pad would return, without its per-call
    # overhead (this runs on every activation batch).
    shape = list(array.shape)
    shape[axis] = target
    out = np.zeros(shape, array.dtype)
    out[tuple(slice(0, n) for n in array.shape)] = array
    return out


def tile_matrix(matrix: np.ndarray, tile_rows: int,
                tile_cols: int) -> np.ndarray:
    """Split ``(K, M)`` into ``(Tr, Tc, tile_rows, tile_cols)`` tiles."""
    if matrix.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {matrix.shape}")
    padded = pad_axis(pad_axis(matrix, 0, tile_rows), 1, tile_cols)
    t_r = padded.shape[0] // tile_rows
    t_c = padded.shape[1] // tile_cols
    return padded.reshape(t_r, tile_rows, t_c, tile_cols).transpose(
        0, 2, 1, 3)


def untile_matrix(tiles: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Inverse of :func:`tile_matrix`, trimming the zero padding."""
    if tiles.ndim != 4:
        raise ShapeError(f"expected 4-D tiles, got shape {tiles.shape}")
    t_r, t_c, tile_rows, tile_cols = tiles.shape
    merged = tiles.transpose(0, 2, 1, 3).reshape(t_r * tile_rows,
                                                 t_c * tile_cols)
    return merged[:n_rows, :n_cols]
