//! Inputs shared by the launch-engine test suites.

use sparse::{gen, CsrMatrix};

/// A 200x300 SDDMM mask that spans a 5x4 grid of 64x64 output tiles with a
/// partial last tile row (rows 192..200) and column (cols 256..300), and
/// holds the tile-edge cases a per-tile nonzero count can get wrong:
///
/// * tile (row 0, col 1) is all empty;
/// * tile (row 1, col 2) is fully dense;
/// * row 130 has a run of nonzeros across the 128/192 and 192/256 column
///   boundaries, and row 199 (the last, partial tile row) ends at the last
///   column.
pub fn multi_tile_mask() -> CsrMatrix<f32> {
    let mut dense = gen::uniform(200, 300, 0.8, 0x7113).to_dense();
    for r in 0..64 {
        for c in 64..128 {
            dense.set(r, c, 0.0);
        }
    }
    for r in 64..128 {
        for c in 128..192 {
            dense.set(r, c, 1.0);
        }
    }
    for c in 120..260 {
        dense.set(130, c, 1.0);
    }
    for c in 250..300 {
        dense.set(199, c, 1.0);
    }
    let mask = CsrMatrix::from_dense(&dense);
    assert_eq!((mask.rows(), mask.cols()), (200, 300));
    mask
}
