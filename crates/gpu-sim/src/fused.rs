//! Fused sparse-attention kernel: SDDMM → scaled softmax → SpMM in one
//! launch.
//!
//! The three-launch attention pipeline writes the raw scores to global
//! memory, streams them back through the softmax (three read passes plus a
//! write), and streams the probabilities back in again for the context
//! SpMM — all over the same CSR topology, all `Streaming` traffic the cache
//! model sends straight to DRAM. This kernel keeps one mask row resident in
//! shared memory across the three stages: one warp owns one row, stages the
//! scores in the block's smem arena, normalizes them in place, and
//! accumulates the context tile without the intermediate matrices ever
//! existing in global memory. The mask indices are read once instead of
//! twice, and two launch overheads disappear.
//!
//! **Bit-exactness contract.** The functional body performs, per output
//! element, the *identical* chain of `mul_add`s the three separate kernels
//! perform (`lanes::fma_dot4`/`fma_dot` for the scores in SDDMM strip
//! order, the exact `SparseSoftmaxKernel` max/exp/normalize body including
//! its ±inf branches and denominator clamp, `lanes::fma_axpy` over the V
//! row tiles with the SpMM's zero-probability skip). Intermediate values
//! round-trip through `T` exactly where the unfused pipeline stores and
//! reloads them. The `fusion_equivalence` suite pins bitwise equality
//! against the three-launch reference.
//!
//! The planner (`sputnik::plan`) only builds this kernel after proving the
//! per-row staging footprint fits the device's shared memory; constructed
//! for an oversized topology, the static auditor refutes `SharedCapacity`
//! and the launch is rejected before simulation.

use crate::fingerprint::Fingerprint;
use crate::util::SyncUnsafeSlice;
use crate::{
    lanes, memory, AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext,
    BufferBound, BufferId, BufferSpec, Dim3, Kernel, StageBound, StaticFacts,
};
use sparse::{CsrMatrix, Matrix, Scalar};

pub const BUF_Q: BufferId = BufferId(0);
pub const BUF_K: BufferId = BufferId(1);
pub const BUF_V: BufferId = BufferId(2);
pub const BUF_MASK_OFFSETS: BufferId = BufferId(3);
pub const BUF_MASK_INDICES: BufferId = BufferId(4);
pub const BUF_OUT: BufferId = BufferId(5);

/// Per-row shared-memory staging footprint: the scores row (f32, normalized
/// in place) plus one index strip. This is the quantity the fusion legality
/// rule compares against the device's smem capacity.
pub fn staging_bytes(max_row_len: usize, sddmm_tile: usize) -> u64 {
    max_row_len as u64 * 4 + sddmm_tile as u64 * 4
}

/// The fused `SDDMM → scale → softmax → SpMM` attention kernel. One warp
/// per block, one mask row per warp; `grid.x` spans the rows.
pub struct SddmmSoftmaxSpmmKernel<'a, T: Scalar> {
    q: Option<&'a Matrix<T>>,
    kmat: Option<&'a Matrix<T>>,
    v: Option<&'a Matrix<T>>,
    mask: &'a CsrMatrix<T>,
    out: Option<SyncUnsafeSlice<'a, T>>,
    /// Logit scale applied inside the softmax stage (attention's
    /// `1/sqrt(d)`), metered as an explicit multiply pass.
    scale: f32,
    /// Inner (dot-product) dimension shared by Q and K rows.
    k: usize,
    /// Context width (= V columns).
    n: usize,
    /// Score-strip width: the SDDMM stage processes the row's nonzeros in
    /// strips of this many outputs (mirrors `SddmmConfig::block_items_x`).
    sddmm_tile: usize,
    /// Context-tile width (mirrors `SpmmConfig::block_items_x`).
    spmm_tile: usize,
    /// Plan-shape tag baked into the launch name (and therefore the
    /// [`crate::LaunchCache`] key): fusing a different op chain or different
    /// stage tiles must never alias a cached launch.
    plan_tag: String,
    max_row_len: usize,
}

impl<'a, T: Scalar> SddmmSoftmaxSpmmKernel<'a, T> {
    /// Functional construction. `q` is `rows x k`, `kmat` is `cols x k`
    /// (the SDDMM's native transposed-RHS form), `v` is `cols x n`, `out`
    /// is the dense `rows x n` context buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        q: &'a Matrix<T>,
        kmat: &'a Matrix<T>,
        v: &'a Matrix<T>,
        mask: &'a CsrMatrix<T>,
        out: &'a mut [T],
        scale: f32,
        sddmm_tile: usize,
        spmm_tile: usize,
        plan_tag: String,
    ) -> Self {
        assert_eq!(q.rows(), mask.rows(), "Q rows must match mask rows");
        assert_eq!(kmat.rows(), mask.cols(), "K rows must match mask cols");
        assert_eq!(q.cols(), kmat.cols(), "Q/K inner dimensions must agree");
        assert_eq!(v.rows(), mask.cols(), "V rows must match mask cols");
        assert_eq!(out.len(), mask.rows() * v.cols(), "out must be rows x n");
        Self {
            q: Some(q),
            kmat: Some(kmat),
            v: Some(v),
            mask,
            out: Some(SyncUnsafeSlice::new(out)),
            scale,
            k: q.cols(),
            n: v.cols(),
            sddmm_tile: sddmm_tile.max(1),
            spmm_tile: spmm_tile.max(1),
            plan_tag,
            max_row_len: mask.max_row_len(),
        }
    }

    /// Cost-only construction from the mask topology and problem shape.
    pub fn for_profile(
        mask: &'a CsrMatrix<T>,
        k: usize,
        n: usize,
        scale: f32,
        sddmm_tile: usize,
        spmm_tile: usize,
        plan_tag: String,
    ) -> Self {
        Self {
            q: None,
            kmat: None,
            v: None,
            mask,
            out: None,
            scale,
            k,
            n,
            sddmm_tile: sddmm_tile.max(1),
            spmm_tile: spmm_tile.max(1),
            plan_tag,
            max_row_len: mask.max_row_len(),
        }
    }

    /// Q/K vector load width: widest 16-byte vector that divides `k`.
    fn vw(&self) -> u32 {
        let mut vw = 16 / T::BYTES;
        while vw > 1 && !self.k.is_multiple_of(vw as usize) {
            vw /= 2;
        }
        vw
    }
}

impl<T: Scalar> Kernel for SddmmSoftmaxSpmmKernel<'_, T> {
    fn name(&self) -> String {
        format!("fused_sddmm_softmax_spmm_{}_{}", T::TAG, self.plan_tag)
    }

    fn grid(&self) -> Dim3 {
        Dim3::x(self.mask.rows() as u32)
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }

    fn shared_mem_bytes(&self) -> u32 {
        staging_bytes(self.max_row_len, self.sddmm_tile).min(u32::MAX as u64) as u32
    }

    fn regs_per_thread(&self) -> u32 {
        40 + (self.k as u32 / 32).min(64)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let eb = T::BYTES as u64;
        vec![
            BufferSpec {
                id: BUF_Q,
                name: "q",
                footprint_bytes: (self.mask.rows() * self.k) as u64 * eb,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_K,
                name: "k",
                footprint_bytes: (self.mask.cols() * self.k) as u64 * eb,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_V,
                name: "v",
                footprint_bytes: (self.mask.cols() * self.n) as u64 * eb,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_MASK_OFFSETS,
                name: "mask_offsets",
                footprint_bytes: (self.mask.rows() as u64 + 1) * 4,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_MASK_INDICES,
                name: "mask_indices",
                footprint_bytes: self.mask.nnz() as u64 * 4,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_OUT,
                name: "context",
                footprint_bytes: (self.mask.rows() * self.n) as u64 * eb,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    /// Per-row cost structure: the signature folds everything the trace
    /// depends on — the row's nonzero count (strip structure, softmax and
    /// accumulate passes), the mod-32 address classes of the index strip,
    /// the Q and context rows, and (when row strides are not
    /// sector-multiples) each gathered K/V row's class. Early-exit rows
    /// hash a sentinel.
    fn block_signature(&self, block: Dim3) -> Option<u64> {
        let eb = T::BYTES as u64;
        let row = block.x as usize;
        let mut fp = Fingerprint::new();
        fp.write_u64(row as u64 * 4 % 32);
        let row_start = self.mask.row_offsets()[row] as u64;
        let len = self.mask.row_len(row);
        if len == 0 {
            fp.write_u64(u64::MAX);
            return Some(fp.finish());
        }
        fp.write_u64(len as u64);
        fp.write_u64(row_start * 4 % 32);
        fp.write_u64(row as u64 * self.k as u64 * eb % 32);
        fp.write_u64(row as u64 * self.n as u64 * eb % 32);
        let k_bytes = self.k as u64 * eb;
        let n_bytes = self.n as u64 * eb;
        if k_bytes.is_multiple_of(memory::SECTOR_BYTES)
            && n_bytes.is_multiple_of(memory::SECTOR_BYTES)
        {
            fp.write_u64(0);
        } else {
            let (cols, _) = self.mask.row(row);
            for &j in cols {
                if !k_bytes.is_multiple_of(memory::SECTOR_BYTES) {
                    fp.write_u64(j as u64 * k_bytes % 32);
                }
                if !n_bytes.is_multiple_of(memory::SECTOR_BYTES) {
                    fp.write_u64(j as u64 * n_bytes % 32);
                }
            }
        }
        Some(fp.finish())
    }

    /// Static safety facts.
    ///
    /// Soundness: warp `row` reads Q row `row` (`(row + 1) * k * eb <=
    /// rows * k * eb`), gathers K/V rows `j < mask.cols()` (extents
    /// `cols * k * eb` / `cols * n * eb` by CSR index validity), reads an
    /// 8-byte offset pair ending at `(rows + 1) * 4` and its index slice
    /// ending at `nnz * 4`, and writes context row `row` only. All traced
    /// global accesses are scalar. The block is a single warp, so the
    /// cross-stage staging is consumed warp-synchronously with no barriers,
    /// and the per-epoch staging equals the declared shared memory:
    /// [`staging_bytes`] (scores row + one index strip).
    fn static_facts(&self) -> StaticFacts {
        let eb = T::BYTES as u64;
        StaticFacts {
            bounds: Some(vec![
                BufferBound {
                    slot: BUF_Q.0,
                    bound: AccessBound::Extent((self.mask.rows() * self.k) as u64 * eb),
                },
                BufferBound {
                    slot: BUF_K.0,
                    bound: AccessBound::Extent((self.mask.cols() * self.k) as u64 * eb),
                },
                BufferBound {
                    slot: BUF_V.0,
                    bound: AccessBound::Extent((self.mask.cols() * self.n) as u64 * eb),
                },
                BufferBound {
                    slot: BUF_MASK_OFFSETS.0,
                    bound: AccessBound::Extent((self.mask.rows() as u64 + 1) * 4),
                },
                BufferBound {
                    slot: BUF_MASK_INDICES.0,
                    bound: AccessBound::Extent(self.mask.nnz() as u64 * 4),
                },
                BufferBound {
                    slot: BUF_OUT.0,
                    bound: AccessBound::Extent((self.mask.rows() * self.n) as u64 * eb),
                },
            ]),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::WarpSynchronous,
            stage: StageBound::Bytes(staging_bytes(self.max_row_len, self.sddmm_tile)),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let eb = T::BYTES;
        let row = block.x as usize;
        ctx.misc(5);
        ctx.ld_global(BUF_MASK_OFFSETS, row as u64 * 4, 2, 1, 4);
        let row_start = self.mask.row_offsets()[row] as usize;
        let len = self.mask.row_len(row);
        if len == 0 {
            return;
        }
        let k = self.k;
        let n = self.n;

        // ---- Cost -----------------------------------------------------
        if ctx.recording() {
            let vw = self.vw();
            // Q row: loaded once per block, reused across every score.
            let q_instrs = memory::vector_instr_count(k as u64, 32, vw);
            ctx.cost.ld_global_instrs += q_instrs;
            ctx.cost.gmem[BUF_Q.0 as usize].ld_sectors +=
                memory::sectors_contiguous((row * k) as u64 * eb as u64, k as u64 * eb as u64);

            // SDDMM stage, per strip: stage the index strip, then one
            // warp-cooperative dot per output (the whole warp reduces each
            // score, as in the unfused kernel's threads_per_output_tile=32
            // form).
            let k_bytes = k as u64 * eb as u64;
            let mut strip_start = 0usize;
            while strip_start < len {
                let s = self.sddmm_tile.min(len - strip_start);
                ctx.ld_global(
                    BUF_MASK_INDICES,
                    (row_start + strip_start) as u64 * 4,
                    s as u32,
                    1,
                    4,
                );
                ctx.st_shared(s as u32, 1, 4, 1);
                ctx.misc(3);
                let groups = s as u64;
                ctx.cost.ld_global_instrs += groups * (k as u64).div_ceil(32 * vw as u64).max(1);
                ctx.cost.fma_instrs += groups * (k as u64).div_ceil(32).max(1);
                ctx.shfl(groups * 5);
                ctx.fp(groups * 5, 0);
                ctx.misc(groups * 3);
                if k_bytes.is_multiple_of(memory::SECTOR_BYTES) {
                    ctx.cost.gmem[BUF_K.0 as usize].ld_sectors +=
                        s as u64 * memory::sectors_contiguous(0, k_bytes);
                } else {
                    let (cols, _) = self.mask.row(row);
                    for &j in &cols[strip_start..strip_start + s] {
                        ctx.cost.gmem[BUF_K.0 as usize].ld_sectors +=
                            memory::sectors_contiguous(j as u64 * k_bytes, k_bytes);
                    }
                }
                ctx.cost.flops += 2 * (s * k) as u64;
                // Scores land in shared memory instead of DRAM.
                ctx.st_shared(s as u32, 1, 4, 1);
                strip_start += s;
            }

            // Softmax stage over the staged row: the three passes of the
            // standalone kernel, reading shared memory instead of global,
            // plus the metered logit-scale multiply.
            let elem_instrs = (len as u64).div_ceil(32);
            ctx.smem_load(3 * elem_instrs, 3 * len as u64 * 4, crate::SmemScope::Warp);
            ctx.fp(elem_instrs, len as u64); // logit scale
            ctx.fp(3 * elem_instrs, 3 * len as u64);
            ctx.shfl(10);
            ctx.fp(10, 10);
            // Probabilities overwrite the staged scores in place.
            ctx.smem_store(elem_instrs, len as u64 * 4, crate::SmemScope::Warp);
            ctx.cost.flops += 4 * len as u64;

            // SpMM stage: gather V rows, accumulate the context row tile by
            // tile; probabilities are re-read from shared memory per tile.
            let n_bytes = n as u64 * eb as u64;
            let mut n_off = 0usize;
            while n_off < n {
                let tile_w = self.spmm_tile.min(n - n_off);
                ctx.smem_load(elem_instrs, len as u64 * 4, crate::SmemScope::Warp);
                let per_col = memory::vector_instr_count(tile_w as u64, 32, vw);
                ctx.cost.ld_global_instrs += len as u64 * per_col;
                if n_bytes.is_multiple_of(memory::SECTOR_BYTES) {
                    ctx.cost.gmem[BUF_V.0 as usize].ld_sectors += len as u64
                        * memory::sectors_contiguous(
                            n_off as u64 * eb as u64,
                            tile_w as u64 * eb as u64,
                        );
                } else {
                    let (cols, _) = self.mask.row(row);
                    for &j in cols {
                        ctx.cost.gmem[BUF_V.0 as usize].ld_sectors += memory::sectors_contiguous(
                            (j as u64 * n as u64 + n_off as u64) * eb as u64,
                            tile_w as u64 * eb as u64,
                        );
                    }
                }
                ctx.cost.fma_instrs += len as u64 * (tile_w as u64).div_ceil(32);
                ctx.misc(len as u64);
                ctx.cost.flops += 2 * (len * tile_w) as u64;
                let out_addr = (row * n + n_off) as u64 * eb as u64;
                ctx.cost.st_global_instrs += memory::vector_instr_count(tile_w as u64, 32, vw);
                ctx.cost.gmem[BUF_OUT.0 as usize].st_sectors +=
                    memory::sectors_contiguous(out_addr, tile_w as u64 * eb as u64);
                n_off += tile_w;
            }
        }

        // ---- Functional ------------------------------------------------
        if let (true, Some(q), Some(kmat), Some(v), Some(out)) = (
            ctx.functional(),
            self.q,
            self.kmat,
            self.v,
            self.out.as_ref(),
        ) {
            let (cols, _) = self.mask.row(row);
            let lrow = &q.as_slice()[row * k..(row + 1) * k];
            let kd = kmat.as_slice();
            let rrow = |j: u32| &kd[j as usize * k..(j as usize + 1) * k];

            // Stage 1 — scores, in the unfused SDDMM's strip-chunked order
            // (quad chains reset at strip boundaries exactly as there).
            // Each score round-trips through T, as the unfused kernel's
            // global store/reload does.
            let mut staged = ctx.scratch_f32(len);
            for (strip, strip_cols) in cols.chunks(self.sddmm_tile).enumerate() {
                let base = strip * self.sddmm_tile;
                let mut quads = strip_cols.chunks_exact(4);
                let mut t = 0;
                for quad in &mut quads {
                    let accs = lanes::fma_dot4(
                        lrow,
                        [rrow(quad[0]), rrow(quad[1]), rrow(quad[2]), rrow(quad[3])],
                        |x| x.to_f32(),
                    );
                    for acc in accs {
                        staged[base + t] = T::from_f32(acc).to_f32();
                        t += 1;
                    }
                }
                for &j in quads.remainder() {
                    staged[base + t] =
                        T::from_f32(lanes::fma_dot(lrow, rrow(j), |x| x.to_f32())).to_f32();
                    t += 1;
                }
            }

            // Stage 2 — the SparseSoftmaxKernel body with the logit scale,
            // normalizing the staged row in place. Probabilities round-trip
            // through T, as the unfused softmax's store + SpMM reload does.
            let scale = self.scale;
            let max = staged
                .iter()
                .map(|&s| s * scale)
                .fold(f32::NEG_INFINITY, f32::max);
            if max == f32::INFINITY {
                let top = staged
                    .iter()
                    .filter(|&&s| s * scale == f32::INFINITY)
                    .count()
                    .max(1) as f32;
                for s in staged.iter_mut() {
                    let p = if *s * scale == f32::INFINITY {
                        1.0 / top
                    } else {
                        0.0
                    };
                    *s = T::from_f32(p).to_f32();
                }
            } else if max == f32::NEG_INFINITY {
                let p = T::from_f32(1.0 / len as f32).to_f32();
                for s in staged.iter_mut() {
                    *s = p;
                }
            } else {
                let mut exps = ctx.scratch_f32(len);
                for (e, &s) in exps.iter_mut().zip(staged.iter()) {
                    *e = (s * scale - max).exp();
                }
                let sum: f32 = exps.iter().sum::<f32>().max(f32::MIN_POSITIVE);
                for (s, &e) in staged.iter_mut().zip(exps.iter()) {
                    *s = T::from_f32(e / sum).to_f32();
                }
            }

            // Stage 3 — the SpmmKernel accumulate body over V row tiles:
            // zero probabilities skipped, left-to-right fma chain per
            // output element.
            let vd = v.as_slice();
            let mut n_off = 0usize;
            while n_off < n {
                let tile_w = self.spmm_tile.min(n - n_off);
                let mut acc = ctx.scratch_f32(tile_w);
                for (t, &j) in cols.iter().enumerate() {
                    let val = staged[t];
                    if val == 0.0 {
                        continue;
                    }
                    let brow = &vd[j as usize * n + n_off..j as usize * n + n_off + tile_w];
                    lanes::fma_axpy(&mut acc, val, brow, |x| x.to_f32());
                }
                for (x, &a) in acc.iter().enumerate() {
                    unsafe { out.write(row * n + n_off + x, T::from_f32(a)) };
                }
                n_off += tile_w;
            }
        }
    }

    fn poison_output(&self, seed: u64) {
        if let Some(out) = self.out.as_ref() {
            let len = out.len();
            if len == 0 {
                return;
            }
            for i in 0..3u64 {
                let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 31;
                unsafe { out.write(z as usize % len, T::from_f32(f32::NAN)) };
            }
        }
    }
}
