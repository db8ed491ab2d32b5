//! Shared-output utilities for parallel functional execution.
//!
//! This module is the single audited unsafe write path to shared output
//! buffers (enforced by `clippy.toml`'s `disallowed-methods`); keep raw
//! pointer writes here so the sanitizer instrumentation covers them all.

use crate::sanitizer;
use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// A slice that multiple thread-block executors may write concurrently, on
/// the caller's guarantee that blocks write **disjoint** index sets — the
/// same guarantee a CUDA kernel gives when thread blocks own disjoint output
/// tiles.
///
/// This mirrors how GPU kernels share a device buffer: no synchronization,
/// correctness by construction of the tiling.
pub struct SyncUnsafeSlice<'a, T> {
    ptr: *const UnsafeCell<T>,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send + Sync> Send for SyncUnsafeSlice<'_, T> {}
unsafe impl<T: Send + Sync> Sync for SyncUnsafeSlice<'_, T> {}

impl<'a, T> SyncUnsafeSlice<'a, T> {
    pub fn new(slice: &'a mut [T]) -> Self {
        let len = slice.len();
        let ptr = slice.as_mut_ptr() as *const UnsafeCell<T>;
        Self {
            ptr,
            len,
            _marker: PhantomData,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` at `index`.
    ///
    /// The bounds check is always on (not `debug_assert!`): an out-of-bounds
    /// index panics in normal launches and becomes a recorded
    /// [`SanitizerViolation`](crate::sanitizer::SanitizerViolation) under
    /// a sanitized [`Gpu::run`](crate::Gpu::run), never UB. Under a sanitized
    /// launch the write also claims `index` in the cross-block shadow map;
    /// a write that would race an earlier block's is recorded and skipped
    /// (performing it would be the very race being reported).
    ///
    /// # Safety
    /// The caller must guarantee no other executor reads or writes `index`
    /// concurrently (disjoint output tiles).
    #[inline]
    #[allow(clippy::disallowed_methods)]
    pub unsafe fn write(&self, index: usize, value: T) {
        if index >= self.len {
            if sanitizer::report_slice_oob(index, self.len, true) {
                return;
            }
            panic!(
                "SyncUnsafeSlice::write out of bounds: index {index} >= len {}",
                self.len
            );
        }
        if !sanitizer::session_active() || sanitizer::claim_write(self.ptr as usize, index) {
            unsafe { *(*self.ptr.add(index)).get() = value };
        }
    }

    /// Read the value at `index`.
    ///
    /// Bounds-checked like [`Self::write`]; an out-of-bounds read under the
    /// sanitizer is recorded and returns the element at index 0 (the slice
    /// is never empty when kernels hold one).
    ///
    /// # Safety
    /// Same disjointness requirement as [`Self::write`].
    #[inline]
    #[allow(clippy::disallowed_methods)]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        if index >= self.len {
            if self.len > 0 && sanitizer::report_slice_oob(index, self.len, false) {
                return unsafe { *(*self.ptr).get() };
            }
            panic!(
                "SyncUnsafeSlice::read out of bounds: index {index} >= len {}",
                self.len
            );
        }
        unsafe { *(*self.ptr.add(index)).get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_parallel_writes() {
        use rayon::prelude::*;
        let mut data = vec![0u32; 1024];
        {
            let s = SyncUnsafeSlice::new(&mut data);
            (0..1024usize)
                .into_par_iter()
                .for_each(|i| unsafe { s.write(i, i as u32 * 2) });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }

    #[test]
    fn read_back() {
        let mut data = vec![1.5f32; 8];
        let s = SyncUnsafeSlice::new(&mut data);
        unsafe {
            s.write(3, 7.25);
            assert_eq!(s.read(3), 7.25);
            assert_eq!(s.read(0), 1.5);
        }
    }
}
