//! Shared machinery for authoring PolyBench kernels in WebAssembly.
//!
//! Each kernel builds a module exporting `run() -> f64` that
//! initialises its arrays in linear memory (mirroring the PolyBench
//! init functions), executes the kernel, and returns a checksum of the
//! output arrays. The native mirror performs the same operations in
//! the same order, so checksums match bit-for-bit.

use acctee_wasm::builder::{Bound, FuncBuilder, ModuleBuilder};
use acctee_wasm::op::NumOp;
use acctee_wasm::types::ValType;
use acctee_wasm::Module;

/// A row-major `f64` matrix in linear memory.
#[derive(Debug, Clone, Copy)]
pub struct Mat {
    /// Base byte offset.
    pub base: u32,
    /// Number of columns (row stride).
    pub cols: i32,
}

impl Mat {
    /// Pushes the element address for `[i][j]` (relative; combine with
    /// a memarg offset of `base`).
    pub fn addr(&self, f: &mut FuncBuilder, i: u32, j: u32) {
        f.idx2(i, j, self.cols, 3);
    }

    /// Loads `self[i][j]`.
    pub fn load(&self, f: &mut FuncBuilder, i: u32, j: u32) {
        self.addr(f, i, j);
        f.f64_load(self.base);
    }

    /// Stores to `self[i][j]`: emit the address, then the value via
    /// `value`, then the store.
    pub fn store(&self, f: &mut FuncBuilder, i: u32, j: u32, value: impl FnOnce(&mut FuncBuilder)) {
        self.addr(f, i, j);
        value(f);
        f.f64_store(self.base);
    }
}

/// An `f64` vector in linear memory.
#[derive(Debug, Clone, Copy)]
pub struct Vec1 {
    /// Base byte offset.
    pub base: u32,
}

impl Vec1 {
    /// Pushes the element address for `[i]`.
    pub fn addr(&self, f: &mut FuncBuilder, i: u32) {
        f.idx1(i, 3);
    }

    /// Loads `self[i]`.
    pub fn load(&self, f: &mut FuncBuilder, i: u32) {
        self.addr(f, i);
        f.f64_load(self.base);
    }

    /// Stores to `self[i]`.
    pub fn store(&self, f: &mut FuncBuilder, i: u32, value: impl FnOnce(&mut FuncBuilder)) {
        self.addr(f, i);
        value(f);
        f.f64_store(self.base);
    }
}

/// Allocates arrays in linear memory.
#[derive(Debug, Default)]
pub struct Layout {
    next: u32,
}

impl Layout {
    /// Starts allocation at offset 64 (offset 0 stays unused).
    pub fn new() -> Layout {
        Layout { next: 64 }
    }

    /// Allocates a `rows x cols` f64 matrix.
    pub fn mat(&mut self, rows: usize, cols: usize) -> Mat {
        let base = self.next;
        self.next += (rows * cols * 8) as u32;
        Mat {
            base,
            cols: cols as i32,
        }
    }

    /// Allocates an n-element f64 vector.
    pub fn vec(&mut self, n: usize) -> Vec1 {
        let base = self.next;
        self.next += (n * 8) as u32;
        Vec1 { base }
    }

    /// Pages needed to hold everything allocated so far.
    pub fn pages(&self) -> u32 {
        self.next.div_ceil(65536) + 1
    }
}

/// Builds the standard kernel module shell: one function `run() -> f64`
/// whose body is produced by `body` (which receives the builder and
/// must leave an f64 checksum on the stack).
pub fn kernel_module(layout: &Layout, body: impl FnOnce(&mut FuncBuilder)) -> Module {
    let mut b = ModuleBuilder::new();
    b.memory(layout.pages(), None);
    let f = b.func("run", &[], &[ValType::F64], body);
    b.export_func("run", f);
    b.build()
}

/// Emits a nested `for i in 0..n` loop.
pub fn for_n(f: &mut FuncBuilder, i: u32, n: usize, body: impl FnOnce(&mut FuncBuilder)) {
    f.for_loop(i, Bound::Const(0), Bound::Const(n as i32), body);
}

/// Emits the PolyBench-style fractional init value
/// `fmod((i*a + j*b + c), m) / d` as an f64, where all inputs are i32
/// locals/constants. Uses `i32.rem_s` then converts.
#[allow(clippy::too_many_arguments)] // mirrors the PolyBench init formula term by term
pub fn frac_init(
    f: &mut FuncBuilder,
    i: u32,
    j: Option<u32>,
    a: i32,
    b: i32,
    c: i32,
    m: i32,
    d: f64,
) {
    f.local_get(i);
    f.i32_const(a);
    f.i32_mul();
    if let Some(j) = j {
        f.local_get(j);
        f.i32_const(b);
        f.i32_mul();
        f.i32_add();
    }
    f.i32_const(c);
    f.i32_add();
    f.i32_const(m);
    f.num(NumOp::I32RemS);
    f.num(NumOp::F64ConvertI32S);
    f.f64_const(d);
    f.f64_div();
}

/// The native mirror of [`frac_init`].
pub fn frac_init_native(i: i32, j: i32, a: i32, b: i32, c: i32, m: i32, d: f64) -> f64 {
    f64::from(
        (i.wrapping_mul(a)
            .wrapping_add(j.wrapping_mul(b))
            .wrapping_add(c))
            % m,
    ) / d
}

/// Emits a checksum loop over a matrix into `acc` (an f64 local):
/// `acc += M[i][j] * (1 + (i*cols+j) % 7)` — position-sensitive so
/// transposition bugs are caught.
pub fn checksum_mat(
    f: &mut FuncBuilder,
    m: Mat,
    rows: usize,
    cols: usize,
    i: u32,
    j: u32,
    acc: u32,
) {
    for_n(f, i, rows, |f| {
        for_n(f, j, cols, |f| {
            f.local_get(acc);
            m.load(f, i, j);
            f.local_get(i);
            f.i32_const(m.cols);
            f.i32_mul();
            f.local_get(j);
            f.i32_add();
            f.i32_const(7);
            f.num(NumOp::I32RemS);
            f.i32_const(1);
            f.i32_add();
            f.num(NumOp::F64ConvertI32S);
            f.f64_mul();
            f.f64_add();
            f.local_set(acc);
        });
    });
}

/// Native mirror of [`checksum_mat`].
pub fn checksum_mat_native(m: &[f64], rows: usize, cols: usize) -> f64 {
    checksum_mat_native_acc(m, rows, cols, 0.0)
}

/// Continues a running matrix checksum from `acc` (see
/// [`checksum_vec_native_acc`]).
pub fn checksum_mat_native_acc(m: &[f64], rows: usize, cols: usize, mut acc: f64) -> f64 {
    for i in 0..rows {
        for j in 0..cols {
            let pos = (i * cols + j) % 7 + 1;
            acc += m[i * cols + j] * pos as f64;
        }
    }
    acc
}

/// Emits a checksum loop over a vector into `acc`.
pub fn checksum_vec(f: &mut FuncBuilder, v: Vec1, n: usize, i: u32, acc: u32) {
    for_n(f, i, n, |f| {
        f.local_get(acc);
        v.load(f, i);
        f.local_get(i);
        f.i32_const(7);
        f.num(NumOp::I32RemS);
        f.i32_const(1);
        f.i32_add();
        f.num(NumOp::F64ConvertI32S);
        f.f64_mul();
        f.f64_add();
        f.local_set(acc);
    });
}

/// Native mirror of [`checksum_vec`].
pub fn checksum_vec_native(v: &[f64]) -> f64 {
    checksum_vec_native_acc(v, 0.0)
}

/// Continues a running checksum over `v` starting from `acc` — the
/// exact mirror of chaining two [`checksum_vec`] calls on the same
/// accumulator local (float addition is not associative, so the
/// mirrors must accumulate in the same order).
pub fn checksum_vec_native_acc(v: &[f64], mut acc: f64) -> f64 {
    for (i, x) in v.iter().enumerate() {
        acc += x * (i % 7 + 1) as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_interp::{Imports, Instance, Value};

    #[test]
    fn layout_allocates_disjoint_ranges() {
        let mut l = Layout::new();
        let a = l.mat(4, 4);
        let b = l.mat(4, 4);
        let v = l.vec(10);
        assert_eq!(b.base, a.base + 128);
        assert_eq!(v.base, b.base + 128);
        assert_eq!(l.pages(), 2);
    }

    #[test]
    fn frac_init_matches_native() {
        let mut layout = Layout::new();
        let _scratch = layout.vec(1);
        let m = kernel_module(&layout, |f| {
            let i = f.local(ValType::I32);
            let j = f.local(ValType::I32);
            f.i32_const(5);
            f.local_set(i);
            f.i32_const(3);
            f.local_set(j);
            frac_init(f, i, Some(j), 2, 3, 1, 13, 13.0);
        });
        let mut inst = Instance::new(&m, Imports::new()).unwrap();
        let out = inst.invoke("run", &[]).unwrap();
        assert_eq!(
            out[0],
            Value::F64(frac_init_native(5, 3, 2, 3, 1, 13, 13.0))
        );
    }

    #[test]
    fn checksum_mirrors_agree() {
        // Fill a small matrix in wasm using frac_init and checksum it;
        // compare with the native mirror.
        const N: usize = 5;
        let mut layout = Layout::new();
        let a = layout.mat(N, N);
        let m = kernel_module(&layout, move |f| {
            let i = f.local(ValType::I32);
            let j = f.local(ValType::I32);
            let acc = f.local(ValType::F64);
            for_n(f, i, N, |f| {
                for_n(f, j, N, |f| {
                    a.store(f, i, j, |f| frac_init(f, i, Some(j), 1, 2, 0, 11, 11.0));
                });
            });
            checksum_mat(f, a, N, N, i, j, acc);
            f.local_get(acc);
        });
        let mut inst = Instance::new(&m, Imports::new()).unwrap();
        let wasm = inst.invoke("run", &[]).unwrap()[0].as_f64();

        let mut native = vec![0.0; N * N];
        for i in 0..N {
            for j in 0..N {
                native[i * N + j] = frac_init_native(i as i32, j as i32, 1, 2, 0, 11, 11.0);
            }
        }
        assert_eq!(wasm, checksum_mat_native(&native, N, N));
    }
}
