//! The FaaS evaluation functions of §5.3 / Fig 9: `echo` and `resize`.
//!
//! The wire protocol for both functions: the request payload arrives
//! through the metered `env.input_len` / `env.read_input` imports and
//! the response leaves through `env.write_output` (see
//! `acctee::io`).
//!
//! * `echo` replies with its input, byte for byte.
//! * `resize` expects `[w: u32 LE][h: u32 LE][w*h*3 RGB bytes]` and
//!   replies with a 64x64 RGB image, bilinearly resampled — the
//!   compute-heavy function of the pair (the paper used JPEG via
//!   zupply; raw RGB exercises the same arithmetic without an
//!   entropy-coding dependency, see DESIGN.md).
//!
//! A MiniJS implementation of both functions provides the paper's "JS"
//! baseline.

use acctee_wasm::builder::{Bound, ModuleBuilder};
use acctee_wasm::op::{LoadOp, NumOp, StoreOp};
use acctee_wasm::types::ValType;
use acctee_wasm::Module;

/// Output edge length of the resize function (the paper scales to
/// 64 x 64).
pub const OUT_SIZE: usize = 64;

const INPUT_OFF: i32 = 1024;

/// Builds the `echo` module: `main()` copies the request to the
/// response.
pub fn echo_module() -> Module {
    let mut b = ModuleBuilder::new();
    let input_len = b.import_func("env", "input_len", &[], &[ValType::I32]);
    let read_input = b.import_func(
        "env",
        "read_input",
        &[ValType::I32, ValType::I32],
        &[ValType::I32],
    );
    let write_output = b.import_func(
        "env",
        "write_output",
        &[ValType::I32, ValType::I32],
        &[ValType::I32],
    );
    b.memory(64, None);
    let f = b.func("main", &[], &[ValType::I32], |f| {
        let n = f.local(ValType::I32);
        f.i32_const(INPUT_OFF);
        f.call(input_len);
        f.call(read_input);
        f.local_set(n);
        f.i32_const(INPUT_OFF);
        f.local_get(n);
        f.call(write_output);
    });
    b.export_func("main", f);
    b.build()
}

/// Builds the `resize` module: `main()` parses the header, bilinearly
/// resamples to 64x64 RGB and writes the result.
pub fn resize_module() -> Module {
    let mut b = ModuleBuilder::new();
    let input_len = b.import_func("env", "input_len", &[], &[ValType::I32]);
    let read_input = b.import_func(
        "env",
        "read_input",
        &[ValType::I32, ValType::I32],
        &[ValType::I32],
    );
    let write_output = b.import_func(
        "env",
        "write_output",
        &[ValType::I32, ValType::I32],
        &[ValType::I32],
    );
    // Up to 1024x1024x3 input + output + header: 4 MiB of memory.
    b.memory(64, None);
    let f = b.func("main", &[], &[ValType::I32], |f| {
        use Bound::Const as C;
        let n = f.local(ValType::I32);
        let w = f.local(ValType::I32);
        let h = f.local(ValType::I32);
        let ox = f.local(ValType::I32);
        let oy = f.local(ValType::I32);
        let c = f.local(ValType::I32);
        let x0 = f.local(ValType::I32);
        let y0 = f.local(ValType::I32);
        let x1 = f.local(ValType::I32);
        let y1 = f.local(ValType::I32);
        let sx = f.local(ValType::F64);
        let sy = f.local(ValType::F64);
        let fx = f.local(ValType::F64);
        let fy = f.local(ValType::F64);
        let val = f.local(ValType::F64);
        let out_ptr = f.local(ValType::I32);
        let grow = f.local(ValType::I32);

        // Read entire input.
        f.call(input_len);
        f.local_set(n);
        // Grow memory if needed: need INPUT_OFF + n + out bytes.
        f.local_get(n);
        f.i32_const(INPUT_OFF + (OUT_SIZE * OUT_SIZE * 3) as i32 + 65536);
        f.i32_add();
        f.i32_const(16);
        f.num(NumOp::I32ShrU);
        f.emit(acctee_wasm::instr::Instr::MemorySize);
        f.i32_sub();
        f.local_set(grow);
        f.local_get(grow);
        f.i32_const(0);
        f.num(NumOp::I32GtS);
        f.if_(acctee_wasm::instr::BlockType::Empty, |f| {
            f.local_get(grow);
            f.emit(acctee_wasm::instr::Instr::MemoryGrow);
            f.drop_();
        });
        f.i32_const(INPUT_OFF);
        f.local_get(n);
        f.call(read_input);
        f.drop_();
        // Parse header.
        f.i32_const(INPUT_OFF);
        f.load(LoadOp::I32Load, 0);
        f.local_set(w);
        f.i32_const(INPUT_OFF);
        f.load(LoadOp::I32Load, 4);
        f.local_set(h);
        // out region starts right after the input pixels.
        f.i32_const(INPUT_OFF + 8);
        f.local_get(w);
        f.local_get(h);
        f.i32_mul();
        f.i32_const(3);
        f.i32_mul();
        f.i32_add();
        f.local_set(out_ptr);

        // Helper: pixel address = INPUT_OFF+8 + ((y*w + x)*3 + c)
        let pixel_load = |f: &mut acctee_wasm::builder::FuncBuilder, y: u32, x: u32, c: u32| {
            f.local_get(y);
            f.local_get(w);
            f.i32_mul();
            f.local_get(x);
            f.i32_add();
            f.i32_const(3);
            f.i32_mul();
            f.local_get(c);
            f.i32_add();
            f.load(LoadOp::I32Load8U, (INPUT_OFF + 8) as u32);
            f.num(NumOp::F64ConvertI32S);
        };

        f.for_loop(oy, C(0), C(OUT_SIZE as i32), |f| {
            // sy = (oy + 0.5) * h / OUT - 0.5, clamped to [0, h-1]
            f.local_get(oy);
            f.num(NumOp::F64ConvertI32S);
            f.f64_const(0.5);
            f.f64_add();
            f.local_get(h);
            f.num(NumOp::F64ConvertI32S);
            f.f64_mul();
            f.f64_const(OUT_SIZE as f64);
            f.f64_div();
            f.f64_const(0.5);
            f.f64_sub();
            f.f64_const(0.0);
            f.num(NumOp::F64Max);
            f.local_get(h);
            f.i32_const(1);
            f.i32_sub();
            f.num(NumOp::F64ConvertI32S);
            f.num(NumOp::F64Min);
            f.local_set(sy);
            // y0 = floor(sy); y1 = min(y0+1, h-1); fy = sy - y0
            f.local_get(sy);
            f.num(NumOp::F64Floor);
            f.num(NumOp::I32TruncF64S);
            f.local_set(y0);
            // y1 = min(y0+1, h-1) via select(a, b, a < b)
            f.local_get(y0);
            f.i32_const(1);
            f.i32_add();
            f.local_get(h);
            f.i32_const(1);
            f.i32_sub();
            f.local_get(y0);
            f.i32_const(1);
            f.i32_add();
            f.local_get(h);
            f.i32_const(1);
            f.i32_sub();
            f.i32_lt_s();
            f.select();
            f.local_set(y1);
            f.local_get(sy);
            f.local_get(y0);
            f.num(NumOp::F64ConvertI32S);
            f.f64_sub();
            f.local_set(fy);
            f.for_loop(ox, C(0), C(OUT_SIZE as i32), |f| {
                // sx analogous
                f.local_get(ox);
                f.num(NumOp::F64ConvertI32S);
                f.f64_const(0.5);
                f.f64_add();
                f.local_get(w);
                f.num(NumOp::F64ConvertI32S);
                f.f64_mul();
                f.f64_const(OUT_SIZE as f64);
                f.f64_div();
                f.f64_const(0.5);
                f.f64_sub();
                f.f64_const(0.0);
                f.num(NumOp::F64Max);
                f.local_get(w);
                f.i32_const(1);
                f.i32_sub();
                f.num(NumOp::F64ConvertI32S);
                f.num(NumOp::F64Min);
                f.local_set(sx);
                f.local_get(sx);
                f.num(NumOp::F64Floor);
                f.num(NumOp::I32TruncF64S);
                f.local_set(x0);
                // x1 = min(x0+1, w-1)
                f.local_get(x0);
                f.i32_const(1);
                f.i32_add();
                f.local_get(w);
                f.i32_const(1);
                f.i32_sub();
                f.local_get(x0);
                f.i32_const(1);
                f.i32_add();
                f.local_get(w);
                f.i32_const(1);
                f.i32_sub();
                f.i32_lt_s();
                f.select();
                f.local_set(x1);
                f.local_get(sx);
                f.local_get(x0);
                f.num(NumOp::F64ConvertI32S);
                f.f64_sub();
                f.local_set(fx);
                f.for_loop(c, C(0), C(3), |f| {
                    // bilinear blend
                    // top = p00*(1-fx) + p10*fx
                    pixel_load(f, y0, x0, c);
                    f.f64_const(1.0);
                    f.local_get(fx);
                    f.f64_sub();
                    f.f64_mul();
                    pixel_load(f, y0, x1, c);
                    f.local_get(fx);
                    f.f64_mul();
                    f.f64_add();
                    // bottom
                    pixel_load(f, y1, x0, c);
                    f.f64_const(1.0);
                    f.local_get(fx);
                    f.f64_sub();
                    f.f64_mul();
                    pixel_load(f, y1, x1, c);
                    f.local_get(fx);
                    f.f64_mul();
                    f.f64_add();
                    // val = top*(1-fy) + bottom*fy
                    f.local_set(val); // bottom
                    f.f64_const(1.0);
                    f.local_get(fy);
                    f.f64_sub();
                    f.f64_mul(); // top*(1-fy)
                    f.local_get(val);
                    f.local_get(fy);
                    f.f64_mul();
                    f.f64_add();
                    f.f64_const(0.5);
                    f.f64_add();
                    f.num(NumOp::F64Floor);
                    f.local_set(val);
                    // store u8 at out_ptr + (oy*OUT + ox)*3 + c
                    f.local_get(out_ptr);
                    f.local_get(oy);
                    f.i32_const(OUT_SIZE as i32);
                    f.i32_mul();
                    f.local_get(ox);
                    f.i32_add();
                    f.i32_const(3);
                    f.i32_mul();
                    f.local_get(c);
                    f.i32_add();
                    f.i32_add();
                    f.local_get(val);
                    f.num(NumOp::I32TruncF64S);
                    f.store(StoreOp::I32Store8, 0);
                });
            });
        });
        f.local_get(out_ptr);
        f.i32_const((OUT_SIZE * OUT_SIZE * 3) as i32);
        f.call(write_output);
    });
    b.export_func("main", f);
    b.build()
}

/// Native mirror of the resize function: same formula, same rounding.
pub fn resize_native(w: usize, h: usize, pixels: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; OUT_SIZE * OUT_SIZE * 3];
    let pix = |y: usize, x: usize, c: usize| f64::from(pixels[(y * w + x) * 3 + c]);
    for oy in 0..OUT_SIZE {
        let sy = ((oy as f64 + 0.5) * h as f64 / OUT_SIZE as f64 - 0.5)
            .max(0.0)
            .min((h - 1) as f64);
        let y0 = sy.floor() as usize;
        let y1 = (y0 + 1).min(h - 1);
        let fy = sy - y0 as f64;
        for ox in 0..OUT_SIZE {
            let sx = ((ox as f64 + 0.5) * w as f64 / OUT_SIZE as f64 - 0.5)
                .max(0.0)
                .min((w - 1) as f64);
            let x0 = sx.floor() as usize;
            let x1 = (x0 + 1).min(w - 1);
            let fx = sx - x0 as f64;
            for c in 0..3 {
                let top = pix(y0, x0, c) * (1.0 - fx) + pix(y0, x1, c) * fx;
                let bottom = pix(y1, x0, c) * (1.0 - fx) + pix(y1, x1, c) * fx;
                let val = (top * (1.0 - fy) + bottom * fy + 0.5).floor();
                out[(oy * OUT_SIZE + ox) * 3 + c] = val as u8;
            }
        }
    }
    out
}

/// Builds a deterministic test image: `[w][h][pixels]`.
pub fn test_image(w: usize, h: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + w * h * 3);
    out.extend_from_slice(&(w as u32).to_le_bytes());
    out.extend_from_slice(&(h as u32).to_le_bytes());
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                out.push(((x * 3 + y * 7 + c * 11) % 256) as u8);
            }
        }
    }
    out
}

/// MiniJS source of the resize function ("JS" baseline of Fig 9).
/// Globals: `input` (array of numbers incl. 8-byte header), returns
/// the output pixel array.
pub const RESIZE_JS: &str = r#"
    let w = input[0] + input[1]*256 + input[2]*65536 + input[3]*16777216;
    let h = input[4] + input[5]*256 + input[6]*65536 + input[7]*16777216;
    let out = zeros(64*64*3);
    fn pix(w, y, x, c) { return input[8 + (y*w + x)*3 + c]; }
    for (let oy = 0; oy < 64; oy = oy + 1) {
        let sy = min(max((oy + 0.5) * h / 64 - 0.5, 0), h - 1);
        let y0 = floor(sy);
        let y1 = min(y0 + 1, h - 1);
        let fy = sy - y0;
        for (let ox = 0; ox < 64; ox = ox + 1) {
            let sx = min(max((ox + 0.5) * w / 64 - 0.5, 0), w - 1);
            let x0 = floor(sx);
            let x1 = min(x0 + 1, w - 1);
            let fx = sx - x0;
            for (let c = 0; c < 3; c = c + 1) {
                let top = pix(w, y0, x0, c)*(1 - fx) + pix(w, y0, x1, c)*fx;
                let bottom = pix(w, y1, x0, c)*(1 - fx) + pix(w, y1, x1, c)*fx;
                out[(oy*64 + ox)*3 + c] = floor(top*(1 - fy) + bottom*fy + 0.5);
            }
        }
    }
    return out;
"#;

/// MiniJS source of the echo function.
pub const ECHO_JS: &str = "return input;";

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_interp::{Imports, Instance};
    use acctee_script::Value as JsValue;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Instantiates `module` with minimal host I/O (mirrors acctee::io
    /// without the dependency); returns the instance and its output.
    fn instantiate_io<'m>(
        module: &'m Module,
        input: &[u8],
    ) -> (Instance<'m>, Rc<RefCell<Vec<u8>>>) {
        let inp = Rc::new(input.to_vec());
        let out = Rc::new(RefCell::new(Vec::new()));
        let i1 = inp.clone();
        let imports = Imports::new()
            .func("env", "input_len", move |_, _| {
                Ok(vec![acctee_interp::Value::I32(i1.len() as i32)])
            })
            .func("env", "read_input", {
                let inp = inp.clone();
                move |ctx, args| {
                    let dst = args[0].as_i32() as u32 as u64;
                    let len = (args[1].as_i32().max(0) as usize).min(inp.len());
                    ctx.memory()?.write_bytes(dst, &inp[..len])?;
                    Ok(vec![acctee_interp::Value::I32(len as i32)])
                }
            })
            .func("env", "write_output", {
                let out = out.clone();
                move |ctx, args| {
                    let src = args[0].as_i32() as u32 as u64;
                    let len = args[1].as_i32() as u32;
                    ctx.memory()?.read_append(src, len, &mut out.borrow_mut())?;
                    Ok(vec![acctee_interp::Value::I32(len as i32)])
                }
            });
        (Instance::new(module, imports).unwrap(), out)
    }

    fn run_wasm(module: &Module, input: &[u8]) -> Vec<u8> {
        let (mut inst, out) = instantiate_io(module, input);
        inst.invoke("main", &[]).unwrap();
        let result = out.borrow().clone();
        result
    }

    #[test]
    fn echo_round_trips() {
        let m = echo_module();
        acctee_wasm::validate::validate_module(&m).unwrap();
        assert_eq!(run_wasm(&m, b"payload-123"), b"payload-123");
    }

    #[test]
    fn echo_commits_what_it_touches_not_what_it_declares() {
        let m = echo_module();
        let (mut inst, out) = instantiate_io(&m, b"payload-123");
        let mem = inst.memory().unwrap();
        assert_eq!(mem.size_pages(), 64);
        assert_eq!(mem.committed_bytes(), 0);
        inst.invoke("main", &[]).unwrap();
        assert_eq!(*out.borrow(), b"payload-123");
        let committed = inst.memory().unwrap().committed_bytes();
        assert!(
            committed <= 2 * acctee_wasm::PAGE_SIZE,
            "echo committed {committed} bytes"
        );
        // The logical size, which accounting sees, is unchanged.
        assert_eq!(inst.stats().peak_memory_bytes, 64 * acctee_wasm::PAGE_SIZE);
    }

    #[test]
    fn resize_matches_native_exactly() {
        for (w, h) in [(64usize, 64usize), (16, 16), (128, 96)] {
            let img = test_image(w, h);
            let m = resize_module();
            acctee_wasm::validate::validate_module(&m).unwrap();
            let wasm_out = run_wasm(&m, &img);
            let native = resize_native(w, h, &img[8..]);
            assert_eq!(wasm_out.len(), OUT_SIZE * OUT_SIZE * 3);
            assert_eq!(wasm_out, native, "{w}x{h}");
        }
    }

    #[test]
    fn resize_js_matches_native() {
        let (w, h) = (16usize, 16usize);
        let img = test_image(w, h);
        let input = JsValue::array(img.iter().map(|b| JsValue::Num(f64::from(*b))).collect());
        let out = acctee_script::eval_program(RESIZE_JS, &[("input", input)]).unwrap();
        let arr = out.as_array().unwrap();
        let native = resize_native(w, h, &img[8..]);
        let js_bytes: Vec<u8> = arr
            .borrow()
            .iter()
            .map(|v| v.as_num().unwrap() as u8)
            .collect();
        assert_eq!(js_bytes, native);
    }

    #[test]
    fn identity_resize_of_64x64_pattern_keeps_pixels() {
        // A 64x64 input resized to 64x64 must be the identity.
        let img = test_image(64, 64);
        let m = resize_module();
        let out = run_wasm(&m, &img);
        assert_eq!(out, &img[8..]);
    }
}
