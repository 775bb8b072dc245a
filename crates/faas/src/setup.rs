//! The six experimental setups of Fig 9.

use std::fmt;

use crate::rig::FunctionKind;

/// One bar group of Fig 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Setup {
    /// WebAssembly in the plain runtime (no SGX).
    Wasm,
    /// WebAssembly on SGX-LKL in simulation mode (LKL layer costs, no
    /// hardware protection costs).
    WasmSgxSim,
    /// WebAssembly on SGX-LKL in hardware mode (adds MEE/EPC costs).
    WasmSgxHw,
    /// Hardware mode + accounting instrumentation (loop-based).
    WasmSgxHwInstr,
    /// Hardware mode + instrumentation + I/O accounting.
    WasmSgxHwIo,
    /// The dynamic-language baseline (MiniJS, standing in for JS on
    /// OpenFaaS).
    Js,
}

impl Setup {
    /// All setups in Fig 9 order.
    pub const ALL: &'static [Setup] = &[
        Setup::Wasm,
        Setup::WasmSgxSim,
        Setup::WasmSgxHw,
        Setup::WasmSgxHwInstr,
        Setup::WasmSgxHwIo,
        Setup::Js,
    ];

    /// Whether the module runs instrumented (on the served path, which
    /// also meters I/O).
    pub fn instrumented(self) -> bool {
        matches!(self, Setup::WasmSgxHwInstr | Setup::WasmSgxHwIo)
    }

    /// Whether the SGX-LKL layer is on the request path.
    pub fn lkl(self) -> bool {
        !matches!(self, Setup::Wasm | Setup::Js)
    }

    /// Whether SGX hardware-mode costs (MEE, EPC, transitions) apply.
    pub fn sgx_hw(self) -> bool {
        matches!(
            self,
            Setup::WasmSgxHw | Setup::WasmSgxHwInstr | Setup::WasmSgxHwIo
        )
    }
}

impl fmt::Display for Setup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Setup::Wasm => "WASM",
            Setup::WasmSgxSim => "WASM-SGX SIM",
            Setup::WasmSgxHw => "WASM-SGX HW",
            Setup::WasmSgxHwInstr => "WASM-SGX HW instr.",
            Setup::WasmSgxHwIo => "WASM-SGX HW I/O",
            Setup::Js => "JS",
        };
        f.write_str(s)
    }
}

/// Modelled per-request overheads, in virtual nanoseconds, for the
/// layers we do not execute for real (HTTP server, SGX-LKL syscall
/// path, enclave transitions). Values are calibrated so the *ratios*
/// between setups at small payloads match Fig 9 (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy)]
pub struct OverheadModel {
    /// HTTP request handling + module instantiation outside SGX.
    pub base_ns: u64,
    /// Extra per-request cost of the SGX-LKL layer (user-level
    /// threading, in-enclave syscall dispatch).
    pub lkl_ns: u64,
    /// Extra per-request cost of real enclave transitions in hardware
    /// mode.
    pub hw_transition_ns: u64,
    /// Per-byte cost of moving payload bytes through the plain network
    /// stack.
    pub per_byte_ns: u64,
    /// Per-byte cost of moving payload bytes across the enclave
    /// boundary (copy + encrypt).
    pub lkl_per_byte_ns: u64,
    /// Per-request cost of the JS baseline's deployment path (the
    /// paper deploys JS on OpenFaaS, whose classic watchdog forks a
    /// process per request — the dominant cost of its echo bars).
    pub js_ns: u64,
}

impl Default for OverheadModel {
    fn default() -> OverheadModel {
        OverheadModel {
            base_ns: 1_200_000,        // ~0.83 kreq/s ceiling, close to Fig 9 echo
            lkl_ns: 1_400_000,         // SIM echo drops ~2.1x
            hw_transition_ns: 600_000, // HW drops further on small requests
            per_byte_ns: 150,
            lkl_per_byte_ns: 550,
            js_ns: 400_000_000, // OpenFaaS fork-per-request watchdog
        }
    }
}

impl OverheadModel {
    /// The modelled (non-executed) portion of one request's service
    /// time for `setup` with `payload` request bytes.
    pub fn request_overhead_ns(&self, setup: Setup, payload: usize) -> u64 {
        let mut ns = self.base_ns + self.per_byte_ns * payload as u64;
        if setup.lkl() {
            ns += self.lkl_ns + self.lkl_per_byte_ns * payload as u64;
        }
        if setup.sgx_hw() {
            ns += self.hw_transition_ns;
        }
        if setup == Setup::Js {
            ns += self.js_ns;
        }
        ns
    }

    /// SGX hardware-mode execution slowdown of `kind`, from the cycle
    /// model: echo moves bytes (boundary cost dominates, factor near
    /// 1); resize computes over a working set far below the EPC, so the
    /// factor is the MEE-less in-cache ratio, close to 1 as the paper
    /// observes for compute-heavy functions.
    fn hw_exec_factor(&self, kind: FunctionKind) -> f64 {
        match kind {
            FunctionKind::Echo => 1.05,
            FunctionKind::Resize => 1.5,
        }
    }

    /// One request's service time under `setup`: the measured
    /// `exec_ns` (scaled by `kind`'s hardware-mode slowdown on the
    /// hardware-mode rows) plus [`OverheadModel::request_overhead_ns`].
    pub fn service_ns(
        &self,
        kind: FunctionKind,
        setup: Setup,
        exec_ns: u64,
        payload: usize,
    ) -> u64 {
        let exec_ns = if setup.sgx_hw() {
            (exec_ns as f64 * self.hw_exec_factor(kind)) as u64
        } else {
            exec_ns
        };
        exec_ns.max(1) + self.request_overhead_ns(setup, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_flags() {
        assert!(!Setup::Wasm.lkl());
        assert!(Setup::WasmSgxSim.lkl());
        assert!(!Setup::WasmSgxSim.sgx_hw());
        assert!(Setup::WasmSgxHwIo.sgx_hw());
        assert!(Setup::WasmSgxHwIo.instrumented());
        assert_eq!(Setup::ALL.len(), 6);
    }

    #[test]
    fn overheads_are_ordered() {
        let m = OverheadModel::default();
        let wasm = m.request_overhead_ns(Setup::Wasm, 4096);
        let sim = m.request_overhead_ns(Setup::WasmSgxSim, 4096);
        let hw = m.request_overhead_ns(Setup::WasmSgxHw, 4096);
        assert!(wasm < sim && sim < hw);
        // Bigger payloads cost more through the enclave boundary.
        assert!(
            m.request_overhead_ns(Setup::WasmSgxHw, 1 << 20)
                > m.request_overhead_ns(Setup::Wasm, 1 << 20)
        );
    }
}
