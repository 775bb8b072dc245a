//! Output and billing checks shared by the live run and the replay.

use std::collections::HashMap;
use std::sync::Mutex;

use acctee_fleet::result_key;
use acctee_interp::Value;
use acctee_sgx::crypto::sha256;

use crate::gen::{Call, Expect};

/// Inputs at most this long (PolyBench's none, darknet's variant) recur
/// across reps; longer ones are random payloads that never recur.
const RECURRING_INPUT: usize = 64;

/// Checks every answer against its native mirror and pins the billed
/// weighted-instruction count of each `(module, input)` pair: a repeat
/// that bills differently is a failure, wherever it was seen first.
#[derive(Default)]
pub struct Checker {
    state: Mutex<Pins>,
}

#[derive(Default)]
struct Pins {
    wic: HashMap<[u8; 32], u64>,
    /// Pins of non-recurring inputs made during the current rep.
    transient: Vec<[u8; 32]>,
}

impl Checker {
    /// True when `results`/`output` are what `call` expects and
    /// `weighted_instructions` matches every earlier bill for the same
    /// module and input.
    pub fn check(
        &self,
        module: &str,
        call: &Call,
        results: &[Value],
        output: &[u8],
        weighted_instructions: u64,
    ) -> bool {
        let right = match &call.expect {
            Expect::F64Bits(bits) => {
                matches!(results, [Value::F64(x)] if x.to_bits() == *bits)
            }
            Expect::Int(v) => results.len() == 1 && result_key(results) == *v,
            Expect::Output(want) => output == want.as_slice(),
        };
        let mut key_bytes = module.as_bytes().to_vec();
        key_bytes.extend_from_slice(&call.input_key());
        let key = sha256(&key_bytes);
        let mut pins = self.state.lock().expect("checker lock poisoned");
        let pinned = match pins.wic.get(&key) {
            Some(&w) => w,
            None => {
                pins.wic.insert(key, weighted_instructions);
                if call.input.len() > RECURRING_INPUT {
                    pins.transient.push(key);
                }
                weighted_instructions
            }
        };
        right && pinned == weighted_instructions
    }

    /// Ends a rep. Rep 0's pins stay (the replay re-bills rep 0's
    /// requests against them); later reps' non-recurring pins are
    /// dropped, so memory does not grow with the number of reps.
    pub fn end_rep(&self, rep: u64) {
        let mut pins = self.state.lock().expect("checker lock poisoned");
        let transient = std::mem::take(&mut pins.transient);
        if rep > 0 {
            for key in transient {
                pins.wic.remove(&key);
            }
        }
    }
}
