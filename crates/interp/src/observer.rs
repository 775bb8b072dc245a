//! Execution observers: hooks that see every executed instruction and
//! memory access.
//!
//! Observers provide the *oracle* against which AccTEE's instrumented
//! counter is validated, and the event stream that drives the
//! cycle-cost model in `acctee-cachesim`.

use std::sync::Arc;

use acctee_wasm::instr::Instr;

/// Identifies a weight function: two [`InstrWeights`] with equal keys
/// must weigh every instruction identically (callers derive the key
/// from a digest of the weight table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeightsKey(pub [u8; 32]);

/// A per-instruction weight function, tagged with its [`WeightsKey`].
///
/// Handed to [`crate::CompiledModule::compile_weighted`], it lets the
/// register lowering prefix-sum each segment's weighted cost next to
/// its instruction count, so an [`Accounting::Weighted`] observer
/// receives one weighted sum per segment instead of one
/// [`Observer::on_instr`] per instruction.
#[derive(Clone)]
pub struct InstrWeights {
    key: WeightsKey,
    weigh: Arc<dyn Fn(&Instr) -> u64 + Send + Sync>,
}

impl InstrWeights {
    /// Wraps `weigh`, identified by `key`.
    pub fn new(key: WeightsKey, weigh: impl Fn(&Instr) -> u64 + Send + Sync + 'static) -> Self {
        InstrWeights {
            key,
            weigh: Arc::new(weigh),
        }
    }

    /// The key this weight function was registered under.
    pub fn key(&self) -> WeightsKey {
        self.key
    }

    /// The weight of one instruction.
    pub fn weight(&self, i: &Instr) -> u64 {
        (self.weigh)(i)
    }
}

impl std::fmt::Debug for InstrWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("InstrWeights").field(&self.key).finish()
    }
}

/// How an observer wants instruction events delivered.
///
/// The register tier asks the attached observer once per invocation:
/// it runs a [`NullObserver`] or a weighted observer itself and hands
/// every other invoke to the tree-walker, which always delivers the
/// exact per-instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Accounting {
    /// One [`Observer::on_instr`] per executed instruction, plus the
    /// full memory-access and call/return event streams. Required by
    /// profilers and the cache model.
    #[default]
    PerInstr,
    /// Fused *weighted* counting: the engine may coalesce a
    /// straight-line run of instructions into one
    /// [`Observer::on_weighted_block`] carrying its instruction count
    /// and its weighted sum under the weights with this key, and skip
    /// `on_instr`, `on_mem_access`, `on_call` and `on_return`
    /// entirely. The delivered totals still sum exactly, including
    /// partially executed blocks on a trap. Only the
    /// register tier running an artifact built with those weights
    /// ([`crate::CompiledModule::compile_weighted`]) delivers it; every
    /// other engine or artifact delivers the exact
    /// [`Accounting::PerInstr`] stream instead, so the observer must
    /// handle both and obtain the same result from either.
    Weighted(WeightsKey),
}

/// A hook invoked by the interpreter during execution.
///
/// The default implementations do nothing, so implementors override
/// only the events they need.
pub trait Observer {
    /// Called before each instruction is executed.
    ///
    /// Structured instructions (`block`, `loop`, `if`) are reported
    /// once each time they are *entered*; their `end` delimiters are
    /// never reported. This matches the accounting semantics of the
    /// instrumenter: the injected counter and an observer summing
    /// weights over this event stream agree exactly.
    fn on_instr(&mut self, _instr: &Instr) {}

    /// Called for each linear-memory access with the effective address.
    fn on_mem_access(&mut self, _addr: u64, _len: u32, _is_store: bool) {}

    /// Called when `memory.grow` executes, with the memory size in
    /// bytes afterwards (unchanged when the grow fails and returns
    /// −1).
    ///
    /// Ordering, on every engine and in every delivery mode: every
    /// instruction up to *and including* the `memory.grow` has been
    /// delivered before this call — through [`Observer::on_instr`],
    /// or through the [`Observer::on_weighted_block`] that closes the
    /// grow's segment
    /// — and no later instruction has. An observer that weighs
    /// instructions by the current memory size therefore charges the
    /// grow itself at the old size in every mode.
    fn on_mem_grow(&mut self, _new_size_bytes: usize) {}

    /// Called on function entry (after arguments are bound).
    fn on_call(&mut self, _func_idx: u32) {}

    /// Called on normal function exit (after results are produced),
    /// pairing each [`Observer::on_call`]. *Not* called when the
    /// function unwinds on a trap — observers that keep a shadow call
    /// stack must tolerate unpaired calls (see
    /// `ProfilingObserver::report`, which drains still-open frames).
    fn on_return(&mut self, _func_idx: u32) {}

    /// The delivery mode this observer needs. Defaults to the exact
    /// per-instruction stream; override to [`Accounting::Weighted`] to
    /// let the register tier fuse counter updates per basic block.
    fn accounting(&self) -> Accounting {
        Accounting::PerInstr
    }

    /// Called with a fused instruction count and its weighted sum for
    /// a straight-line run, only when [`Observer::accounting`]
    /// returned [`Accounting::Weighted`] and the executing artifact
    /// carries the matching weights (otherwise the run arrives as
    /// [`Observer::on_instr`] events).
    fn on_weighted_block(&mut self, _instrs: u64, _weighted: u64) {}

    /// Whether this observer ignores every event ([`NullObserver`]).
    ///
    /// The engines check this once per invoke, before
    /// [`Observer::accounting`], and, when true, dispatch to a loop
    /// where the observer calls compile away — hoisting the
    /// virtual-call null-check out of the hot loop entirely. Only override to return `true` for an observer whose
    /// every hook is a no-op.
    fn is_null(&self) -> bool {
        false
    }
}

/// An observer that does nothing (zero overhead beyond the virtual
/// dispatch).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn is_null(&self) -> bool {
        true
    }
}

/// Counts executed instructions, optionally weighted.
///
/// With the default unit weight this is the paper's *instruction
/// counter*; with a weight function it is the *weighted instruction
/// counter* oracle.
pub struct CountingObserver<F = fn(&Instr) -> u64>
where
    F: FnMut(&Instr) -> u64,
{
    /// Total accumulated (weighted) count.
    pub count: u64,
    weight: F,
}

impl CountingObserver {
    /// A unit-weight counter: every instruction counts 1.
    pub fn unit() -> CountingObserver {
        CountingObserver {
            count: 0,
            weight: |_| 1,
        }
    }
}

impl<F: FnMut(&Instr) -> u64> CountingObserver<F> {
    /// A counter using `weight` to weigh each executed instruction.
    pub fn with_weight(weight: F) -> CountingObserver<F> {
        CountingObserver { count: 0, weight }
    }
}

impl<F: FnMut(&Instr) -> u64> Observer for CountingObserver<F> {
    fn on_instr(&mut self, instr: &Instr) {
        self.count += (self.weight)(instr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_counter_counts() {
        let mut c = CountingObserver::unit();
        c.on_instr(&Instr::Nop);
        c.on_instr(&Instr::I32Const(3));
        assert_eq!(c.count, 2);
    }

    #[test]
    fn weighted_counter_weighs() {
        let mut c = CountingObserver::with_weight(|i| match i {
            Instr::Nop => 0,
            _ => 5,
        });
        c.on_instr(&Instr::Nop);
        c.on_instr(&Instr::Drop);
        assert_eq!(c.count, 5);
    }
}
