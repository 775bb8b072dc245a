//! Segmentation and counter injection: the instrumentation pass.
//!
//! The pass walks each function's structured body, partitioning it into
//! accounting segments (the CFG nodes of [`crate::cfg`]) and recording,
//! for every segment, the single point where its counter increment (a
//! *flush*) is materialised:
//!
//! * immediately **before** a segment-terminating control instruction
//!   (`br`, `br_if`, `br_table`, `return`, `unreachable`, `if`,
//!   `loop`, `call`, `call_indirect`) — so the transfer itself is
//!   already accounted when control leaves; or
//! * at the **end of the enclosing structured body** on fall-through.
//!
//! Increments are [`Charge::Add`]s (`global.get $c; i64.const w;
//! i64.add; global.set $c`) on a fresh module global the workload
//! cannot name (the module is validated first, so no pre-existing
//! instruction can reference the appended global index — requirement
//! R4 / design point D4).

use acctee_wasm::charge::{self, Charge};
use acctee_wasm::instr::{BlockType, ConstExpr, Instr};
use acctee_wasm::module::{Export, ExportKind, Global, Module};
use acctee_wasm::types::{GlobalType, ValType};
use acctee_wasm::validate::validate_module;

use crate::cfg::{flow_optimise, Cfg};
use crate::loopopt;
use crate::weights::WeightTable;

/// The instrumentation level (§3.6, evaluated in Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Level {
    /// One increment per basic block.
    Naive = 0,
    /// Naive + the two CFG transformations (push-down, min-pred).
    FlowBased = 1,
    /// Flow-based + hoisting increments out of counted loops.
    #[default]
    LoopBased = 2,
}

impl Level {
    /// The level's stable one-byte tag: the discriminant above, as the
    /// evidence binding, the wire protocol and the sealed registry all
    /// carry it.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Level::tag`].
    pub fn from_tag(tag: u8) -> Option<Level> {
        [Level::Naive, Level::FlowBased, Level::LoopBased]
            .into_iter()
            .find(|l| l.tag() == tag)
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::Naive => write!(f, "naive"),
            Level::FlowBased => write!(f, "flow-based"),
            Level::LoopBased => write!(f, "loop-based"),
        }
    }
}

/// Why instrumentation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstrumentError {
    /// The input module is invalid; instrumenting it would be unsound
    /// (e.g. it could reference the counter global's future index).
    InvalidModule(String),
    /// The input module already exports [`COUNTER_EXPORT`]; adding the
    /// counter under that name would duplicate an export, and a host
    /// reading the counter by name could read the module's own value.
    CounterExportTaken,
}

impl std::fmt::Display for InstrumentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstrumentError::InvalidModule(e) => write!(f, "invalid input module: {e}"),
            InstrumentError::CounterExportTaken => {
                write!(f, "input module already exports {COUNTER_EXPORT:?}")
            }
        }
    }
}

impl std::error::Error for InstrumentError {}

/// Statistics about one instrumentation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrumentStats {
    /// Accounting segments found across all functions.
    pub segments: usize,
    /// Counter increments actually materialised.
    pub increments: usize,
    /// Increments elided (zero amount after optimisation).
    pub elided: usize,
    /// Loops whose increments were hoisted ([`Level::LoopBased`]).
    pub loops_hoisted: usize,
    /// Binary size before instrumentation.
    pub size_before: usize,
    /// Binary size after instrumentation.
    pub size_after: usize,
}

impl InstrumentStats {
    /// Relative binary-size overhead (the §5.4 metric).
    pub fn size_overhead(&self) -> f64 {
        if self.size_before == 0 {
            return 0.0;
        }
        self.size_after as f64 / self.size_before as f64 - 1.0
    }
}

/// The result of instrumenting a module.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The rewritten module.
    pub module: Module,
    /// Index of the injected counter global.
    pub counter_global: u32,
    /// Level used.
    pub level: Level,
    /// Statistics.
    pub stats: InstrumentStats,
}

pub use acctee_wasm::charge::COUNTER_EXPORT;

/// An instruction stream with flush markers, mirroring the structured
/// body.
#[derive(Debug, Clone)]
pub(crate) enum Item {
    /// A real instruction (never block/loop/if).
    Instr(Instr),
    /// A nested block.
    Block { ty: BlockType, body: Vec<Item> },
    /// A nested loop.
    Loop { ty: BlockType, body: Vec<Item> },
    /// A nested conditional.
    If {
        ty: BlockType,
        then: Vec<Item>,
        els: Vec<Item>,
    },
    /// The flush point of segment `id`.
    Flush(usize),
}

pub(crate) struct SegmentedFunc {
    pub items: Vec<Item>,
    pub cfg: Cfg,
}

struct Walker<'w> {
    cfg: Cfg,
    weights: &'w WeightTable,
}

impl Walker<'_> {
    /// Walks `body`, appending items to `out`. `cur` is the current
    /// segment; returns the segment live at the end of `body`, or
    /// `None` if that point is unreachable.
    fn walk(
        &mut self,
        body: &[Instr],
        mut cur: Option<usize>,
        labels: &mut Vec<usize>,
        out: &mut Vec<Item>,
    ) -> Option<usize> {
        for instr in body {
            // Dead code still gets a segment so its (never-executed)
            // increments keep the module well-formed.
            let c = *cur.get_or_insert_with(|| self.cfg.add_node());
            self.cfg.weight[c] += self.weights.weight(instr);
            match instr {
                Instr::Block { ty, body } => {
                    // Fall-through entry: the segment continues inside.
                    let after = self.cfg.add_node();
                    let body = self.nested(body, c, after, after, labels);
                    out.push(Item::Block { ty: *ty, body });
                    cur = Some(after);
                }
                Instr::Loop { ty, body } => {
                    // The loop header is a branch target: fresh segment.
                    out.push(Item::Flush(c));
                    let header = self.cfg.add_node();
                    self.cfg.add_edge(c, header);
                    let after = self.cfg.add_node();
                    let body = self.nested(body, header, header, after, labels);
                    out.push(Item::Loop { ty: *ty, body });
                    cur = Some(after);
                }
                Instr::If { ty, then, els } => {
                    out.push(Item::Flush(c));
                    let after = self.cfg.add_node();
                    let t_entry = self.cfg.add_node();
                    let e_entry = self.cfg.add_node();
                    self.cfg.add_edge(c, t_entry);
                    self.cfg.add_edge(c, e_entry);
                    let then = self.nested(then, t_entry, after, after, labels);
                    let els = self.nested(els, e_entry, after, after, labels);
                    out.push(Item::If { ty: *ty, then, els });
                    cur = Some(after);
                }
                // Every other transfer ends the segment before it
                // leaves. A call is a basic-block boundary too (the
                // paper's REM-style segmentation), so periodic log
                // reads see the caller's charge.
                Instr::Br(_)
                | Instr::BrIf(_)
                | Instr::BrTable { .. }
                | Instr::Return
                | Instr::Unreachable
                | Instr::Call(_)
                | Instr::CallIndirect(_) => {
                    out.push(Item::Flush(c));
                    out.push(Item::Instr(instr.clone()));
                    let label = |l: &u32| labels[labels.len() - 1 - *l as usize];
                    match instr {
                        Instr::Br(l) | Instr::BrIf(l) => self.cfg.add_edge(c, label(l)),
                        Instr::BrTable { targets, default } => {
                            for l in targets.iter().chain([default]) {
                                self.cfg.add_edge(c, label(l));
                            }
                        }
                        _ => {}
                    }
                    cur = match instr {
                        Instr::BrIf(_) | Instr::Call(_) | Instr::CallIndirect(_) => {
                            let cont = self.cfg.add_node();
                            self.cfg.add_edge(c, cont);
                            Some(cont)
                        }
                        _ => None,
                    };
                }
                simple => out.push(Item::Instr(simple.clone())),
            }
        }
        cur
    }

    /// Walks a nested body entered in segment `entry` with `label` as
    /// its branch target, closing its fall-through end into `after`.
    fn nested(
        &mut self,
        body: &[Instr],
        entry: usize,
        label: usize,
        after: usize,
        labels: &mut Vec<usize>,
    ) -> Vec<Item> {
        labels.push(label);
        let mut items = Vec::new();
        if let Some(end) = self.walk(body, Some(entry), labels, &mut items) {
            items.push(Item::Flush(end));
            self.cfg.add_edge(end, after);
        }
        labels.pop();
        items
    }
}

pub(crate) fn segment_function(body: &[Instr], weights: &WeightTable) -> SegmentedFunc {
    let mut w = Walker {
        cfg: Cfg::new(),
        weights,
    };
    let entry = w.cfg.entry;
    let mut items = Vec::new();
    let mut labels = Vec::new();
    if let Some(end) = w.walk(body, Some(entry), &mut labels, &mut items) {
        items.push(Item::Flush(end));
    }
    SegmentedFunc { items, cfg: w.cfg }
}

/// Materialises items into instructions, emitting increments for
/// non-zero amounts.
fn materialise(
    items: &[Item],
    amounts: &[u64],
    counter: u32,
    stats: &mut InstrumentStats,
) -> Vec<Instr> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Item::Instr(i) => out.push(i.clone()),
            Item::Block { ty, body } => out.push(Instr::Block {
                ty: *ty,
                body: materialise(body, amounts, counter, stats),
            }),
            Item::Loop { ty, body } => out.push(Instr::Loop {
                ty: *ty,
                body: materialise(body, amounts, counter, stats),
            }),
            Item::If { ty, then, els } => out.push(Instr::If {
                ty: *ty,
                then: materialise(then, amounts, counter, stats),
                els: materialise(els, amounts, counter, stats),
            }),
            Item::Flush(id) => {
                let amount = amounts[*id];
                if amount == 0 {
                    stats.elided += 1;
                } else {
                    stats.increments += 1;
                    out.extend(charge::emit(&Charge::Add {
                        global: counter,
                        k: amount as i64,
                    }));
                }
            }
        }
    }
    out
}

/// Runs one pass of [`instrument`] under its telemetry span
/// (`instrument.<pass>`) and records its duration in the per-pass
/// latency histogram.
fn timed<T>(hub: &acctee_telemetry::Telemetry, span: &str, pass: impl FnOnce() -> T) -> T {
    let _s = hub.span(span, "instrument");
    let t = std::time::Instant::now();
    let out = pass();
    let name = span.trim_start_matches("instrument.");
    hub.metrics()
        .histogram_with("acctee_instrument_pass_seconds", &[("pass", name)], 1e-9)
        .observe(t.elapsed().as_nanos() as u64);
    out
}

/// Instruments `module` at `level` with `weights`.
///
/// The returned module maintains the weighted instruction counter in a
/// fresh global exported as [`COUNTER_EXPORT`]. For any terminating
/// execution the counter equals the weighted count of executed original
/// instructions.
///
/// The pass pipeline is whole-module — validate, segment (CFG
/// construction), flow-optimise (dominator push-down / min-pred),
/// hoist loops, materialise, encode — and each pass records a
/// telemetry span plus an `acctee_instrument_pass_seconds{pass=...}`
/// histogram sample, so a trace shows where instrumentation time goes.
///
/// # Errors
///
/// [`InstrumentError::InvalidModule`] if the input does not validate —
/// instrumenting an invalid module would be unsound (its code could
/// name the counter global's index) — and
/// [`InstrumentError::CounterExportTaken`] if it already exports
/// [`COUNTER_EXPORT`] (an instrumented module, for one).
pub fn instrument(
    module: &Module,
    level: Level,
    weights: &WeightTable,
) -> Result<Instrumented, InstrumentError> {
    let hub = acctee_telemetry::global();
    let mut run_span = hub
        .span("instrument", "instrument")
        .with_arg("level", level.to_string())
        .with_arg("funcs", module.funcs.len());

    timed(&hub, "instrument.validate", || {
        validate_module(module).map_err(|e| InstrumentError::InvalidModule(e.to_string()))?;
        if module.exports.iter().any(|e| e.name == COUNTER_EXPORT) {
            return Err(InstrumentError::CounterExportTaken);
        }
        Ok(())
    })?;

    let mut out = module.clone();
    let counter = out.num_globals();
    out.globals.push(Global {
        ty: GlobalType::mutable(ValType::I64),
        init: ConstExpr::I64(0),
        name: Some(COUNTER_EXPORT.into()),
    });
    out.exports.push(Export {
        name: COUNTER_EXPORT.into(),
        kind: ExportKind::Global(counter),
    });

    let mut stats = InstrumentStats {
        size_before: acctee_wasm::encode::encode_module(module).len(),
        ..InstrumentStats::default()
    };

    // Pass 1: segmentation — walk every function, building its CFG and
    // flush-marked item stream.
    let segmented: Vec<SegmentedFunc> = timed(&hub, "instrument.segment", || {
        out.funcs
            .iter()
            .map(|f| segment_function(&f.body, weights))
            .collect()
    });
    stats.segments = segmented.iter().map(|s| s.cfg.len()).sum();

    // Pass 2: flow optimisation — dominator-based push-down and
    // min-predecessor merging of per-segment amounts.
    let optimised: Vec<(Vec<Item>, Vec<u64>)> = timed(&hub, "instrument.flow_optimise", || {
        segmented
            .into_iter()
            .map(|seg| {
                let amounts = match level {
                    Level::Naive => seg.cfg.weight,
                    Level::FlowBased | Level::LoopBased => flow_optimise(&seg.cfg),
                };
                (seg.items, amounts)
            })
            .collect()
    });

    // Pass 3: loop hoisting — move per-iteration increments out of
    // counted loops (LoopBased only; identity otherwise).
    let hoisted: Vec<(Vec<Item>, Vec<u64>)> = timed(&hub, "instrument.hoist_loops", || {
        let types = &out.types;
        optimised
            .into_iter()
            .zip(out.funcs.iter_mut())
            .map(|((items, mut amounts), f)| {
                if level != Level::LoopBased {
                    return (items, amounts);
                }
                let n_params = types[f.ty as usize].params.len() as u32;
                let (locals, hoisted) = (&mut f.locals, &mut stats.loops_hoisted);
                let items =
                    loopopt::hoist_loops(items, &mut amounts, counter, locals, n_params, hoisted);
                (items, amounts)
            })
            .collect()
    });

    // Pass 4: materialisation — emit the surviving increments.
    timed(&hub, "instrument.materialise", || {
        for ((items, amounts), f) in hoisted.into_iter().zip(out.funcs.iter_mut()) {
            f.body = materialise(&items, &amounts, counter, &mut stats);
        }
    });

    // Pass 5: encode — for the §5.4 size metric.
    stats.size_after = timed(&hub, "instrument.encode", || {
        acctee_wasm::encode::encode_module(&out).len()
    });
    debug_assert!(
        validate_module(&out).is_ok(),
        "instrumented module must validate"
    );

    let m = hub.metrics();
    m.counter_with(
        "acctee_instrument_runs_total",
        &[("level", &level.to_string())],
    )
    .inc();
    m.counter("acctee_instrument_segments_total")
        .add(stats.segments as u64);
    m.counter("acctee_instrument_increments_total")
        .add(stats.increments as u64);
    m.counter("acctee_instrument_increments_elided_total")
        .add(stats.elided as u64);
    m.counter("acctee_instrument_loops_hoisted_total")
        .add(stats.loops_hoisted as u64);
    run_span.record_arg("segments", stats.segments);
    run_span.record_arg("increments", stats.increments);
    run_span.record_arg("size_after", stats.size_after);

    Ok(Instrumented {
        module: out,
        counter_global: counter,
        level,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_interp::{Config, CountingObserver, Engine, Imports, Instance, Value};
    use acctee_wasm::builder::{Bound, ModuleBuilder};
    use acctee_wasm::op::NumOp;

    /// The accounting oracle: always the tree-walker, whatever the
    /// default engine is.
    fn oracle_instance(m: &Module) -> Instance<'_> {
        let cfg = Config {
            engine: Engine::Tree,
            ..Config::default()
        };
        Instance::with_config(m, Imports::new(), cfg).expect("instantiate oracle")
    }

    /// Runs `m` both raw (with a weighted oracle observer) and
    /// instrumented at `level`, asserting the counter matches the
    /// oracle exactly.
    fn assert_counter_matches_oracle(m: &Module, level: Level, func: &str, args: &[Value]) -> u64 {
        let weights = WeightTable::uniform();
        let mut oracle = CountingObserver::unit();
        let mut inst = oracle_instance(m);
        inst.invoke_observed(func, args, &mut oracle)
            .expect("run original");

        let instrumented = instrument(m, level, &weights).expect("instrument");
        validate_module(&instrumented.module).expect("instrumented validates");
        let mut inst2 =
            Instance::new(&instrumented.module, Imports::new()).expect("instantiate instr");
        inst2.invoke("f", args).expect("run instrumented");
        let counter = inst2
            .global(COUNTER_EXPORT)
            .expect("counter exported")
            .as_i64() as u64;
        assert_eq!(counter, oracle.count, "level {level}");
        counter
    }

    fn sum_module() -> Module {
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[ValType::I32], &[ValType::I64], |f| {
            let i = f.local(ValType::I32);
            let acc = f.local(ValType::I64);
            f.for_loop(i, Bound::Const(0), Bound::Local(0), |f| {
                f.local_get(acc);
                f.local_get(i);
                f.num(NumOp::I64ExtendI32S);
                f.num(NumOp::I64Add);
                f.local_set(acc);
            });
            f.local_get(acc);
        });
        b.export_func("f", f);
        b.build()
    }

    #[test]
    fn counter_matches_oracle_all_levels() {
        let m = sum_module();
        for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
            for n in [0, 1, 7, 100] {
                assert_counter_matches_oracle(&m, level, "f", &[Value::I32(n)]);
            }
        }
    }

    #[test]
    fn branchy_module_matches_oracle() {
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
            f.block(BlockType::Value(ValType::I32), |f| {
                f.local_get(0);
                f.if_else(
                    BlockType::Value(ValType::I32),
                    |f| {
                        f.local_get(0);
                        f.i32_const(2);
                        f.i32_mul();
                    },
                    |f| {
                        f.i32_const(7);
                    },
                );
            });
        });
        b.export_func("f", f);
        let m = b.build();
        for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
            for n in [0, 1, -3] {
                assert_counter_matches_oracle(&m, level, "f", &[Value::I32(n)]);
            }
        }
    }

    #[test]
    fn calls_are_accounted_across_functions() {
        let mut b = ModuleBuilder::new();
        let helper = b.func("helper", &[ValType::I32], &[ValType::I32], |f| {
            f.local_get(0);
            f.i32_const(1);
            f.i32_add();
        });
        let f = b.func("f", &[ValType::I32], &[ValType::I32], |f| {
            f.local_get(0);
            f.call(helper);
            f.call(helper);
        });
        b.export_func("f", f);
        let m = b.build();
        for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
            assert_counter_matches_oracle(&m, level, "f", &[Value::I32(5)]);
        }
    }

    #[test]
    fn flow_based_emits_fewer_increments() {
        let m = sum_module();
        let w = WeightTable::uniform();
        let naive = instrument(&m, Level::Naive, &w).unwrap();
        let flow = instrument(&m, Level::FlowBased, &w).unwrap();
        assert!(
            flow.stats.increments <= naive.stats.increments,
            "flow {} vs naive {}",
            flow.stats.increments,
            naive.stats.increments
        );
        assert!(flow.stats.elided > 0);
    }

    #[test]
    fn invalid_module_rejected() {
        let mut b = ModuleBuilder::new();
        // References global 1 which does not exist (but will after the
        // counter is appended): the counter-capture attack of D4.
        let f = b.func("f", &[], &[], |f| {
            f.i64_const(0);
            f.emit(Instr::GlobalSet(0));
        });
        b.export_func("f", f);
        let m = b.build();
        assert!(matches!(
            instrument(&m, Level::Naive, &WeightTable::uniform()),
            Err(InstrumentError::InvalidModule(_))
        ));
    }

    #[test]
    fn module_exporting_the_counter_name_rejected() {
        let w = WeightTable::uniform();
        // An already-instrumented module exports the counter global.
        let once = instrument(&sum_module(), Level::LoopBased, &w).expect("instrument");
        assert_eq!(
            instrument(&once.module, Level::LoopBased, &w).unwrap_err(),
            InstrumentError::CounterExportTaken
        );
        // So may a tenant's function, under the counter's name.
        let mut b = ModuleBuilder::new();
        let f = b.func("f", &[], &[], |_| {});
        b.export_func(COUNTER_EXPORT, f);
        assert_eq!(
            instrument(&b.build(), Level::Naive, &w).unwrap_err(),
            InstrumentError::CounterExportTaken
        );
    }

    #[test]
    fn weighted_counter_matches_weighted_oracle() {
        let m = sum_module();
        let weights = WeightTable::calibrated();
        let mut oracle = CountingObserver::with_weight(|i| weights.weight(i));
        let mut inst = oracle_instance(&m);
        inst.invoke_observed("f", &[Value::I32(50)], &mut oracle)
            .unwrap();
        let instrumented = instrument(&m, Level::LoopBased, &weights).unwrap();
        let mut inst2 = Instance::new(&instrumented.module, Imports::new()).unwrap();
        inst2.invoke("f", &[Value::I32(50)]).unwrap();
        let counter = inst2.global(COUNTER_EXPORT).unwrap().as_i64() as u64;
        assert_eq!(counter, oracle.count);
    }

    #[test]
    fn results_unchanged_by_instrumentation() {
        let m = sum_module();
        let w = WeightTable::calibrated();
        for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
            let inst_m = instrument(&m, level, &w).unwrap();
            let mut a = Instance::new(&m, Imports::new()).unwrap();
            let mut b = Instance::new(&inst_m.module, Imports::new()).unwrap();
            for n in [0, 3, 17] {
                assert_eq!(
                    a.invoke("f", &[Value::I32(n)]).unwrap(),
                    b.invoke("f", &[Value::I32(n)]).unwrap()
                );
            }
        }
    }

    #[test]
    fn size_overhead_in_paper_range() {
        let m = sum_module();
        let w = WeightTable::uniform();
        let naive = instrument(&m, Level::Naive, &w).unwrap();
        let opt = instrument(&m, Level::LoopBased, &w).unwrap();
        // §5.4: 4-39% naive, 4-27% optimised, measured on real-sized
        // binaries. This module is tiny (the loop-hoist bookkeeping
        // outweighs the saved increment), so we only assert that
        // instrumentation grows the binary by a bounded amount here;
        // the full §5.4 distribution is regenerated by the bench
        // harness over the evaluation binaries.
        assert!(naive.stats.size_after > naive.stats.size_before);
        assert!(naive.stats.size_overhead() < 1.0);
        assert!(opt.stats.size_overhead() < 1.0);
    }

    use acctee_wasm::instr::BlockType;
    use acctee_wasm::types::ValType;
}
