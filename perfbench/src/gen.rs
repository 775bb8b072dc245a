//! Seeded input generation. Every module and request a run sends is a
//! pure function of `(workload, seed, rep)`; the program under test
//! only ever sees the generated bytes.

use std::collections::HashSet;

use acctee::Level;
use acctee_fleet::{UnitSpec, WorkloadKind};
use acctee_interp::Value;
use acctee_sgx::crypto::sha256;
use acctee_wasm::encode::encode_module;
use acctee_workloads::{darknet, faas_fns, polybench};

/// The four traffic mixes (see `METHODOLOGY.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TenantCompute,
    BillingSmall,
    DeployChurn,
    FleetCampaign,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "tenant_compute" => Some(Workload::TenantCompute),
            "billing_small" => Some(Workload::BillingSmall),
            "deploy_churn" => Some(Workload::DeployChurn),
            "fleet_campaign" => Some(Workload::FleetCampaign),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TenantCompute => "tenant_compute",
            Workload::BillingSmall => "billing_small",
            Workload::DeployChurn => "deploy_churn",
            Workload::FleetCampaign => "fleet_campaign",
        }
    }
}

/// Calls per connection per rep on `tenant_compute`: every (kernel,
/// size) pair this many times...
const TC_KERNEL_ROUNDS: usize = 3;
/// ...and this many resize and darknet calls each (~15 % apiece).
const TC_HEAVY: usize = 24;
/// PolyBench kernels and the sizes at which one accounted call takes
/// ~1–15 ms on the tree engine at `LoopBased` (measured on a 2-core
/// x86-64 host); every size is deployed.
const TC_KERNELS: &[(&str, &[usize])] = &[
    ("2mm", &[8, 10, 12]),
    ("3mm", &[8, 10]),
    ("adi", &[12, 16]),
    ("correlation", &[12, 16]),
    ("covariance", &[12, 16]),
    ("doitgen", &[6, 8]),
    ("fdtd-2d", &[12, 16]),
    ("gemm", &[10, 12, 16]),
    ("gramschmidt", &[10, 12, 16]),
    ("heat-3d", &[6, 8]),
    ("jacobi-2d", &[16]),
    ("lu", &[16]),
    ("ludcmp", &[16]),
    ("seidel-2d", &[16]),
    ("symm", &[10, 12, 16]),
    ("syr2k", &[10, 12, 16]),
    ("syrk", &[12, 16]),
    ("trmm", &[12, 16]),
];
/// Darknet stand-in input edge lengths (~4–8 ms per call).
const TC_DARKNET: &[usize] = &[12, 14, 16];

/// Echo deployments, one per tenant in the pool.
const BS_TENANTS: usize = 16;
/// Pipelined windows per connection per rep on `billing_small`.
const BS_WINDOWS: usize = 64;
/// Invokes pipelined per window.
pub const BS_WINDOW: usize = 8;

/// Never-seen modules connection A deploys per rep on `deploy_churn`.
const DC_DEPLOYS: usize = 40;
/// Invokes connection B sends per rep on `deploy_churn`.
const DC_B_CALLS: usize = 400;
/// Already-deployed functions connection B invokes.
const DC_B_SLOTS: usize = 4;
/// Kernels cheap enough (<1 ms at n ≤ 8) for B's steady invokes.
const DC_B_KERNELS: &[&str] = &["atax", "bicg", "gesummv", "mvt", "trisolv", "durbin"];

/// Work units per rep on `fleet_campaign`.
const FL_UNITS: u64 = 160;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream, rep)` triple, so reps and
    /// workloads draw independent streams.
    pub fn for_rep(seed: u64, stream: &str, rep: u64) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.0 ^= r
            .next_u64()
            .wrapping_add(rep.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a correct answer looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A single `f64` result, compared bit for bit (PolyBench, darknet).
    F64Bits(u64),
    /// A single integer result (msieve, subsetsum).
    Int(i64),
    /// The function's output bytes (echo, resize).
    Output(Vec<u8>),
}

/// One invoke: which deployment, what to send, what must come back.
#[derive(Debug, Clone)]
pub struct Call {
    /// Index into [`Plan::setup`] (ignored for [`Op::Deploy`]).
    pub slot: usize,
    pub func: &'static str,
    pub args: Vec<Value>,
    pub input: Vec<u8>,
    pub tenant: String,
    pub expect: Expect,
}

impl Call {
    /// Identifies `(module, input)` for the repeat-exactly check on
    /// weighted instructions.
    pub fn input_key(&self) -> [u8; 32] {
        let mut buf = self.func.as_bytes().to_vec();
        for a in &self.args {
            buf.extend_from_slice(format!("{a:?}").as_bytes());
        }
        buf.extend_from_slice(&self.input);
        sha256(&buf)
    }
}

/// A module to deploy plus the first call that proves it serves.
#[derive(Debug, Clone)]
pub struct ModuleSpec {
    pub label: String,
    pub bytes: Vec<u8>,
    pub level: Level,
    pub first: Call,
}

impl ModuleSpec {
    /// What the instrumentation cache keys on (with the weight table,
    /// which is fixed): a repeat of this pair is a cache hit.
    pub fn cache_key(&self) -> ([u8; 32], Level) {
        (sha256(&self.bytes), self.level)
    }
}

/// One closed-loop step of a connection.
#[derive(Debug, Clone)]
pub enum Op {
    /// One invoke, waited for.
    Invoke(Call),
    /// Invokes pipelined on one deployment, waited for together.
    Window(Vec<Call>),
    /// Deploy a never-seen module, verify it, invoke it once.
    Deploy(ModuleSpec),
}

/// Everything one rep of a serving workload sends.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Deployed (and first-invoked) during set-up.
    pub setup: Vec<ModuleSpec>,
    /// Per-connection op sequences.
    pub conns: Vec<Vec<Op>>,
}

/// The serving plan for one rep.
pub fn plan(w: Workload, seed: u64, rep: u64) -> Plan {
    let mut rng = Rng::for_rep(seed, w.name(), rep);
    match w {
        Workload::TenantCompute => tenant_compute(&mut rng),
        Workload::BillingSmall => billing_small(&mut rng),
        Workload::DeployChurn => deploy_churn(&mut rng),
        Workload::FleetCampaign => panic!("fleet_campaign has no serving plan"),
    }
}

fn tenant_name(rng: &mut Rng) -> String {
    format!("tenant-{:08x}", rng.next_u64() as u32)
}

fn kernel(name: &str) -> polybench::Kernel {
    polybench::by_name(name).expect("kernel in the PolyBench suite")
}

/// A PolyBench module spec: `run() -> f64` must equal the native
/// mirror's checksum bit for bit.
fn polybench_spec(name: &str, n: usize, level: Level, slot: usize, tenant: &str) -> ModuleSpec {
    let k = kernel(name);
    ModuleSpec {
        label: format!("{name}/n{n}/{level}"),
        bytes: encode_module(&(k.build)(n)),
        level,
        first: Call {
            slot,
            func: "run",
            args: Vec::new(),
            input: Vec::new(),
            tenant: tenant.to_string(),
            expect: Expect::F64Bits((k.native)(n).to_bits()),
        },
    }
}

fn resize_call(rng: &mut Rng, slot: usize, tenant: &str) -> Call {
    let (w, h) = (rng.range(16, 128), rng.range(16, 128));
    let pixels = rng.bytes(w * h * 3);
    let mut input = Vec::with_capacity(8 + pixels.len());
    input.extend_from_slice(&(w as u32).to_le_bytes());
    input.extend_from_slice(&(h as u32).to_le_bytes());
    input.extend_from_slice(&pixels);
    Call {
        slot,
        func: "main",
        args: Vec::new(),
        input,
        tenant: tenant.to_string(),
        expect: Expect::Output(faas_fns::resize_native(w, h, &pixels)),
    }
}

fn darknet_call(rng: &mut Rng, s: usize, slot: usize, tenant: &str) -> Call {
    let variant = rng.below(1000) as i32;
    Call {
        slot,
        func: "run",
        args: vec![Value::I32(variant)],
        input: Vec::new(),
        tenant: tenant.to_string(),
        expect: Expect::F64Bits(darknet::darknet_native(s, variant).to_bits()),
    }
}

fn echo_call(rng: &mut Rng, slot: usize, tenant: &str) -> Call {
    let len = rng.range(16, 4096);
    let input = rng.bytes(len);
    Call {
        slot,
        func: "main",
        args: Vec::new(),
        expect: Expect::Output(input.clone()),
        input,
        tenant: tenant.to_string(),
    }
}

fn tenant_compute(rng: &mut Rng) -> Plan {
    let tenants = [tenant_name(rng), tenant_name(rng)];
    let mut setup = Vec::new();
    for (name, sizes) in TC_KERNELS {
        for &n in *sizes {
            let slot = setup.len();
            setup.push(polybench_spec(name, n, Level::LoopBased, slot, &tenants[0]));
        }
    }
    let kernels = setup.len();
    let resize_slot = setup.len();
    setup.push(ModuleSpec {
        label: "resize".into(),
        bytes: encode_module(&faas_fns::resize_module()),
        level: Level::LoopBased,
        first: resize_call(rng, resize_slot, &tenants[0]),
    });
    let darknet_slot = setup.len();
    for &s in TC_DARKNET {
        let slot = setup.len();
        setup.push(ModuleSpec {
            label: format!("darknet/s{s}"),
            bytes: encode_module(&darknet::darknet_module(s)),
            level: Level::LoopBased,
            first: darknet_call(rng, s, slot, &tenants[0]),
        });
    }
    // Fixed shares in a seeded order: every (kernel, size) pair equally
    // often, then resize and darknet at ~15 % each, so a rep's total
    // work does not swing with what the draw happened to pick.
    let conns = tenants
        .iter()
        .map(|tenant| {
            let mut ops = Vec::new();
            for _ in 0..TC_KERNEL_ROUNDS {
                ops.extend((0..kernels).map(|slot| {
                    Op::Invoke(Call {
                        tenant: tenant.clone(),
                        ..setup[slot].first.clone()
                    })
                }));
            }
            for i in 0..TC_HEAVY {
                ops.push(Op::Invoke(resize_call(rng, resize_slot, tenant)));
                let d = i % TC_DARKNET.len();
                let call = darknet_call(rng, TC_DARKNET[d], darknet_slot + d, tenant);
                ops.push(Op::Invoke(call));
            }
            rng.shuffle(&mut ops);
            ops
        })
        .collect();
    Plan { setup, conns }
}

fn billing_small(rng: &mut Rng) -> Plan {
    let bytes = encode_module(&faas_fns::echo_module());
    let tenants: Vec<String> = (0..BS_TENANTS).map(|_| tenant_name(rng)).collect();
    let setup: Vec<ModuleSpec> = tenants
        .iter()
        .enumerate()
        .map(|(slot, tenant)| ModuleSpec {
            label: format!("echo#{slot}"),
            bytes: bytes.clone(),
            level: Level::LoopBased,
            first: echo_call(rng, slot, tenant),
        })
        .collect();
    let conns = (0..2)
        .map(|_| {
            (0..BS_WINDOWS)
                .map(|_| {
                    let slot = rng.below(tenants.len());
                    Op::Window(
                        (0..BS_WINDOW)
                            .map(|_| echo_call(rng, slot, &tenants[slot]))
                            .collect(),
                    )
                })
                .collect()
        })
        .collect();
    Plan { setup, conns }
}

/// A never-seen module for `deploy_churn`: a PolyBench kernel × size ×
/// level, or a msieve/subsetsum batch with seeded constants.
fn churn_module(rng: &mut Rng, tenant: &str) -> ModuleSpec {
    if rng.below(10) < 7 {
        let all = polybench::all();
        let k = rng.pick(&all);
        let level = *rng.pick(&[Level::Naive, Level::FlowBased, Level::LoopBased]);
        polybench_spec(k.name, rng.range(4, 8), level, 0, tenant)
    } else {
        let kind = *rng.pick(&[WorkloadKind::Msieve, WorkloadKind::SubsetSum]);
        let spec = UnitSpec {
            id: 0,
            kind,
            count: rng.range(4, 8) as u32,
            seed: rng.next_u64(),
        };
        ModuleSpec {
            label: format!("{}/c{}/{:016x}", kind.name(), spec.count, spec.seed),
            bytes: spec.module_bytes(),
            level: Level::LoopBased,
            first: Call {
                slot: 0,
                func: "run",
                args: Vec::new(),
                input: Vec::new(),
                tenant: tenant.to_string(),
                expect: Expect::Int(spec.expected_result()),
            },
        }
    }
}

fn deploy_churn(rng: &mut Rng) -> Plan {
    let tenants = [tenant_name(rng), tenant_name(rng)];
    let mut seen = HashSet::new();
    let mut setup = Vec::new();
    while setup.len() < DC_B_SLOTS {
        let name = DC_B_KERNELS[rng.below(DC_B_KERNELS.len())];
        let spec = polybench_spec(
            name,
            rng.range(6, 8),
            Level::LoopBased,
            setup.len(),
            &tenants[1],
        );
        if seen.insert(spec.cache_key()) {
            setup.push(spec);
        }
    }
    let mut deploys = Vec::with_capacity(DC_DEPLOYS);
    while deploys.len() < DC_DEPLOYS {
        let spec = churn_module(rng, &tenants[0]);
        if seen.insert(spec.cache_key()) {
            deploys.push(Op::Deploy(spec));
        }
    }
    let invokes = (0..DC_B_CALLS)
        .map(|_| {
            let slot = rng.below(setup.len());
            Op::Invoke(setup[slot].first.clone())
        })
        .collect();
    Plan {
        setup,
        conns: vec![deploys, invokes],
    }
}

/// The campaign for one rep of `fleet_campaign`: a seeded mix of
/// msieve and subsetsum units.
pub fn fleet_units(seed: u64, rep: u64) -> Vec<UnitSpec> {
    let mut rng = Rng::for_rep(seed, Workload::FleetCampaign.name(), rep);
    // Kinds alternate and counts cycle through their ranges, so every
    // rep carries the same mix; the seed draws the batch constants and
    // the order.
    let mut mix: Vec<(WorkloadKind, u32)> = (0..FL_UNITS)
        .map(|i| {
            let step = (i / 2) as u32;
            if i % 2 == 0 {
                (WorkloadKind::SubsetSum, 8 + step % 5)
            } else {
                (WorkloadKind::Msieve, 6 + step % 5)
            }
        })
        .collect();
    rng.shuffle(&mut mix);
    mix.into_iter()
        .zip(0..)
        .map(|((kind, count), id)| UnitSpec {
            id,
            kind,
            count,
            seed: rng.next_u64(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_net::wire::{encode_request, Request};

    /// Every byte a plan would put on the wire, plus its expectations.
    fn fingerprint(p: &Plan) -> Vec<u8> {
        let mut out = Vec::new();
        let call = |c: &Call, out: &mut Vec<u8>| {
            out.extend_from_slice(&encode_request(&Request::Invoke {
                deploy_id: c.slot as u64,
                func: c.func.to_string(),
                args: c.args.clone(),
                input: c.input.clone(),
                tenant: c.tenant.clone(),
                trace_id: 0,
            }));
            out.extend_from_slice(format!("{:?}", c.expect).as_bytes());
        };
        let module = |m: &ModuleSpec, out: &mut Vec<u8>| {
            out.extend_from_slice(&encode_request(&Request::Deploy {
                level: m.level,
                module: m.bytes.clone(),
                trace_id: 0,
            }));
            call(&m.first, out);
        };
        for m in &p.setup {
            module(m, &mut out);
        }
        for ops in &p.conns {
            for op in ops {
                match op {
                    Op::Invoke(c) => call(c, &mut out),
                    Op::Window(cs) => cs.iter().for_each(|c| call(c, &mut out)),
                    Op::Deploy(m) => module(m, &mut out),
                }
            }
        }
        out
    }

    const SERVING: [Workload; 3] = [
        Workload::TenantCompute,
        Workload::BillingSmall,
        Workload::DeployChurn,
    ];

    #[test]
    fn same_seed_gives_byte_identical_requests_and_modules() {
        for w in SERVING {
            for rep in 0..2 {
                assert_eq!(
                    fingerprint(&plan(w, 7, rep)),
                    fingerprint(&plan(w, 7, rep)),
                    "{}",
                    w.name()
                );
            }
        }
        assert_eq!(fleet_units(7, 0), fleet_units(7, 0));
    }

    #[test]
    fn another_seed_or_rep_gives_other_requests() {
        for w in SERVING {
            let base = fingerprint(&plan(w, 7, 0));
            assert_ne!(base, fingerprint(&plan(w, 8, 0)), "{}", w.name());
            assert_ne!(base, fingerprint(&plan(w, 7, 1)), "{}", w.name());
        }
        assert_ne!(fleet_units(7, 0), fleet_units(8, 0));
        assert_ne!(fleet_units(7, 0), fleet_units(7, 1));
    }

    #[test]
    fn deploy_churn_never_repeats_a_cache_key() {
        for seed in [1, 2, 3, 0xdead_beef] {
            let p = plan(Workload::DeployChurn, seed, 0);
            let mut keys = HashSet::new();
            let mut n = 0;
            for m in &p.setup {
                assert!(keys.insert(m.cache_key()));
                n += 1;
            }
            for op in &p.conns[0] {
                let Op::Deploy(m) = op else {
                    panic!("connection A only deploys")
                };
                assert!(keys.insert(m.cache_key()), "{} repeats", m.label);
                n += 1;
            }
            assert_eq!(n, DC_B_SLOTS + DC_DEPLOYS);
            assert!(p.conns[1].iter().all(|op| matches!(op, Op::Invoke(_))));
        }
    }

    #[test]
    fn rng_ranges_stay_in_bounds() {
        let mut r = Rng::for_rep(1, "bounds", 0);
        for _ in 0..1000 {
            let x = r.range(16, 4096);
            assert!((16..=4096).contains(&x));
        }
    }
}
