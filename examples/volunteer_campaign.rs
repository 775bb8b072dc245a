//! Volunteer-computing example (§2.1 "Volunteer Computing").
//!
//! Runs a 16-unit campaign on an in-process fleet coordinator at the
//! default spot-check rate, with two honest volunteers, one that
//! inflates its signed counters and one running a modified enclave.
//! It prints how many executions each credited unit cost (full
//! redundancy costs 2.0) and the enclave-signed reimbursement
//! statements: the forger is paid nothing, the rogue never joins.
//!
//! Run with: `cargo run -p acctee-integration --example volunteer_campaign --release`

use std::time::Duration;

use acctee::Deployment;
use acctee_fleet::{
    run_worker, Behavior, Coordinator, FleetConfig, ReconcileConfig, UnitSpec, WorkerConfig,
    WorkloadKind,
};

fn main() {
    let cfg = FleetConfig {
        state_dir: std::env::temp_dir().join(format!("volunteer-campaign-{}", std::process::id())),
        ..FleetConfig::default()
    };
    let _ = std::fs::remove_dir_all(&cfg.state_dir);
    let specs = UnitSpec::campaign(16, WorkloadKind::SubsetSum, 8, 1);
    let coordinator = Coordinator::open("127.0.0.1:0", cfg.clone(), &specs).expect("open");
    let (addr, handle) = coordinator.spawn().expect("spawn");
    let volunteer = |name: &str, behavior| {
        let cfg = WorkerConfig {
            behavior,
            ..WorkerConfig::new(name, cfg.seed)
        };
        std::thread::spawn(move || run_worker(&addr.to_string(), &cfg).expect("worker"))
    };

    // Cheaters first and alone: both are turned away before the honest
    // nodes start, which could otherwise drain a campaign this small.
    let cheaters = [
        ("rogue", volunteer("rogue", Behavior::RogueEnclave)),
        ("inflate", volunteer("inflate", Behavior::InflateWic)),
    ];
    for (name, c) in cheaters {
        println!(
            "{name:<8} exit: {:?}",
            c.join().expect("cheater thread").exit
        );
    }
    let honest = [
        volunteer("honest-0", Behavior::Honest),
        volunteer("honest-1", Behavior::Honest),
    ];
    assert!(
        handle.wait_done(Duration::from_secs(120)),
        "campaign stalled"
    );
    for h in honest {
        h.join().expect("honest thread");
    }

    let r = handle.report();
    let executions: u64 = r.workers.iter().map(|w| w.completed).sum();
    println!(
        "{}/{} units, {} spot checks, {} rejected submissions",
        r.completed, r.units_total, r.checks_scheduled, r.rejected
    );
    println!(
        "executions per unit: {:.2} (full redundancy: 2.00)",
        executions as f64 / r.completed as f64
    );
    let statements = handle
        .reconcile(&ReconcileConfig::default())
        .expect("reconcile");
    handle.stop();
    let dep = Deployment::new(cfg.seed);
    let ae = dep.infrastructure().accounting_enclave().measurement();
    for s in &statements {
        s.verify(&dep.authority, ae).expect("statement verifies");
        let st = &s.statement;
        println!(
            "statement {:<8} {:>3} credited {:>9} wic {:>10} nano paid (enclave-signed, verified)",
            st.worker, st.units_credited, st.weighted_instructions, st.paid_nano
        );
    }
    let _ = std::fs::remove_dir_all(&cfg.state_dir);
}
