//! Campaign work units: deterministic batches of the volunteer
//! workloads, identified by `(kind, count, seed)` so a coordinator can
//! rebuild the exact module (and the referee can recompute the exact
//! answer) from the journal alone.

use acctee_interp::Value;
use acctee_wasm::encode::encode_module;
use acctee_workloads::{msieve, subsetsum};

/// Collapses an execution's returned values to the single comparable
/// scalar the journal and the redundancy check use. All volunteer
/// workloads return one integer; floats are compared by bit pattern so
/// the comparison is total and bit-exact.
pub fn result_key(values: &[Value]) -> i64 {
    match values.first() {
        Some(Value::I32(v)) => i64::from(*v),
        Some(Value::I64(v)) => *v,
        Some(Value::F32(v)) => i64::from(v.to_bits()),
        Some(Value::F64(v)) => v.to_bits() as i64,
        None => 0,
    }
}

/// Which volunteer workload a unit runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Subset-sum search (`acctee-workloads::subsetsum`).
    SubsetSum = 0,
    /// Integer factorisation batches (`acctee-workloads::msieve`).
    Msieve = 1,
}

impl WorkloadKind {
    /// Stable on-disk / CLI tag: the discriminant above.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`WorkloadKind::tag`].
    pub fn from_tag(t: u8) -> Option<WorkloadKind> {
        [WorkloadKind::SubsetSum, WorkloadKind::Msieve]
            .into_iter()
            .find(|k| k.tag() == t)
    }

    /// Parses a `--workload` flag value.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        match s {
            "subsetsum" | "subset-sum" => Some(WorkloadKind::SubsetSum),
            "msieve" => Some(WorkloadKind::Msieve),
            _ => None,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SubsetSum => "subsetsum",
            WorkloadKind::Msieve => "msieve",
        }
    }
}

/// One work unit: everything needed to rebuild its module bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitSpec {
    /// Campaign-unique unit id.
    pub id: u64,
    /// Workload family.
    pub kind: WorkloadKind,
    /// Problem size (batch length).
    pub count: u32,
    /// Batch seed.
    pub seed: u64,
}

impl UnitSpec {
    /// The unit's uninstrumented module binary. Deterministic: the
    /// same spec always encodes to the same bytes, which is what lets
    /// a restarted coordinator re-instrument from the journal and get
    /// the same evidence hashes its workers already hold.
    pub fn module_bytes(&self) -> Vec<u8> {
        let m = match self.kind {
            WorkloadKind::SubsetSum => subsetsum::subsetsum_module(self.count as usize, self.seed),
            WorkloadKind::Msieve => msieve::msieve_module(self.count as usize, self.seed),
        };
        encode_module(&m)
    }

    /// The exported entry point (all volunteer workloads use `run`).
    pub fn func(&self) -> &'static str {
        "run"
    }

    /// The correct answer, from the bit-exact native mirror. The
    /// coordinator never needs this during a campaign (verification is
    /// attestation + redundancy, not an answer key); tests and the
    /// bench use it to prove accepted results are right.
    pub fn expected_result(&self) -> i64 {
        match self.kind {
            WorkloadKind::SubsetSum => {
                subsetsum::subsetsum_native(self.count as usize, self.seed) as i64
            }
            WorkloadKind::Msieve => msieve::msieve_native(self.count as usize, self.seed) as i64,
        }
    }

    /// Builds an `n`-unit campaign over one workload family, each unit
    /// on its own seed.
    pub fn campaign(n: u64, kind: WorkloadKind, count: u32, base_seed: u64) -> Vec<UnitSpec> {
        (0..n)
            .map(|i| UnitSpec {
                id: i,
                kind,
                count,
                seed: base_seed.wrapping_add(i),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_round_trip() {
        for k in [WorkloadKind::SubsetSum, WorkloadKind::Msieve] {
            assert_eq!(WorkloadKind::from_tag(k.tag()), Some(k));
            assert_eq!(WorkloadKind::parse(k.name()), Some(k));
        }
        assert_eq!(WorkloadKind::from_tag(9), None);
        assert_eq!(WorkloadKind::parse("darknet"), None);
    }

    #[test]
    fn module_bytes_are_deterministic() {
        let spec = UnitSpec {
            id: 3,
            kind: WorkloadKind::SubsetSum,
            count: 6,
            seed: 11,
        };
        assert_eq!(spec.module_bytes(), spec.module_bytes());
        // Different seeds really are different problems.
        let other = UnitSpec { seed: 12, ..spec };
        assert_ne!(spec.module_bytes(), other.module_bytes());
    }

    #[test]
    fn campaign_units_have_unique_ids_and_seeds() {
        let units = UnitSpec::campaign(8, WorkloadKind::Msieve, 2, 100);
        assert_eq!(units.len(), 8);
        for (i, u) in units.iter().enumerate() {
            assert_eq!(u.id, i as u64);
            assert_eq!(u.seed, 100 + i as u64);
        }
    }

    #[test]
    fn executed_unit_matches_native_mirror() {
        use acctee::{Deployment, Level};
        let spec = UnitSpec {
            id: 0,
            kind: WorkloadKind::SubsetSum,
            count: 8,
            seed: 42,
        };
        let mut dep = Deployment::new(7);
        let (bytes, ev) = dep
            .instrument(&spec.module_bytes(), Level::LoopBased)
            .unwrap();
        let out = dep.execute(&bytes, &ev, spec.func(), &[], b"").unwrap();
        assert_eq!(out.results[0].as_i64(), spec.expected_result());
    }
}
