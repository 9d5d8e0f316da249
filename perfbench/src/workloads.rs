//! The three workloads and the job sets they generate from the workload
//! seed. The program under test only ever receives the `JobSpec`s built
//! here.

use crate::util::SeedRng;
use moheco_bench::{Algo, BudgetClass, EngineKind, EngineReuse, JobSpec, ScheduleKind};

/// The paper's circuits at their nominal and graded corners.
pub const CIRCUITS: [&str; 4] = [
    "folded_cascode",
    "folded_cascode_harsh",
    "telescopic",
    "telescopic_mild",
];

/// The closed-form scenarios, whose exact yield makes accuracy measurable.
pub const ORACLES: [&str; 5] = [
    "quadratic_feasibility",
    "rotated_ellipsoid",
    "two_basin",
    "margin_wall",
    "stress_24d",
];

/// The scenarios service jobs draw from: every oracle plus both
/// folded-cascode corners.
const SERVICE_SCENARIOS: [&str; 7] = [
    "quadratic_feasibility",
    "rotated_ellipsoid",
    "two_basin",
    "margin_wall",
    "stress_24d",
    "folded_cascode",
    "folded_cascode_harsh",
];

/// Tenants of `service_tcp`; one closed-loop client thread each.
pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Jobs each tenant submits, one after another.
pub const JOBS_PER_TENANT: usize = 60;
/// Seeds per service job.
const SEEDS_PER_JOB: usize = 4;
/// Server worker threads. One: with the two client threads and the
/// server's connection threads a second worker oversubscribes the 2-core
/// reference machine, and two workers of one tenant race in
/// `EnginePool::enforce_tenant_quota` (a quota trim can evict the cache
/// under another worker's batch, which then panics), so jobs would fail
/// at random.
pub const SERVER_WORKERS: usize = 1;
/// Queue bound: at most one job per tenant is ever outstanding, so the
/// closed loop never meets it.
pub const QUEUE_DEPTH: usize = 4;
/// Per-tenant cache quota in blocks; small enough that eviction runs.
pub const TENANT_QUOTA_BLOCKS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CircuitPaper,
    OracleParallel,
    ServiceTcp,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "circuit_paper" => Some(Self::CircuitPaper),
            "oracle_parallel" => Some(Self::OracleParallel),
            "service_tcp" => Some(Self::ServiceTcp),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::CircuitPaper => "circuit_paper",
            Self::OracleParallel => "oracle_parallel",
            Self::ServiceTcp => "service_tcp",
        }
    }
}

/// The generator for pass `pass` of a run with workload seed `seed`: every
/// measured pass of a run draws a fresh job set, so a run measures more
/// distinct work than one job set holds.
fn pass_rng(seed: u64, pass: usize, salt: u64) -> SeedRng {
    SeedRng::new(seed, salt + 0x1_0000 * pass as u64)
}

/// Run seeds per circuit in one measured pass of `circuit_paper`, and in
/// its traced pass.
pub const CIRCUIT_SEEDS: (usize, usize) = (1, 2);
/// Run seeds per oracle × algorithm in one measured pass of
/// `oracle_parallel`, and in its traced pass.
pub const ORACLE_SEEDS: (usize, usize) = (2, 4);

/// `circuit_paper`: full MOHECO at paper budget on the four circuit
/// scenarios, `seeds` run seeds each, serial engine.
pub fn circuit_paper_spec(seed: u64, pass: usize, seeds: usize) -> JobSpec {
    JobSpec {
        scenarios: CIRCUITS.iter().map(|s| s.to_string()).collect(),
        algos: vec![Algo::Memetic],
        budget: BudgetClass::Paper,
        seeds: pass_rng(seed, pass, 1).run_seeds(seeds),
        engine: EngineKind::Serial,
        reuse: EngineReuse::Reset,
        schedule: ScheduleKind::Fixed,
        ..JobSpec::default()
    }
}

/// `oracle_parallel`: two-stage and memetic at paper budget on the five
/// closed-form scenarios, `seeds` run seeds each, parallel engine.
pub fn oracle_parallel_spec(seed: u64, pass: usize, seeds: usize) -> JobSpec {
    JobSpec {
        scenarios: ORACLES.iter().map(|s| s.to_string()).collect(),
        algos: vec![Algo::TwoStage, Algo::Memetic],
        budget: BudgetClass::Paper,
        seeds: pass_rng(seed, pass, 2).run_seeds(seeds),
        engine: EngineKind::Parallel,
        reuse: EngineReuse::Reset,
        schedule: ScheduleKind::Fixed,
        ..JobSpec::default()
    }
}

/// `service_tcp`: per tenant, `JOBS_PER_TENANT` small-budget jobs of four
/// seeds on one scenario each. Every tenant cycles through a seeded
/// shuffle of the scenario list, so the mix is balanced and only its order
/// and the run seeds depend on the seed. Jobs alternate the fixed and
/// shrinking schedules.
pub fn service_jobs(seed: u64, pass: usize) -> Vec<Vec<JobSpec>> {
    TENANTS
        .iter()
        .enumerate()
        .map(|(t, _)| {
            let mut rng = pass_rng(seed, pass, 100 + t as u64);
            let first_seed = 1 + rng.below(1_000_000);
            let mut order: Vec<&str> = Vec::new();
            (0..JOBS_PER_TENANT)
                .map(|j| {
                    if j % SERVICE_SCENARIOS.len() == 0 {
                        order = SERVICE_SCENARIOS.to_vec();
                        rng.shuffle(&mut order);
                    }
                    let base = first_seed + (j * SEEDS_PER_JOB) as u64;
                    JobSpec {
                        scenarios: vec![order[j % SERVICE_SCENARIOS.len()].to_string()],
                        algos: vec![Algo::TwoStage],
                        budget: BudgetClass::Small,
                        seeds: (base..base + SEEDS_PER_JOB as u64).collect(),
                        engine: EngineKind::Serial,
                        reuse: EngineReuse::SharedCache,
                        schedule: if j % 2 == 0 {
                            ScheduleKind::Fixed
                        } else {
                            ScheduleKind::OcbaShrink
                        },
                        ..JobSpec::default()
                    }
                })
                .collect()
        })
        .collect()
}
