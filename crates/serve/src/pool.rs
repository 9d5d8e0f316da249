//! The shared, bounded, tenant-partitioned engine pool behind the job
//! server.
//!
//! One engine lives per `(tenant, scenario, engine kind, estimator, cache
//! bound)` — the same "never share an engine across scenarios" rule the
//! campaign layer follows (cache keys could alias across simulation
//! models), extended by a tenant dimension so one tenant's jobs can never
//! read from or evict another tenant's warm cache. Engines persist across
//! jobs, which is the whole point of a long-lived service: a tenant
//! resubmitting a related spec hits its own warm blocks.
//!
//! Engines are stateful (active seed, cache, counters), so a slot is leased
//! to exactly one job cell at a time: [`EnginePool::checkout`] blocks until
//! the slot is free and returns an RAII [`EngineLease`] that prepares the
//! engine (reseed + reset per the reuse mode) and releases the slot on drop.
//! Under the shared execution core, several workers may execute cells of
//! the *same* job concurrently; cells of one `(job, scenario)` pair map to
//! the same slot and therefore serialize on its lease, while cells of
//! different scenarios proceed in parallel. That serialization is a
//! throughput cost only — result bytes are pinned by the core's in-order
//! commit, not by which worker held a lease when.
//!
//! Per-tenant cache quotas sit *on top of* each engine's own
//! `max_cached_blocks`: after a cell completes (and its lease is dropped),
//! the job runner calls [`EnginePool::enforce_tenant_quota`], which leases
//! the tenant's idle engines and trims them to an equal share of the quota.
//! Busy engines are skipped — never evict under a running batch — and get
//! trimmed when their own cell finishes, so enforcement is eventually
//! consistent but deadlock-free (no lease is ever held while waiting for
//! another). Holding the trimmed engines' leases is what keeps a concurrent
//! checkout from starting a batch on an engine mid-trim.

use moheco_bench::jobspec::{EngineReuse, JobSpec};
use moheco_runtime::{EngineCacheUsage, EngineConfig, EvalEngine};
use moheco_sampling::SamplingPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The slot identity: everything that shapes an engine's behaviour, plus the
/// tenant partition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SlotKey {
    tenant: String,
    scenario: String,
    engine: &'static str,
    estimator: &'static str,
    max_cached_blocks: usize,
}

struct Slot {
    engine: Arc<dyn EvalEngine>,
    /// `true` while a lease is out. Guarded by the pool mutex; the pool
    /// condvar wakes waiters on release.
    busy: bool,
}

/// The tenant-partitioned engine pool. Cheap to share (`Arc<EnginePool>`).
pub struct EnginePool {
    quota_blocks: usize,
    inner: Mutex<HashMap<SlotKey, Slot>>,
    freed: Condvar,
    quota_evictions: AtomicU64,
}

impl EnginePool {
    /// Creates an empty pool. `quota_blocks` caps each tenant's *total*
    /// cached blocks across all its engines (0 = no tenant quota).
    pub fn new(quota_blocks: usize) -> Self {
        Self {
            quota_blocks,
            inner: Mutex::new(HashMap::new()),
            freed: Condvar::new(),
            quota_evictions: AtomicU64::new(0),
        }
    }

    /// The configured per-tenant quota (blocks; 0 = unlimited).
    pub fn quota_blocks(&self) -> usize {
        self.quota_blocks
    }

    /// Leases the tenant's engine for one cell of `spec` on `scenario`,
    /// blocking while another cell holds it. The engine comes back prepared:
    /// reseeded to `seed` and reset according to the spec's reuse mode.
    pub fn checkout(
        &self,
        tenant: &str,
        scenario: &str,
        spec: &JobSpec,
        seed: u64,
    ) -> EngineLease<'_> {
        let key = SlotKey {
            tenant: tenant.to_string(),
            scenario: scenario.to_string(),
            engine: spec.engine.label(),
            estimator: spec.estimator.label(),
            max_cached_blocks: spec.max_cached_blocks,
        };
        let mut inner = self.inner.lock().expect("pool lock");
        loop {
            let slot = inner.entry(key.clone()).or_insert_with(|| Slot {
                engine: build_engine(spec),
                busy: false,
            });
            if !slot.busy {
                slot.busy = true;
                let engine = slot.engine.clone();
                engine.reseed(seed);
                match spec.reuse {
                    EngineReuse::Reset => engine.reset(),
                    EngineReuse::SharedCache => engine.reset_counters(),
                }
                return EngineLease {
                    pool: self,
                    key,
                    engine,
                };
            }
            inner = self.freed.wait(inner).expect("pool lock");
        }
    }

    /// Trims the tenant's engines so their combined cache stays within the
    /// quota: every engine holding blocks is cut to an equal share. Busy
    /// engines are skipped (their cell's own completion enforces the quota
    /// next); call this only after dropping your own lease. A no-op when no
    /// quota is configured or the tenant is within it.
    pub fn enforce_tenant_quota(&self, tenant: &str) {
        if self.quota_blocks == 0 {
            return;
        }
        // Lease the tenant's idle engines under the lock, trim outside it:
        // a concurrent checkout of one of them waits for the trim instead of
        // starting a batch whose blocks the trim would evict under it, and
        // no checkout of another slot stalls behind a long cache walk.
        let leases: Vec<EngineLease<'_>> = {
            let mut inner = self.inner.lock().expect("pool lock");
            let total: usize = inner
                .iter()
                .filter(|(key, slot)| key.tenant == tenant && !slot.busy)
                .map(|(_, slot)| slot.engine.cache_blocks())
                .sum();
            if total <= self.quota_blocks {
                return;
            }
            inner
                .iter_mut()
                .filter(|(key, slot)| key.tenant == tenant && !slot.busy)
                .map(|(key, slot)| {
                    slot.busy = true;
                    EngineLease {
                        pool: self,
                        key: key.clone(),
                        engine: slot.engine.clone(),
                    }
                })
                .collect()
        };
        let holding = leases
            .iter()
            .filter(|l| l.engine.cache_blocks() > 0)
            .count()
            .max(1);
        let share = (self.quota_blocks / holding).max(1);
        for lease in &leases {
            if lease.engine.cache_blocks() > share {
                let evicted = lease.engine.enforce_cache_limit(share);
                self.quota_evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Blocks evicted by [`EnginePool::enforce_tenant_quota`] since the pool
    /// was created. Quota trims run after a cell's engine counters were
    /// recorded, and the next checkout resets those counters, so this is the
    /// only place the trims are counted.
    pub fn quota_evictions(&self) -> u64 {
        self.quota_evictions.load(Ordering::Relaxed)
    }

    /// Per-engine cache footprint of the whole pool, labelled
    /// `tenant/scenario/estimator` and sorted for deterministic exposition.
    pub fn usage(&self) -> Vec<EngineCacheUsage> {
        let inner = self.inner.lock().expect("pool lock");
        let mut usage: Vec<EngineCacheUsage> = inner
            .iter()
            .map(|(key, slot)| EngineCacheUsage {
                label: format!("{}/{}/{}", key.tenant, key.scenario, key.estimator),
                blocks: slot.engine.cache_blocks(),
                bytes: slot.engine.cache_bytes(),
            })
            .collect();
        usage.sort_by(|a, b| a.label.cmp(&b.label));
        usage
    }

    /// `(tenant, blocks, bytes)` cache totals per tenant, sorted by tenant.
    pub fn tenant_usage(&self) -> Vec<(String, usize, usize)> {
        let inner = self.inner.lock().expect("pool lock");
        let mut per_tenant: HashMap<&str, (usize, usize)> = HashMap::new();
        for (key, slot) in inner.iter() {
            let entry = per_tenant.entry(key.tenant.as_str()).or_default();
            entry.0 += slot.engine.cache_blocks();
            entry.1 += slot.engine.cache_bytes();
        }
        let mut rows: Vec<(String, usize, usize)> = per_tenant
            .into_iter()
            .map(|(t, (blocks, bytes))| (t.to_string(), blocks, bytes))
            .collect();
        rows.sort();
        rows
    }
}

fn build_engine(spec: &JobSpec) -> Arc<dyn EvalEngine> {
    spec.engine.build_with(EngineConfig {
        plan: SamplingPlan::LatinHypercube,
        seed: spec.seeds.first().copied().unwrap_or(1),
        estimator: spec.estimator,
        max_cached_blocks: spec.max_cached_blocks,
        ..EngineConfig::default()
    })
}

/// An exclusive lease on one pool slot; dropping it frees the slot and
/// wakes one waiting [`EnginePool::checkout`].
pub struct EngineLease<'a> {
    pool: &'a EnginePool,
    key: SlotKey,
    /// The leased engine, prepared for the cell.
    pub engine: Arc<dyn EvalEngine>,
}

impl Drop for EngineLease<'_> {
    fn drop(&mut self) {
        let mut inner = self.pool.inner.lock().expect("pool lock");
        if let Some(slot) = inner.get_mut(&self.key) {
            slot.busy = false;
        }
        self.pool.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moheco_bench::{Algo, EngineKind};
    use moheco_runtime::{McRequest, SimulationModel};
    use std::sync::atomic::AtomicBool;

    fn spec() -> JobSpec {
        JobSpec {
            scenarios: vec!["margin_wall".into()],
            algos: vec![Algo::TwoStage],
            seeds: vec![1],
            engine: EngineKind::Serial,
            ..JobSpec::default()
        }
    }

    #[test]
    fn checkout_prepares_and_serializes_a_slot() {
        let pool = Arc::new(EnginePool::new(0));
        let lease = pool.checkout("acme", "margin_wall", &spec(), 7);
        assert_eq!(lease.engine.active_seed(), 7);
        // A second checkout of the same slot must wait for the lease.
        let contender = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let lease = pool.checkout("acme", "margin_wall", &spec(), 8);
                lease.engine.active_seed()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!contender.is_finished(), "contender must block on the slot");
        drop(lease);
        assert_eq!(contender.join().expect("contender"), 8);
    }

    #[test]
    fn tenants_get_distinct_engines() {
        let pool = EnginePool::new(0);
        let a = pool.checkout("acme", "margin_wall", &spec(), 1);
        // Does not block: different tenant, different slot.
        let b = pool.checkout("beta", "margin_wall", &spec(), 1);
        assert!(!Arc::ptr_eq(&a.engine, &b.engine));
        drop((a, b));
        assert_eq!(pool.usage().len(), 2);
        assert_eq!(pool.tenant_usage().len(), 2);
    }

    /// Passes when `u[0] < x[0]`; nominal margins echo the design.
    struct Threshold;

    impl SimulationModel for Threshold {
        fn unit_dimension(&self) -> usize {
            2
        }

        fn simulate_point(&self, x: &[f64], u: &[f64]) -> f64 {
            f64::from(u8::from(u[0] < x[0]))
        }

        fn nominal(&self, x: &[f64]) -> Vec<f64> {
            x.to_vec()
        }
    }

    /// Sets the flag when dropped, so a panicking test still stops its
    /// background thread.
    struct StopOnDrop<'a>(&'a AtomicBool);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    #[test]
    fn quota_trims_never_evict_under_a_checked_out_engine() {
        // One thread trims the tenant to a one-block quota as fast as it can
        // while another checks the tenant's engine out and runs batches that
        // need far more than one block. A trim that reached the leased
        // engine would evict blocks or nominal margins mid-batch and panic
        // the batch's assembly.
        let pool = EnginePool::new(1);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    pool.enforce_tenant_quota("acme");
                }
            });
            let _stop = StopOnDrop(&stop);
            for round in 0..300 {
                let lease = pool.checkout("acme", "margin_wall", &spec(), 1);
                let designs: Vec<Vec<f64>> = (0..8)
                    .map(|i| vec![0.1 * i as f64 + 1e-3 * round as f64, 0.5])
                    .collect();
                let requests: Vec<McRequest> = designs
                    .iter()
                    .map(|x| McRequest::new(x.clone(), 0, 120))
                    .collect();
                assert_eq!(lease.engine.nominal_batch(&Threshold, &designs), designs);
                let outcomes = lease.engine.mc_outcomes(&Threshold, &requests);
                assert!(outcomes.iter().all(|o| o.len() == 120));
            }
        });
        assert!(
            pool.quota_evictions() > 0,
            "the trimmer must have evicted between leases"
        );
    }
}
