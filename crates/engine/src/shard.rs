//! The parallel sharded execution layer (`sl-par`).
//!
//! The sequential engine advances every operator on one thread; this module
//! lets the hottest path — non-blocking operator invocations — fan out
//! across an N-worker pool while preserving the discrete-event semantics
//! exactly (see `DESIGN.md` §5f for the determinism argument):
//!
//! * [`ShardKey`] partitions in-flight tuples into shards — by spatial
//!   granule hash, by producing sensor, or round-robin,
//! * [`ShardPool`] owns the worker threads: per-worker job deques with
//!   work-stealing (an idle worker takes from the *back* of a busy
//!   worker's queue), a shared replica cache of stateless operator copies,
//!   and an mpsc channel carrying results back to the engine thread,
//! * [`ShardJobResult`] attributes outcomes to each input tuple so the
//!   engine can merge a batch back in the exact order it drained the
//!   events — the epoch barrier.
//!
//! Everything here is `std`-only (`std::thread`, `std::sync::mpsc`,
//! `Mutex`/`Condvar`); the pool is quiescent between batches because the
//! engine blocks on the barrier, which is what makes invalidation of
//! cached replicas race-free.

use crate::deployment::EndpointId;
use sl_ops::{Operator, TupleOutcome};
use sl_stt::{Timestamp, Tuple};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// How in-flight tuples are partitioned across shard workers.
///
/// Whatever the key, outputs are identical to the sequential engine — the
/// key only changes *which worker* processes a tuple, never the merge
/// order. A spatial key gives locality (tuples of one area share a worker's
/// caches); the sensor key gives per-producer affinity; round-robin gives
/// the evenest spread for skewed streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardKey {
    /// Hash of the tuple's spatial granule (a grid-8 cell, ~1/256°);
    /// unlocated tuples fall back to the sensor hash.
    Space,
    /// Hash of the producing sensor id.
    Sensor,
    /// Position in the drained batch, modulo the worker count.
    RoundRobin,
}

/// 64-bit FNV-1a — a fixed, documented hash so shard assignment is stable
/// across runs and platforms (`DefaultHasher` makes no such promise in its
/// contract, even though today it is deterministic).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ShardKey {
    /// The shard (in `0..shards`) for a tuple at position `index` of the
    /// current batch.
    pub fn shard_of(&self, tuple: &Tuple, index: usize, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        let sensor_hash = || fnv1a(&tuple.meta.sensor.0.to_le_bytes()) % shards as u64;
        match self {
            ShardKey::RoundRobin => index % shards,
            ShardKey::Sensor => sensor_hash() as usize,
            ShardKey::Space => match tuple.meta.location {
                Some(p) => {
                    // Grid-8 granule (matches the default warehouse spatial
                    // granularity): ~0.004° cells.
                    let edge = 1.0 / 256.0;
                    let ix = (p.lon / edge).floor() as i64;
                    let iy = (p.lat / edge).floor() as i64;
                    let mut key = [0u8; 16];
                    key[..8].copy_from_slice(&ix.to_le_bytes());
                    key[8..].copy_from_slice(&iy.to_le_bytes());
                    (fnv1a(&key) % shards as u64) as usize
                }
                None => sensor_hash() as usize,
            },
        }
    }
}

/// A unit of work: one shard's slice of the current batch, all destined for
/// the same operator (`key`, its endpoint id) and input port.
struct ShardJob {
    id: u64,
    /// The worker the job was queued on (its shard); a different worker may
    /// steal and execute it.
    home: usize,
    key: EndpointId,
    port: usize,
    items: Vec<(Timestamp, Tuple)>,
}

/// One input tuple's result, with the wall-clock window (µs since the pool
/// epoch) its share of the batch took to process.
pub struct ItemResult {
    /// What the operator produced for this input.
    pub outcome: TupleOutcome,
    /// Processing start, µs since the engine epoch.
    pub wall0: u64,
    /// Processing end, µs since the engine epoch.
    pub wall1: u64,
}

/// A completed [`ShardPool`] job: per-item outcomes in input order.
pub struct ShardJobResult {
    /// Job id, as returned by [`ShardPool::submit`].
    pub id: u64,
    /// The shard the job was queued for.
    pub home: usize,
    /// True if a worker other than `home` stole and executed it.
    pub stolen: bool,
    /// One result per input item, in input order.
    pub items: Vec<ItemResult>,
    /// Total job wall time in µs.
    pub wall_us: u64,
}

struct PoolState {
    queues: Vec<VecDeque<ShardJob>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

type ReplicaCache = HashMap<EndpointId, Vec<Box<dyn Operator>>>;

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A poisoned lock means a worker panicked mid-batch; the data (job
    // queues / replica caches) is still structurally sound, so keep going.
    r.unwrap_or_else(|e| e.into_inner())
}

/// The shard worker pool: `N` threads, per-worker deques with stealing, a
/// shared stateless-replica cache, and a result channel back to the engine.
///
/// The engine dispatches one job per `(operator, shard)` of a drained
/// batch, then blocks until every job reports back (the epoch barrier), so
/// the pool is always quiescent between batches.
pub struct ShardPool {
    shared: Arc<Shared>,
    replicas: Arc<Mutex<ReplicaCache>>,
    steals: Arc<AtomicU64>,
    results: mpsc::Receiver<ShardJobResult>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next_job: u64,
}

impl ShardPool {
    /// Spawn a pool of `workers` threads measuring wall time against
    /// `epoch` (the engine's span origin, so shard timings line up with the
    /// rest of the observability layer).
    pub fn new(workers: usize, epoch: Instant) -> ShardPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let replicas: Arc<Mutex<ReplicaCache>> = Arc::new(Mutex::new(HashMap::new()));
        let steals = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            let shared = Arc::clone(&shared);
            let replicas = Arc::clone(&replicas);
            let steals = Arc::clone(&steals);
            let tx = tx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("sl-shard-{me}"))
                .spawn(move || worker_loop(me, workers, &shared, &replicas, &steals, &tx, epoch));
            if let Ok(h) = spawned {
                handles.push(h);
            }
        }
        ShardPool {
            shared,
            replicas,
            steals,
            results: rx,
            handles,
            next_job: 0,
        }
    }

    /// Number of live workers (0 means the pool failed to spawn and the
    /// engine must fall back to sequential execution).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Total jobs executed by a worker other than their home shard.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Top the replica cache for the operator behind `key` up to `need`
    /// copies of `op`. Returns false (and caches nothing new) if the
    /// operator refuses to replicate — the engine then processes it inline.
    pub fn ensure_replicas(&self, key: EndpointId, op: &dyn Operator, need: usize) -> bool {
        let mut cache = relock(self.replicas.lock());
        let slot = cache.entry(key).or_default();
        while slot.len() < need {
            match op.replicate() {
                Some(r) => slot.push(r),
                None => return false,
            }
        }
        true
    }

    /// Drop cached replicas of one operator (after `replace_operator`, or
    /// when `undeploy` retires its endpoint).
    pub fn invalidate(&self, key: EndpointId) {
        relock(self.replicas.lock()).remove(&key);
    }

    /// Queue one job on the home shard's deque and wake the workers.
    /// Returns the job id echoed in its [`ShardJobResult`].
    pub fn submit(
        &mut self,
        key: EndpointId,
        port: usize,
        home: usize,
        items: Vec<(Timestamp, Tuple)>,
    ) -> u64 {
        let id = self.next_job;
        self.next_job += 1;
        let job = ShardJob {
            id,
            home: home % self.handles.len().max(1),
            key,
            port,
            items,
        };
        {
            let mut st = relock(self.shared.state.lock());
            let q = job.home;
            st.queues[q].push_back(job);
        }
        self.shared.cv.notify_all();
        id
    }

    /// Block until the next job result arrives. `None` means every worker
    /// died (a panic in operator code); the engine falls back to reporting
    /// the batch as failed.
    pub fn recv(&self) -> Option<ShardJobResult> {
        self.results.recv().ok()
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        relock(self.shared.state.lock()).shutdown = true;
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    me: usize,
    workers: usize,
    shared: &Shared,
    replicas: &Mutex<ReplicaCache>,
    steals: &AtomicU64,
    tx: &mpsc::Sender<ShardJobResult>,
    epoch: Instant,
) {
    loop {
        // Take the next job: own queue front first, then steal from the
        // back of the busiest neighbour's queue.
        let (job, stolen) = {
            let mut st = relock(shared.state.lock());
            loop {
                if let Some(j) = st.queues[me].pop_front() {
                    break (j, false);
                }
                let victim = (0..workers)
                    .filter(|w| *w != me)
                    .max_by_key(|w| st.queues[*w].len())
                    .filter(|w| !st.queues[*w].is_empty());
                if let Some(v) = victim {
                    if let Some(j) = st.queues[v].pop_back() {
                        break (j, true);
                    }
                }
                if st.shutdown {
                    return;
                }
                st = relock(shared.cv.wait(st));
            }
        };
        if stolen {
            steals.fetch_add(1, Ordering::Relaxed);
        }
        let mut replica = relock(replicas.lock()).get_mut(&job.key).and_then(Vec::pop);
        let t0 = epoch.elapsed().as_micros() as u64;
        let outcomes = match replica.as_deref_mut() {
            Some(op) => op.process_batch(job.port, &job.items),
            // No replica cached (ensure_replicas was skipped or refused):
            // surface per-item errors instead of guessing at semantics.
            None => job
                .items
                .iter()
                .map(|_| {
                    TupleOutcome::error(sl_ops::OpError::BadSpec(
                        "no shard replica available".into(),
                    ))
                })
                .collect(),
        };
        let t1 = epoch.elapsed().as_micros() as u64;
        if let Some(op) = replica {
            relock(replicas.lock()).entry(job.key).or_default().push(op);
        }
        // Attribute the job's wall time evenly across its items so span and
        // latency instruments stay populated per tuple.
        let n = outcomes.len().max(1) as u64;
        let share = t1.saturating_sub(t0) / n;
        let items = outcomes
            .into_iter()
            .enumerate()
            .map(|(k, outcome)| {
                let k = k as u64;
                ItemResult {
                    outcome,
                    wall0: t0 + k * share,
                    wall1: if k + 1 == n { t1 } else { t0 + (k + 1) * share },
                }
            })
            .collect();
        let done = ShardJobResult {
            id: job.id,
            home: job.home,
            stolen,
            items,
            wall_us: t1.saturating_sub(t0),
        };
        if tx.send(done).is_err() {
            return; // engine dropped the pool
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
    use super::*;
    use sl_ops::FilterOp;
    use sl_stt::{AttrType, Field, GeoPoint, Schema, SchemaRef, SensorId, SttMeta, Theme, Value};

    /// The operator the tests' jobs are keyed by.
    const F: EndpointId = EndpointId(0);

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("v", AttrType::Float)])
            .unwrap()
            .into_ref()
    }

    fn tuple(v: f64, sensor: u64, lat: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Float(v)],
            SttMeta::new(
                Timestamp::from_secs(0),
                GeoPoint::new_unchecked(lat, 135.5),
                Theme::unclassified(),
                SensorId(sensor),
            ),
        )
        .unwrap()
    }

    #[test]
    fn shard_keys_are_stable_and_in_range() {
        let t = tuple(1.0, 42, 34.7);
        for key in [ShardKey::Space, ShardKey::Sensor, ShardKey::RoundRobin] {
            for shards in [1usize, 2, 4, 8] {
                let s = key.shard_of(&t, 5, shards);
                assert!(s < shards);
                // Stable: same inputs, same shard.
                assert_eq!(s, key.shard_of(&t, 5, shards));
            }
        }
        assert_eq!(ShardKey::RoundRobin.shard_of(&t, 6, 4), 2);
        // One shard: everything maps to 0.
        assert_eq!(ShardKey::Space.shard_of(&t, 9, 1), 0);
    }

    #[test]
    fn space_key_groups_by_granule_and_falls_back_unlocated() {
        let a = tuple(1.0, 1, 34.7001);
        let b = tuple(2.0, 2, 34.7002); // same grid-8 cell, other sensor
        assert_eq!(
            ShardKey::Space.shard_of(&a, 0, 8),
            ShardKey::Space.shard_of(&b, 1, 8)
        );
        let mut c = tuple(3.0, 1, 0.0);
        c.meta.location = None;
        assert_eq!(
            ShardKey::Space.shard_of(&c, 0, 8),
            ShardKey::Sensor.shard_of(&c, 0, 8)
        );
    }

    #[test]
    fn pool_processes_jobs_and_returns_outcomes_in_order() {
        let schema = schema();
        let op = FilterOp::new("v > 10", &schema).unwrap();
        let mut pool = ShardPool::new(2, Instant::now());
        assert!(pool.ensure_replicas(F, &op, 2));
        let items: Vec<(Timestamp, Tuple)> = (0..20)
            .map(|i| (Timestamp::from_secs(i), tuple(i as f64, i as u64, 34.7)))
            .collect();
        let id0 = pool.submit(F, 0, 0, items[..10].to_vec());
        let id1 = pool.submit(F, 0, 1, items[10..].to_vec());
        let mut results: Vec<ShardJobResult> = vec![pool.recv().unwrap(), pool.recv().unwrap()];
        results.sort_by_key(|r| r.id);
        assert_eq!(results[0].id, id0);
        assert_eq!(results[1].id, id1);
        // v in 0..=10 dropped (11 tuples), the rest emitted — in order.
        let all: Vec<&ItemResult> = results.iter().flat_map(|r| r.items.iter()).collect();
        assert_eq!(all.len(), 20);
        for (i, item) in all.iter().enumerate() {
            assert!(item.outcome.error.is_none());
            if i <= 10 {
                assert_eq!(item.outcome.dropped, 1, "item {i}");
            } else {
                assert_eq!(item.outcome.emitted.len(), 1, "item {i}");
            }
        }
    }

    #[test]
    fn missing_replica_surfaces_errors_not_hangs() {
        let mut pool = ShardPool::new(1, Instant::now());
        let id = pool.submit(F, 0, 0, vec![(Timestamp::EPOCH, tuple(1.0, 1, 34.7))]);
        let r = pool.recv().unwrap();
        assert_eq!(r.id, id);
        assert!(r.items[0].outcome.error.is_some());
    }

    #[test]
    fn invalidation_clears_cached_replicas() {
        let schema = schema();
        let op = FilterOp::new("v > 0", &schema).unwrap();
        let pool = ShardPool::new(1, Instant::now());
        assert!(pool.ensure_replicas(F, &op, 1));
        pool.invalidate(F);
        assert_eq!(relock(pool.replicas.lock()).len(), 0);
    }
}
