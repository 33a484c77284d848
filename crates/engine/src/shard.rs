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
//!   worker's queue) and an mpsc channel carrying results back to the
//!   engine thread. A job owns the operator replica it runs — lent by the
//!   operator's endpoint record and handed back in the result — so the
//!   pool shares no operator state,
//! * [`ShardJobResult`] attributes outcomes to each input tuple so the
//!   engine can merge a batch back in the exact order it drained the
//!   events — the epoch barrier,
//! * `invoke` is the one call into [`Operator::on_tuple`], for the engine
//!   thread and the workers alike.
//!
//! Everything here is `std`-only (`std::thread`, `std::sync::mpsc`,
//! `Mutex`/`Condvar`); the pool is quiescent between batches because the
//! engine blocks on the barrier, so every replica is back on its record
//! before the engine handles the next event.

use crate::config::WAREHOUSE_SGRAN;
use crate::deployment::EndpointId;
use sl_ops::{OpContext, Operator, TupleOutcome};
use sl_stt::{Timestamp, Tuple};
use std::collections::VecDeque;
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
                    // The warehouse's spatial granule (`WAREHOUSE_SGRAN`,
                    // grid-8: ~0.004° cells), so a shard owns whole cells.
                    let edge = WAREHOUSE_SGRAN.cell_deg().unwrap_or(1.0);
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

/// Run one tuple through `op`, emitting into `out`: the outcome attributed
/// to that input, and the wall-clock window (µs since `epoch`) the call
/// took.
pub(crate) fn invoke(
    op: &mut dyn Operator,
    port: usize,
    at: Timestamp,
    tuple: Tuple,
    out: Vec<Tuple>,
    epoch: Instant,
) -> (TupleOutcome, u64, u64) {
    let mut ctx = OpContext::with_buffer(at, out);
    let wall0 = epoch.elapsed().as_micros() as u64;
    let result = op.on_tuple(port, tuple, &mut ctx);
    let wall1 = epoch.elapsed().as_micros() as u64;
    (ctx.finish(result), wall0, wall1)
}

/// A unit of work: one shard's slice of the current batch, all destined for
/// the same operator and input port, with the replica that processes it.
pub struct ShardJob {
    /// The shard: the worker whose deque the job is queued on (a different
    /// worker may steal and execute it).
    pub home: usize,
    /// The endpoint whose record lent `op` and gets it back.
    pub key: EndpointId,
    /// The replica to run the items on.
    pub op: Box<dyn Operator>,
    /// Input port of every item.
    pub port: usize,
    /// `(delivery time, tuple)` pairs, in drained order.
    pub items: Vec<(Timestamp, Tuple)>,
}

/// A completed [`ShardPool`] job: per-item results in input order.
pub struct ShardJobResult {
    /// Job id, as returned by [`ShardPool::submit`].
    pub id: u64,
    /// The shard the job was queued for.
    pub home: usize,
    /// True if a worker other than `home` stole and executed it.
    pub stolen: bool,
    /// The endpoint the replica belongs to.
    pub key: EndpointId,
    /// The replica, handed back.
    pub op: Box<dyn Operator>,
    /// Per input item, in input order: its outcome and the wall-clock
    /// window (µs since the pool epoch) its call took.
    pub items: Vec<(TupleOutcome, u64, u64)>,
    /// Total job wall time in µs.
    pub wall_us: u64,
}

struct PoolState {
    queues: Vec<VecDeque<(u64, ShardJob)>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A poisoned lock means a worker panicked mid-batch; the job queues are
    // still structurally sound, so keep going.
    r.unwrap_or_else(|e| e.into_inner())
}

/// The shard worker pool: `N` threads, per-worker deques with stealing, and
/// a result channel back to the engine.
///
/// The engine dispatches one job per `(operator, shard)` of a drained
/// batch, then blocks until every job reports back (the epoch barrier), so
/// the pool is always quiescent between batches.
pub struct ShardPool {
    shared: Arc<Shared>,
    steals: Arc<AtomicU64>,
    results: mpsc::Receiver<ShardJobResult>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next_job: u64,
}

impl ShardPool {
    /// Spawn a pool of `workers` threads measuring wall time against
    /// `epoch` (the engine's wall-clock origin, so shard timings line up with the
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
        let steals = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            let shared = Arc::clone(&shared);
            let steals = Arc::clone(&steals);
            let tx = tx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("sl-shard-{me}"))
                .spawn(move || worker_loop(me, workers, &shared, &steals, &tx, epoch));
            if let Ok(h) = spawned {
                handles.push(h);
            }
        }
        ShardPool {
            shared,
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

    /// Queue `job` on its home shard's deque and wake the workers. Returns
    /// the job id echoed in its [`ShardJobResult`].
    pub fn submit(&mut self, mut job: ShardJob) -> u64 {
        let id = self.next_job;
        self.next_job += 1;
        job.home %= self.handles.len().max(1);
        relock(self.shared.state.lock()).queues[job.home].push_back((id, job));
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
    steals: &AtomicU64,
    tx: &mpsc::Sender<ShardJobResult>,
    epoch: Instant,
) {
    loop {
        // Take the next job: own queue front first, then steal from the
        // back of the busiest neighbour's queue.
        let ((id, job), stolen) = {
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
        let ShardJob {
            home,
            key,
            mut op,
            port,
            items,
        } = job;
        let t0 = epoch.elapsed().as_micros() as u64;
        let items = items
            .into_iter()
            .map(|(at, tuple)| invoke(&mut *op, port, at, tuple, Vec::new(), epoch))
            .collect();
        let t1 = epoch.elapsed().as_micros() as u64;
        let done = ShardJobResult {
            id,
            home,
            stolen,
            key,
            op,
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
        let items: Vec<(Timestamp, Tuple)> = (0..20)
            .map(|i| (Timestamp::from_secs(i), tuple(i as f64, i as u64, 34.7)))
            .collect();
        let mut job = |home: usize, items: &[(Timestamp, Tuple)]| {
            pool.submit(ShardJob {
                home,
                key: F,
                op: op.replicate().unwrap(),
                port: 0,
                items: items.to_vec(),
            })
        };
        let id0 = job(0, &items[..10]);
        let id1 = job(1, &items[10..]);
        let mut results: Vec<ShardJobResult> = vec![pool.recv().unwrap(), pool.recv().unwrap()];
        results.sort_by_key(|r| r.id);
        assert_eq!(results[0].id, id0);
        assert_eq!(results[1].id, id1);
        // Each result hands its replica back, addressed to the lender.
        assert!(results
            .iter()
            .all(|r| r.key == F && r.op.kind() == "filter"));
        // v in 0..=10 dropped (11 tuples), the rest emitted — in order.
        let all: Vec<&TupleOutcome> = results
            .iter()
            .flat_map(|r| r.items.iter().map(|(outcome, _, _)| outcome))
            .collect();
        assert_eq!(all.len(), 20);
        for (i, outcome) in all.iter().enumerate() {
            assert!(outcome.error.is_none());
            if i <= 10 {
                assert_eq!(outcome.dropped, 1, "item {i}");
            } else {
                assert_eq!(outcome.emitted.len(), 1, "item {i}");
            }
        }
    }
}
