//! The timed run of one workload: repetitions from fresh state until the
//! measuring time is spent, the end-to-end metrics, and the output checks.
//! Tracing is off here; the per-layer numbers come from `trace.rs`.

use crate::json::J;
use crate::report::{Metric, Outcome};
use crate::run::{run_rep, Mode, Rep};
use crate::stats::{self, median, percentile, sorted, spread};
use crate::workloads::{self, Sizes};
use crate::Options;
use std::path::Path;
use std::time::Instant;

/// Repetitions: at least this many, then more while measuring time is left.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 15;
/// Set-up is sampled at least this often; short set-ups are repeated on
/// their own (build and tear down) for at most `SETUP_BUDGET_S` more.
const SETUP_SAMPLES: usize = 101;
const SETUP_BUDGET_S: f64 = 0.5;

/// `VmHWM` of this process in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Which workloads this host can run: `chain_par` needs its two workers on
/// two cores, or its result says nothing about the shard pool.
pub fn runnable(name: &str) -> Result<(), String> {
    if workloads::threads(name) > nproc() {
        return Err(format!(
            "unresolved: {name} needs {} threads, host has {} core(s)",
            workloads::threads(name),
            nproc()
        ));
    }
    Ok(())
}

/// Failures the repetitions' own checks found, as `(count, messages)`.
pub fn check_reps(reps: &[Rep]) -> (u64, Vec<String>) {
    let mut failed = 0u64;
    let mut notes = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        failed += r.dlq + r.dropped_deltas + r.wrong_queries + r.violations.len() as u64;
        for v in &r.violations {
            notes.push(format!("rep {i}: conservation: {v}"));
        }
        if r.dlq > 0 {
            notes.push(format!("rep {i}: {} dead-lettered tuples", r.dlq));
        }
        if r.dropped_deltas > 0 {
            notes.push(format!("rep {i}: {} dropped deltas", r.dropped_deltas));
        }
        if r.wrong_queries > 0 {
            notes.push(format!(
                "rep {i}: {} wrong or failed queries",
                r.wrong_queries
            ));
        }
        if r.digest != reps[0].digest || r.answers != reps[0].answers {
            failed += 1;
            notes.push(format!("rep {i}: output digest differs from rep 0"));
        }
    }
    (failed, notes)
}

/// Work a repetition attempted: tuples emitted, deltas fanned out, queries.
pub fn attempted(rep: &Rep) -> u64 {
    rep.emitted + rep.fanout + rep.queries.len() as u64
}

pub fn sizes_json(name: &str, sizes: &Sizes, emitted: u64) -> J {
    J::obj(vec![
        ("horizon_virtual_s", J::Num(sizes.horizon.as_secs_f64())),
        ("preload_virtual_s", J::Num(sizes.preload.as_secs_f64())),
        ("query_rounds", J::Num(sizes.rounds as f64)),
        ("emitted_tuples", J::Num(emitted as f64)),
        ("threads", J::Num(workloads::threads(name) as f64)),
    ])
}

pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    runnable(name)?;
    let sizes = workloads::sizes(name, opts.scale());
    let dir = opts.scratch_dir(name);
    let budget = opts.seconds;

    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let min_reps = if opts.smoke { 2 } else { MIN_REPS };
    // The high-water mark of exactly one repetition in a fresh process: it
    // creeps up with every further repetition (heap fragmentation), and how
    // many fit the measuring time depends on the host's speed that day.
    let mut rss = 0.0;
    while reps.len() < min_reps
        || (started.elapsed().as_secs_f64() < budget && reps.len() < MAX_REPS)
    {
        reps.push(run_rep(name, opts.seed, &sizes, &dir, Mode::Timed)?);
        if reps.len() == 1 {
            rss = peak_rss_mb();
        }
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let extra = Instant::now();
    while !opts.smoke
        && setups.len() < SETUP_SAMPLES
        && extra.elapsed().as_secs_f64() < SETUP_BUDGET_S
    {
        let t0 = Instant::now();
        let built = workloads::build(name, opts.seed, &sizes, &dir, false)?;
        setups.push(t0.elapsed().as_secs_f64());
        built.teardown();
    }

    let (mut failed, mut notes) = check_reps(&reps);
    let mut total: u64 = reps.iter().map(attempted).sum();
    failed += cross_checks(name, opts, &sizes, &dir, &reps[0], &mut total, &mut notes)?;

    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.emitted as f64 / r.job_wall_s)
        .collect();
    let mut metrics = vec![
        Metric::new("setup_s", median(&setups)).spread(spread(&setups)),
        Metric::new("tuples_per_s", median(&rates)).spread(spread(&rates)),
        Metric::new("peak_rss_mb", rss),
        Metric::new("failed_share", failed as f64 / total.max(1) as f64),
    ];
    if name != "edw_query" {
        let p99s: Vec<f64> = reps.iter().map(|r| r.virt_e2e_p99_ms).collect();
        metrics.push(Metric::new("virt_e2e_p99_ms", median(&p99s)).spread(spread(&p99s)));
    }
    if workloads::is_durable(name) {
        let disk: Vec<f64> = reps
            .iter()
            .map(|r| r.disk_bytes as f64 / (1u64 << 20) as f64)
            .collect();
        metrics.push(Metric::new("disk_mb", median(&disk)).spread(spread(&disk)));
    }
    if name == "edw_query" {
        // Percentiles per repetition; the median repetition is reported.
        let per_rep: Vec<Vec<f64>> = reps
            .iter()
            .map(|r| sorted(r.queries.iter().map(|(_, us)| *us).collect()))
            .collect();
        for (metric, q) in [("query_p50_us", 0.5), ("query_p99_us", 0.99)] {
            let values: Vec<f64> = per_rep.iter().map(|s| percentile(s, q)).collect();
            metrics.push(Metric::new(metric, median(&values)).spread(spread(&values)));
        }
        notes.push(format!(
            "query tail: {}",
            stats::tail_statement(&per_rep[0])
        ));
    }

    let detail = J::obj(vec![
        ("sizes", sizes_json(name, &sizes, reps[0].emitted)),
        ("repetitions", J::Num(reps.len() as f64)),
        ("setup_samples", J::Num(setups.len() as f64)),
        ("sunk_tuples", J::Num(reps[0].sunk as f64)),
        ("operator_dropped_tuples", J::Num(reps[0].dropped as f64)),
        ("digest", J::str(format!("{:016x}", reps[0].digest))),
    ]);
    Ok(Outcome {
        workload: name.to_string(),
        metrics,
        attempted: total,
        failed,
        notes,
        detail,
    })
}

/// Checks that need a run of their own, made after the timed repetitions:
/// `chain_par` against a sequential run of the same job, `edw_query` against
/// a repetition whose every answer is compared with a brute-force reference.
fn cross_checks(
    name: &str,
    opts: &Options,
    sizes: &Sizes,
    dir: &Path,
    first: &Rep,
    total: &mut u64,
    notes: &mut Vec<String>,
) -> Result<u64, String> {
    let mut failed = 0;
    if name == "chain_par" {
        let reference = run_rep("chain", opts.seed, sizes, dir, Mode::Timed)?;
        if reference.digest != first.digest {
            failed += 1;
            notes.push("chain_par's output digest differs from sequential chain's".into());
        }
    }
    if name == "edw_query" {
        let verified = run_rep(name, opts.seed, sizes, dir, Mode::Verify)?;
        *total += verified.queries.len() as u64;
        failed += verified.wrong_queries;
        if verified.wrong_queries > 0 {
            notes.push(format!(
                "{} of {} answers differ from the brute-force reference",
                verified.wrong_queries,
                verified.queries.len()
            ));
        }
        if verified.answers != first.answers {
            failed += 1;
            notes.push("timed answers differ from the verified repetition's".into());
        }
    }
    Ok(failed)
}
