//! `slbench` — the repository's benchmark of record (see `README.md` beside
//! this package). `run.sh` builds and starts it.
//!
//! With `--workload <name>` it runs that workload in this process and ends
//! its output with the contract's one-line JSON result. Without, it runs
//! every workload, each in a child process of its own (so that `peak_rss_mb`
//! is the workload's own), prints every metric and writes
//! `<out>/results.json`; `--aa` does that twice and compares.

mod alloc;
mod json;
mod replay;
mod report;
mod run;
mod span;
mod spec;
mod stats;
mod timed;
mod trace;
mod workloads;

use json::J;
use spec::{EndToEnd, END_TO_END, PARTIAL};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use streamloader::obs::json::Json;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `--smoke` divides every horizon by this.
const SMOKE_SCALE: u64 = 50;

pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    /// Measuring time of one workload's run, in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub aa: bool,
    /// Where result files and scratch directories go.
    pub out: PathBuf,
}

impl Options {
    pub fn scale(&self) -> u64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            1
        }
    }

    /// Scratch directory of this process for a workload's durable tier.
    pub fn scratch_dir(&self, workload: &str) -> PathBuf {
        self.out
            .join("tmp")
            .join(format!("{workload}-{}", std::process::id()))
    }
}

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--aa] [--out DIR]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        aa: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; one of {:?}",
                        workloads::NAMES
                    ));
                }
                opts.workload = Some(name);
            }
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => opts.smoke = true,
            "--aa" => opts.aa = true,
            "--out" => opts.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if opts.smoke {
        // Two short repetitions per workload; no measuring time to fill.
        opts.seconds = 0.0;
    }
    Ok(opts)
}

fn result_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    let suffix = if trace { "-trace" } else { "" };
    out.join(format!("result-{workload}{suffix}.json"))
}

/// Run one workload in this process; the contract's JSON is the last line.
fn run_one(name: &str, opts: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
    let outcome = if opts.trace {
        trace::run(name, opts)
    } else {
        timed::run(name, opts)
    };
    // Leave no scratch behind, whatever happened.
    let _ = std::fs::remove_dir_all(opts.scratch_dir(name));
    let _ = std::fs::remove_dir(opts.out.join("tmp"));
    let outcome = outcome?;
    outcome.print_table();
    let path = result_path(&opts.out, name, opts.trace);
    std::fs::write(&path, outcome.to_json().to_text() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{}", outcome.contract_line(opts.trace)?);
    Ok(outcome.correct())
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Run every workload, one child process each; returns the assembled
/// results document and whether every check passed.
fn run_all(opts: &Options, results_file: &str) -> Result<(Json, bool), String> {
    let started = Instant::now();
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for name in workloads::NAMES {
        if let Err(why) = timed::runnable(name) {
            println!("{name:<10} # {why}");
            workloads_json.push((name.to_string(), J::obj(vec![("unresolved", J::str(why))])));
            continue;
        }
        println!("{name:<10} # {}", workloads::why(name));
        if workloads::UNDECLARED.contains(&name) {
            println!("{name:<10} # run and checked here, but not declared in BENCHMARK.json");
        }
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out);
        if opts.smoke {
            child.arg("--smoke");
        }
        let output = child.output().map_err(|e| format!("start {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        // The last line is the machine-readable result; the rest is the table.
        let contract = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() || !contract.contains("\"correct\": true") {
            all_correct = false;
            println!("{name:<10} # FAILED (exit {:?})", output.status.code());
        }
        let path = result_path(&opts.out, name, opts.trace);
        match std::fs::read_to_string(&path) {
            Ok(text) => workloads_json.push((name.to_string(), J::Raw(text))),
            Err(e) => {
                all_correct = false;
                println!("{name:<10} # no result file: {e}");
            }
        }
        let _ = std::fs::remove_file(path);
    }
    let doc = J::obj(vec![
        (
            "host",
            J::obj(vec![
                ("nproc", J::Num(timed::nproc() as f64)),
                ("rustc", J::str(command_output("rustc", &["-V"]))),
                (
                    "git_commit",
                    J::str(command_output("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
        ("seed", J::Num(opts.seed as f64)),
        ("seconds_per_workload", J::Num(opts.seconds)),
        ("smoke", J::Bool(opts.smoke)),
        ("trace", J::Bool(opts.trace)),
        ("workloads", J::Obj(workloads_json)),
        ("total_wall_s", J::Num(started.elapsed().as_secs_f64())),
    ]);
    let path = opts.out.join(results_file);
    let text = doc.to_text();
    std::fs::write(&path, text.clone() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "# wrote {} ({:.1} s)",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    let parsed = streamloader::obs::json::parse(&text).map_err(|e| format!("own results: {e}"))?;
    Ok((parsed, all_correct))
}

fn metric_value(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    let m = results
        .as_obj()?
        .get("workloads")?
        .as_obj()?
        .get(workload)?;
    json::num(m.as_obj()?.get("metrics")?.as_obj()?.get(metric)?, "value")
}

/// How much worse `b` is than `a`, as a share of `a`, after the metric's
/// absolute slack; negative when `b` is better.
fn worsening(spec: &EndToEnd, a: f64, b: f64) -> f64 {
    let worse_by = match spec.better {
        spec::Better::Lower => b - a,
        spec::Better::Higher => a - b,
    };
    if a == 0.0 {
        return if worse_by == 0.0 { 0.0 } else { f64::INFINITY };
    }
    ((worse_by.abs() - spec.slack).max(0.0) * worse_by.signum()) / a.abs()
}

/// `--aa`: the same build measured twice must agree within every bound.
fn run_aa(opts: &Options) -> Result<bool, String> {
    let (a, ok_a) = run_all(opts, "results-a.json")?;
    let (b, ok_b) = run_all(opts, "results-b.json")?;
    println!("# A/A: relative difference of the two sets beside each bound");
    let mut within = true;
    for name in workloads::NAMES {
        for spec in END_TO_END.iter().chain(PARTIAL.iter()) {
            if !spec.applies_to(name) {
                continue;
            }
            let (Some(va), Some(vb)) = (
                metric_value(&a, name, spec.name),
                metric_value(&b, name, spec.name),
            ) else {
                continue; // unresolved workload
            };
            // Either set may be the worse one.
            let diff = worsening(spec, va, vb).max(worsening(spec, vb, va));
            let ok = diff <= spec.bound;
            within &= ok;
            println!(
                "{name:<10} {:<18} a={va:<14.6} b={vb:<14.6} diff={:>6.2}% bound={:>5.1}% {}",
                spec.name,
                diff * 100.0,
                spec.bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(ok_a && ok_b && within)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &opts.workload {
        Some(name) => run_one(name, &opts),
        None if opts.aa => run_aa(&opts),
        None => run_all(&opts, "results.json").map(|(_, ok)| ok),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("slbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = parse_args(&args(&[
            "--workload",
            "edw_query",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("contract form");
        assert_eq!(o.workload.as_deref(), Some("edw_query"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        let d = parse_args(&[]).expect("defaults");
        assert_eq!((d.seed, d.seconds, d.trace), (2016, 20.0, false));
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--trace", "yes"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
    }

    #[test]
    fn worsening_respects_direction_and_slack() {
        let rate = &END_TO_END[1];
        assert!((worsening(rate, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(rate, 100.0, 110.0) < 0.0);
        let setup = &END_TO_END[0];
        // 0.4 ms -> 4 ms is inside the 5 ms absolute slack.
        assert_eq!(worsening(setup, 0.0004, 0.004), 0.0);
        assert!((worsening(setup, 1.0, 1.105) - 0.1).abs() < 1e-9);
    }
}
