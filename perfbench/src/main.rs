//! The benchmark program: runs one workload for a fixed time, checks every
//! result, and prints one JSON object as its last line of output.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//! ```
//!
//! Each iteration builds a fresh fixture (timed as set-up), runs the
//! measured phase and checks it.  Iterations repeat while the next one is
//! expected to end within `--seconds`; every figure is the median over the
//! iterations.  With `--trace 1` untraced and traced iterations alternate,
//! the traced ones wrap the layers' interfaces (see `layers.rs`), and the
//! output holds the per-layer figures plus the tracing overhead instead of
//! the end-to-end ones.  See README.md for the workloads and the metrics.

mod layers;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use workloads::{
    Iteration, LearnEngine, LearnHw, LearnRemote, LearnSim, Workload, ENGINE_UNITS, HW_SETS,
    REMOTE_UNITS, SIM_UNITS,
};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("membership_queries", "count"),
    ("cache_accesses", "count"),
    ("success_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units.  Every traced run reports
/// all of them; a layer a workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("learning.table_fill_s", "s"),
    ("learning.closure_s", "s"),
    ("learning.equivalence_s", "s"),
    ("learning.identification_s", "s"),
    ("learning.table_fill_queries", "count"),
    ("learning.closure_queries", "count"),
    ("learning.equivalence_queries", "count"),
    ("learning.identification_queries", "count"),
    ("learning.trie_hit_rate", "ratio"),
    ("learning.conformance_tests", "count"),
    ("learning.counterexamples", "count"),
    ("learning.campaign_s", "s"),
    ("learning.self_s", "s"),
    ("polca.oracle_calls", "count"),
    ("polca.oracle_s", "s"),
    ("polca.cache_probes", "count"),
    ("polca.accesses_per_probe", "ratio"),
    ("engine.self_s", "s"),
    ("engine.run_batch_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_rate", "ratio"),
    ("store.entries", "count"),
    ("store.approx_mb", "MB"),
    ("backend.s", "s"),
    ("backend.calls", "count"),
    ("backend.queries", "count"),
    ("backend.queries_per_call", "ratio"),
    ("server.round_trips", "count"),
    ("server.rtt_p50_us", "us"),
    ("server.rtt_p99_us", "us"),
    ("server.request_p50_us", "us"),
    ("server.request_p99_us", "us"),
    ("server.queries", "count"),
    ("server.store_hits", "count"),
    ("server.backend_queries", "count"),
    ("persist.appended", "count"),
    ("persist.dropped", "count"),
    ("persist.snapshots", "count"),
    ("persist.shutdown_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Each iteration builds its fixture several times and keeps the last one,
/// so `setup_s` is a median of many samples taken across the whole run: at
/// least `MIN_SETUPS` times, then again while under `SETUP_BUDGET`, at most
/// `MAX_SETUPS` times.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 30;
const SETUP_BUDGET: Duration = Duration::from_millis(100);

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["learn_sim", "learn_engine", "learn_remote", "learn_hw"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
            (None, None, None, None, None);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    })
                }
                "--work-dir" => work_dir = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (known: {})",
                WORKLOADS.join(", ")
            ));
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".to_string());
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            work_dir: work_dir.ok_or("--work-dir is required")?,
        })
    }
}

/// What a run reports: the four top-level keys of the output object.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// User plus system CPU time of the whole process (all threads, exited
/// ones included), from `/proc/self/stat`, in seconds.
fn cpu_seconds() -> f64 {
    // Linux reports these fields in clock ticks of 1/100 s.
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size of the process (`VmHWM`) since the last
/// [`reset_peak_rss`], in megabytes.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Resets the process's peak resident set size to its current size, so the
/// next [`peak_rss_mb`] covers one iteration only.  Where the kernel does
/// not allow it, the peak stays the process's lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Builds `workload`'s fixture several times (see [`MIN_SETUPS`]), records
/// each build's time in `setup_s`, and returns the last fixture.
fn timed_setups<W: Workload>(
    workload: &W,
    setups_made: &mut usize,
    setup_s: &mut Vec<f64>,
) -> Result<W::Fixture, String> {
    let started = Instant::now();
    let mut builds = 0;
    loop {
        let build_started = Instant::now();
        let fixture = workload.setup(*setups_made)?;
        setup_s.push(build_started.elapsed().as_secs_f64());
        *setups_made += 1;
        builds += 1;
        if builds >= MAX_SETUPS || (builds >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET) {
            return Ok(fixture);
        }
    }
}

/// Runs `workload` for about `args.seconds` and summarises it.
fn measure<W: Workload>(workload: &W, args: &Args) -> Report {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut problems: Vec<String> = Vec::new();
    let mut setup_s = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let mut setups_made = 0;
    let mut counts: Option<(u64, u64)> = None;
    let (mut wall_s, mut cpu_s) = (Vec::new(), Vec::new());
    // Peak memory of the first untraced iteration only: later iterations
    // start from the heap earlier ones left behind, and their peaks varied
    // by up to 10% with it.
    let mut first_peak_mb = None;
    let mut traced_wall_s = Vec::new();
    let mut layer_samples: Vec<Iteration> = Vec::new();
    let mut longest = Duration::ZERO;
    let min_iterations = if args.trace { 2 } else { 1 };
    let mut iteration = 0usize;
    while problems.is_empty()
        && (iteration < min_iterations || started.elapsed() + longest.mul_f64(1.2) <= budget)
    {
        let traced = args.trace && iteration % 2 == 1;
        iteration += 1;
        let setup_started = Instant::now();
        let mut fixture = match timed_setups(workload, &mut setups_made, &mut setup_s) {
            Ok(fixture) => fixture,
            Err(e) => {
                problems.push(format!("set-up failed: {e}"));
                break;
            }
        };

        reset_peak_rss();
        let cpu_before = cpu_seconds();
        let run_started = Instant::now();
        let result = workload.run(&mut fixture, traced);
        let wall = run_started.elapsed();
        let cpu = cpu_seconds() - cpu_before;
        let peak = peak_rss_mb();
        drop(fixture);
        longest = longest.max(setup_started.elapsed());
        eprintln!(
            "perfbench: iteration {iteration}{}: wall {:.3} s, cpu {cpu:.2} s, peak {peak:.1} MB",
            if traced { " (traced)" } else { "" },
            wall.as_secs_f64()
        );

        let done = match result {
            Ok(done) => done,
            Err(e) => {
                attempted += 1;
                failed += 1;
                problems.push(format!("iteration {iteration} failed: {e}"));
                break;
            }
        };
        attempted += done.attempted;
        failed += done.failures.len() as u64;
        for failure in &done.failures {
            eprintln!("perfbench: FAILED {failure}");
        }
        let these = (done.membership_queries, done.cache_accesses);
        match counts {
            None => counts = Some(these),
            Some(first) if first != these => problems.push(format!(
                "iteration {iteration} counted {these:?} (queries, accesses), \
                 the first counted {first:?}"
            )),
            Some(_) => {}
        }
        if traced {
            for name in done.layers.keys() {
                if !PER_LAYER.iter().any(|(n, _)| n == name) {
                    problems.push(format!("unlisted per-layer metric {name}"));
                }
            }
            traced_wall_s.push(wall.as_secs_f64());
            layer_samples.push(done);
        } else {
            wall_s.push(wall.as_secs_f64());
            cpu_s.push(cpu);
            first_peak_mb.get_or_insert(peak);
        }
    }
    for problem in &problems {
        eprintln!("perfbench: {problem}");
    }
    eprintln!(
        "perfbench: {} {} iterations in {:.1} s",
        args.workload,
        iteration,
        started.elapsed().as_secs_f64()
    );

    let (queries, accesses) = counts.unwrap_or((0, 0));
    let metrics = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.wall_s" => median(&traced_wall_s),
                    "trace.untraced_wall_s" => median(&wall_s),
                    "trace.overhead_s" => median(&traced_wall_s) - median(&wall_s),
                    _ => {
                        let samples: Vec<f64> = layer_samples
                            .iter()
                            .map(|s| s.layers.get(name).copied().unwrap_or(0.0))
                            .collect();
                        median(&samples)
                    }
                };
                (name, value, unit)
            })
            .collect()
    } else {
        let success = 1.0 - failed as f64 / attempted.max(1) as f64;
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => median(&setup_s),
                    "wall_s" => median(&wall_s),
                    "cpu_s" => median(&cpu_s),
                    "peak_rss_mb" => first_peak_mb.unwrap_or(0.0),
                    "membership_queries" => queries as f64,
                    "cache_accesses" => accesses as f64,
                    "success_frac" => success,
                    _ => unreachable!("every end-to-end metric is computed above"),
                };
                (name, value, unit)
            })
            .collect()
    };
    Report {
        correct: problems.is_empty() && failed == 0 && attempted > 0,
        attempted: attempted.max(1),
        failed: if problems.is_empty() {
            failed
        } else {
            failed.max(1)
        },
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let report = match args.workload.as_str() {
        "learn_sim" => measure(&LearnSim { units: &SIM_UNITS }, &args),
        "learn_engine" => measure(
            &LearnEngine {
                units: &ENGINE_UNITS,
            },
            &args,
        ),
        "learn_remote" => measure(
            &LearnRemote {
                units: &REMOTE_UNITS,
                work_dir: args.work_dir.clone(),
            },
            &args,
        ),
        "learn_hw" => measure(
            &LearnHw {
                seed: args.seed,
                sets: HW_SETS,
            },
            &args,
        ),
        _ => unreachable!("Args::parse accepts only known workloads"),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use server::Json;

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_metrics_reported_here() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            names_and_units(spec.get("end_to_end").expect("end_to_end")),
            owned(END_TO_END)
        );
        assert_eq!(
            names_and_units(spec.get("per_layer").expect("per_layer")),
            owned(PER_LAYER)
        );
    }

    #[test]
    fn a_report_is_one_json_object_with_the_four_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s", 1.25, "s"), ("cpu_s", f64::NAN, "s")],
        };
        let json = Json::parse(&report.to_json()).expect("the report parses");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
        let metrics = json.get("metrics").expect("metrics");
        let wall = metrics.get("wall_s").expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert!(metrics.get("cpu_s").is_some());
    }
}
