//! `perfbench`: the HSCoNAS workspace's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload search|deploy|serve --seed N --seconds S --trace 0|1
//! perfbench steady --workload W --runs N [--seconds S] [--seed-base N] [--a CMD] [--b CMD]
//! ```
//!
//! A run derives every input from `--seed`, sets the workload up, drives
//! the program through its public entry points for `--seconds` (whole
//! rounds only), checks every answer against a computation made apart
//! from the measured path, and prints a header, one line per metric and,
//! last, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! split from spans the benchmark records around its own calls.
//! `run.sh` builds this binary and the `hsconas` CLI from source first.

mod checks;
mod deploy;
mod search;
mod serve;
mod stats;
mod steady;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

/// Parsed command line of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["search", "deploy", "serve"];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per operation kind: (attempted, failed).
    pub ops: BTreeMap<String, (u64, u64)>,
    /// Checks that rejected an answer, with what they saw.
    pub check_failures: Vec<String>,
    /// Checks run (passed or not).
    pub checks_run: u64,
    /// Measured metrics by name (units come from the metric lists).
    pub metrics: BTreeMap<String, f64>,
    /// Free-form lines printed after the header (reference figures).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one attempted operation of `kind`, failed when `ok` is false.
    pub fn op(&mut self, kind: &str, ok: bool) {
        let e = self.ops.entry(kind.to_string()).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
        }
    }

    /// Records a correctness check; returns whether it passed.
    pub fn check(&mut self, result: Result<(), String>) -> bool {
        self.checks_run += 1;
        match result {
            Ok(()) => true,
            Err(why) => {
                eprintln!("perfbench: check failed: {why}");
                self.check_failures.push(why);
                false
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || per_layer().iter().any(|m| m.0 == name),
            "metric {name} is in neither list"
        );
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn attempted(&self) -> u64 {
        self.ops.values().map(|v| v.0).sum()
    }

    fn failed(&self) -> u64 {
        self.ops.values().map(|v| v.1).sum()
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64 of `seed` and a per-input salt: every input of a workload is
/// drawn from `derive(workload_seed, salt)`, so one seed fixes them all.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set of process `pid` (`"self"` for this one), MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The kernel layer's process-wide counters plus the calling thread's
/// activation-arena heap fallbacks, read around a measured stretch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub direct: u64,
    pub scalar: u64,
    pub avx2: u64,
    pub parallel: u64,
    pub pack_hits: u64,
    pub pack_lookups: u64,
    pub arena_misses: u64,
}

impl Counters {
    pub fn now() -> Counters {
        use hsconas_tensor::kernels;
        let d = kernels::dispatch_counts();
        let c = kernels::cache::stats();
        Counters {
            direct: d.direct,
            scalar: d.scalar,
            avx2: d.avx2,
            parallel: kernels::parallel_counts().parallel,
            pack_hits: c.hits,
            pack_lookups: c.hits + c.misses + c.invalidations,
            arena_misses: hsconas_tensor::arena::stats().misses,
        }
    }

    /// What happened since `before` (read earlier on this thread).
    pub fn since(before: &Counters) -> Counters {
        let now = Counters::now();
        Counters {
            direct: now.direct - before.direct,
            scalar: now.scalar - before.scalar,
            avx2: now.avx2 - before.avx2,
            parallel: now.parallel - before.parallel,
            pack_hits: now.pack_hits - before.pack_hits,
            pack_lookups: now.pack_lookups - before.pack_lookups,
            arena_misses: now.arena_misses - before.arena_misses,
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.direct += other.direct;
        self.scalar += other.scalar;
        self.avx2 += other.avx2;
        self.parallel += other.parallel;
        self.pack_hits += other.pack_hits;
        self.pack_lookups += other.pack_lookups;
        self.arena_misses += other.arena_misses;
    }

    /// Reports the kernel counters divided by `per` (searches or
    /// inferences) and the arena fallbacks divided by `forwards`.
    pub fn report(&self, out: &mut Outcome, per: f64, forwards: f64) {
        out.metric("tensor.gemm_direct_calls", self.direct as f64 / per);
        out.metric("tensor.gemm_scalar_calls", self.scalar as f64 / per);
        out.metric("tensor.gemm_avx2_calls", self.avx2 as f64 / per);
        out.metric("tensor.gemm_parallel_calls", self.parallel as f64 / per);
        if self.pack_lookups > 0 {
            out.metric(
                "tensor.pack_hit_ratio",
                self.pack_hits as f64 / self.pack_lookups as f64,
            );
        }
        if forwards > 0.0 {
            out.metric(
                "tensor.allocs_per_forward",
                self.arena_misses as f64 / forwards,
            );
        }
    }
}

/// Set-up is timed at least this many times before the timed work...
const SETUP_MIN_REPS: usize = 3;
/// ...and until this many seconds have passed, and as often again after
/// the timed work; `setup_s` is the median of all of them. The reference
/// host runs for seconds at a time at up to half speed (see the README),
/// so set-ups timed in one stretch all land in one such phase and the
/// run's median jumps between phases; bracketing the timed work spreads
/// the set-ups over the whole run.
const SETUP_MIN_S: f64 = 2.0;

/// Set-up wall times of one run, in seconds.
pub struct SetupTimes(Vec<f64>);

/// Repeats `setup` before the timed work, returning the wall times and
/// the last repetition's value (earlier values are dropped as they are
/// replaced, outside the timed part).
pub fn timed_setup<T>(setup: impl FnMut() -> Result<T, String>) -> Result<(SetupTimes, T), String> {
    let mut times = SetupTimes(Vec::new());
    let last = times.repeat(setup)?;
    Ok((times, last))
}

impl SetupTimes {
    /// Times `setup` again after the timed work and returns the median of
    /// every set-up time of the run, in seconds.
    pub fn again<T>(mut self, setup: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
        self.repeat(setup)?;
        Ok(stats::median(&self.0))
    }

    fn repeat<T>(&mut self, mut setup: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let start = Instant::now();
        let mut last = None;
        let mut reps = 0;
        while reps < SETUP_MIN_REPS || secs(start) < SETUP_MIN_S {
            let t = Instant::now();
            let value = setup()?;
            self.0.push(secs(t));
            last = Some(value);
            reps += 1;
        }
        eprintln!(
            "perfbench: set-up ran {reps} times: {:?} s",
            self.0[self.0.len() - reps..]
                .iter()
                .map(|t| (t * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        );
        Ok(last.expect("at least one set-up"))
    }
}

/// End-to-end metrics, reported by every workload with `--trace 0`:
/// `(name, unit)`. See the README for what "one operation" is per workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// `GraphOp` kinds, by their `name()`.
pub const GRAPH_OPS: [&str; 16] = [
    "input",
    "const",
    "conv",
    "fused_conv_bn",
    "batch_norm",
    "relu",
    "channel_shuffle",
    "slice_channels",
    "concat",
    "interleave_masked",
    "pad_channels",
    "avg_pool",
    "global_avg_pool",
    "adapt_channels",
    "mask_channels",
    "linear",
];

/// Per-layer metrics, reported by every workload with `--trace 1`:
/// `(name, unit)`. A layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &'static str)] = &[
        ("supernet.train_step_ms", "ms"),
        ("supernet.train_s", "s"),
        ("supernet.eval_ms", "ms"),
        ("supernet.evals", "count"),
        ("supernet.prefix_hit_ratio", "ratio"),
        ("subnet.final_train_s", "s"),
        ("shrink.self_s", "s"),
        ("evo.self_ms", "ms"),
        ("latency.calibrate_ms", "ms"),
        ("latency.predict_us", "us"),
        ("tensor.gemm_direct_calls", "count"),
        ("tensor.gemm_scalar_calls", "count"),
        ("tensor.gemm_avx2_calls", "count"),
        ("tensor.gemm_parallel_calls", "count"),
        ("tensor.pack_hit_ratio", "ratio"),
        ("tensor.allocs_per_forward", "count"),
        ("graph.reference_s", "s"),
        ("graph.lower_ms", "ms"),
        ("graph.optimize_ms", "ms"),
        ("graph.encode_ms", "ms"),
        ("graph.decode_ms", "ms"),
        ("graph.compile_s", "s"),
        ("graph.infer_ms", "ms"),
        ("graph.nodes", "count"),
        ("graph.weight_floats", "count"),
        ("graph.artifact_mb", "MB"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    out.extend(
        GRAPH_OPS
            .iter()
            .map(|op| (format!("graph.exec.{op}_ms"), "ms")),
    );
    for cmd in ["predict_latency", "score", "infer", "search", "pareto"] {
        out.push((format!("serve.{cmd}_p50_ms"), "ms"));
        out.push((format!("serve.server_{cmd}_p50_ms"), "ms"));
    }
    let tail: &[(&str, &'static str)] = &[
        ("serve.req_p99_ms", "ms"),
        ("serve.queue_peak", "count"),
        ("serve.batch_mean", "count"),
        ("serve.cached_evaluations", "count"),
        ("serve.graph_cache_hits", "count"),
        ("serve.decode_us", "us"),
        ("serve.encode_us", "us"),
        ("search.unattributed_s", "s"),
        ("graph.unattributed_ms", "ms"),
        ("serve.unattributed_ms", "ms"),
        ("trace.overhead", "ratio"),
    ];
    out.extend(tail.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// Checks that every span tree's layer parts plus its root's own time (the
/// unattributed remainder) add up to `walls[i]`, the wall time of tree `i`
/// measured around it with its own clock, and prints the sums.
pub fn report_trace_sum(
    out: &mut Outcome,
    spans: &[trace::Span],
    walls: &[f64],
    path: &std::path::Path,
) {
    let trees = trace::tree_sums(spans);
    if trees.len() != walls.len() {
        out.check(Err(format!(
            "{} span trees for {} measured calls",
            trees.len(),
            walls.len()
        )));
        return;
    }
    let (mut parts, mut unattributed, mut worst) = (0.0, 0.0, 0.0f64);
    for (&(p, u), &wall) in trees.iter().zip(walls) {
        out.check(checks::parts_add_up(p, u, wall));
        parts += p;
        unattributed += u;
        worst = worst.max((p + u - wall).abs());
    }
    let wall: f64 = walls.iter().sum();
    out.note(format!(
        "trace            : {} spans in {} trees -> {}; summed over the trees, layer parts {parts:.6} s + unattributed {unattributed:.6} s = {:.6} s against {wall:.6} s measured around them (worst tree off by {:.3} ms)",
        spans.len(),
        trees.len(),
        path.display(),
        parts + unattributed,
        worst * 1e3
    ));
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (use {})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("steady") {
        std::process::exit(steady::main(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("git_revision     : {}", git_revision());
    println!("host_parallelism : {host_parallelism}");
    println!(
        "gemm_variant     : {}",
        hsconas_tensor::kernels::selected_variant().name()
    );

    let mut out = Outcome::default();
    let run = match args.workload.as_str() {
        "search" => search::run(&args, &mut out),
        "deploy" => deploy::run(&args, &mut out),
        "serve" => serve::run(&args, &mut out),
        _ => unreachable!("parse_args validated the workload"),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {} workload aborted: {e}", args.workload);
        std::process::exit(1);
    }

    for (kind, (attempted, failed)) in &out.ops {
        println!("ops {kind:<16}: attempted {attempted}, failed {failed}");
    }
    println!(
        "checks           : {} run, {} failed",
        out.checks_run,
        out.check_failures.len()
    );
    for note in &out.notes {
        println!("{note}");
    }
    let attempted = out.attempted();
    if attempted == 0 {
        eprintln!("perfbench: no operation completed");
        std::process::exit(1);
    }
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in &wanted {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            // A layer this workload leaves idle.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                std::process::exit(1);
            }
        };
        println!("metric {name} = {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures.is_empty(),
        out.failed(),
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_serve::json::{self, Json};

    /// `(name, unit)` of every entry of one `BENCHMARK.json` list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn derived_inputs_depend_on_seed_and_salt() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(8, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
    }
}
