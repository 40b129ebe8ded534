//! `perfbench steady`: how steady is a workload's end-to-end figure?
//!
//! ```text
//! perfbench steady --workload W [--runs N] [--seconds S] [--seed-base B]
//!                  [--a "bash perfbench/run.sh"] [--b "bash ../parent/perfbench/run.sh"]
//! ```
//!
//! Runs the workload `N` times on side A and `N` times on side B,
//! alternating which side goes first in each pair; every run has its own
//! seed (pair `i`: A at `B + 2i`, B at `B + 2i + 1`). With no `--b`, side
//! B is the same build as side A, so the output shows how far two sets of
//! runs of unchanged code drift. For every end-to-end metric it prints the
//! quartiles and spread (inter-quartile distance over median) of all runs
//! and of each side, each side's median and the shift of B's median
//! against A's, next to the bound `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use hsconas_serve::json::{self, Json};

use crate::stats::{median, quartiles, spread};

struct Opts {
    workload: String,
    runs: usize,
    seconds: String,
    seed_base: u64,
    a: Vec<String>,
    b: Vec<String>,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let default_cmd = vec!["bash".to_string(), "perfbench/run.sh".to_string()];
    let mut o = Opts {
        workload: String::new(),
        runs: 10,
        seconds: "10".into(),
        seed_base: 1,
        a: default_cmd,
        b: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => o.workload = v.clone(),
            "--runs" => o.runs = v.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => o.seconds = v.clone(),
            "--seed-base" => o.seed_base = v.parse().map_err(|e| format!("--seed-base: {e}"))?,
            "--a" => o.a = v.split_whitespace().map(str::to_string).collect(),
            "--b" => o.b = v.split_whitespace().map(str::to_string).collect(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.workload.is_empty() || o.runs < 2 || o.a.is_empty() {
        return Err("need --workload and --runs >= 2".into());
    }
    if o.b.is_empty() {
        o.b = o.a.clone();
    }
    Ok(o)
}

/// One run's last stdout line, parsed.
fn run_once(cmd: &[String], o: &Opts, seed: u64) -> Result<Json, String> {
    let output = Command::new(&cmd[0])
        .args(&cmd[1..])
        .args(["--workload", &o.workload, "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds, "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", cmd.join(" ")))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", cmd.join(" "), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    json::parse(last.as_bytes()).map_err(|e| format!("result line {last:?}: {e}"))
}

/// `(name, unit, better, bound)` of every end-to-end metric.
fn bounds() -> Result<Vec<(String, String, String, f64)>, String> {
    let text = std::fs::read("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok((
                s("name").ok_or("metric without a name")?,
                s("unit").unwrap_or_default(),
                s("better").unwrap_or_default(),
                m.get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            ))
        })
        .collect()
}

pub fn main(argv: &[String]) -> i32 {
    let o = match parse(argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench steady: {e}");
            return 2;
        }
    };
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench steady: {e}");
            return 2;
        }
    };
    // side -> metric -> values; side -> (attempted, failed)
    let mut values: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
    let mut tallies = [(0u64, 0u64); 2];
    for i in 0..o.runs {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let seed = o.seed_base + 2 * i as u64 + side as u64;
            let cmd = if side == 0 { &o.a } else { &o.b };
            let result = match run_once(cmd, &o, seed) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench steady: {e}");
                    return 1;
                }
            };
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                eprintln!("perfbench steady: run at seed {seed} reported correct=false");
                return 1;
            }
            let n = |k: &str| result.get(k).and_then(Json::as_u64).unwrap_or(0);
            tallies[side].0 += n("attempted");
            tallies[side].1 += n("failed");
            if let Some(Json::Obj(ms)) = result.get("metrics") {
                for (name, m) in ms {
                    if let Some(v) = m.get("value").and_then(Json::as_f64) {
                        values[side].entry(name.clone()).or_default().push(v);
                    }
                }
            }
            eprintln!("perfbench steady: pair {i} side {} done", ["A", "B"][side]);
        }
    }

    println!(
        "workload {} — {} runs per side, {} s each, seeds {}..{} (A even, B odd)",
        o.workload,
        o.runs,
        o.seconds,
        o.seed_base,
        o.seed_base + 2 * o.runs as u64 - 1
    );
    println!(
        "{:<12} {:>5} | {:>11} {:>11} {:>11} {:>7} | {:>7} {:>7} | {:>11} {:>11} {:>7} | {:>5}",
        "metric",
        "unit",
        "all q1",
        "all median",
        "all q3",
        "spread",
        "A sprd",
        "B sprd",
        "A median",
        "B median",
        "B vs A",
        "bound"
    );
    let mut steady = true;
    for (name, unit, better, bound) in &bounds {
        let (Some(a), Some(b)) = (values[0].get(name), values[1].get(name)) else {
            println!("{name:<12} missing from the results");
            steady = false;
            continue;
        };
        let all: Vec<f64> = a.iter().chain(b).copied().collect();
        let (q1, m, q3) = quartiles(&all);
        let (s, sa, sb) = (spread(&all), spread(a), spread(b));
        let (am, bm) = (median(a), median(b));
        // Positive shift = B worse than A in the metric's own direction.
        let shift = if better == "higher" {
            (am - bm) / am
        } else {
            (bm - am) / am
        };
        let within = shift <= *bound && s <= *bound && sa <= *bound && sb <= *bound;
        steady &= within;
        println!(
            "{name:<12} {unit:>5} | {q1:>11.5} {m:>11.5} {q3:>11.5} {s:>7.4} | {sa:>7.4} {sb:>7.4} | {am:>11.5} {bm:>11.5} {shift:>+7.4} | {bound:>5}{}",
            if within { "" } else { "  OUTSIDE" }
        );
    }
    let share = |(att, fail): (u64, u64)| fail as f64 / att.max(1) as f64;
    println!(
        "failed share   A {}/{} = {:.6}   B {}/{} = {:.6}",
        tallies[0].1,
        tallies[0].0,
        share(tallies[0]),
        tallies[1].1,
        tallies[1].0,
        share(tallies[1])
    );
    if steady {
        0
    } else {
        1
    }
}
