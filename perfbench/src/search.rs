//! `search`: back-to-back fixed-seed HSCoNAS searches on the real-training
//! substrate (`run_real_pipeline` at `RealPipelineConfig::tiny_default`).
//!
//! Untraced runs time whole `run_real_pipeline` calls. The traced run
//! alternates one untraced call with a re-drive of the same search through
//! the layers' public calls — trainer steps, calibration, shrinking, EA
//! stepping with a benchmark-side objective, and from-scratch training —
//! which must reproduce the untraced result bit for bit.

use std::time::Instant;

use hsconas::{run_real_pipeline, RealPipelineConfig, RealPipelineResult};
use hsconas_data::SyntheticDataset;
use hsconas_evo::{Evaluation, EvoError, EvolutionSearch, Objective};
use hsconas_hwsim::DeviceSpec;
use hsconas_latency::LatencyPredictor;
use hsconas_shrink::{ProgressiveShrinking, ShrinkConfig};
use hsconas_space::{Arch, SearchSpace};
use hsconas_supernet::{build_subnet, train_from_scratch, Supernet, SupernetTrainer, TrainConfig};
use hsconas_tensor::rng::SmallRng;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks;
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{derive, peak_rss_mb, secs, timed_setup, Args, Counters, Outcome};

/// The seeds every run searches. A search's cost depends on its seed (the
/// sampled paths and the winner's width set the training work) and a run
/// fits only a few searches, so every run searches the same seeds and the
/// workload seed only rotates their order.
const SEARCH_SEEDS: [u64; 3] = [2021, 2022, 2023];

/// Searches per round: every seed twice, so each round checks that a seed
/// searched again gives the same answer, and the run's median rests on
/// six searches. On a shared two-core host one search's wall time moves
/// by a third from one search to the next (see the README), so fewer
/// would not be steady.
const ROUND: usize = 2 * SEARCH_SEEDS.len();

/// Seed of the `i`-th search of a run.
fn search_seed(workload_seed: u64, i: usize) -> u64 {
    let n = SEARCH_SEEDS.len() as u64;
    SEARCH_SEEDS[((derive(workload_seed, 0x5ea2c4) + i as u64) % n) as usize]
}

/// The latency predictor a search at `seed` calibrates, rebuilt here from
/// the documented recipe (edge device, 20 archs x 2 repeats, RNG
/// `seed ^ 0xdead`) rather than read back from the pipeline.
fn checking_predictor(config: &RealPipelineConfig, seed: u64) -> Result<LatencyPredictor, String> {
    let space = SearchSpace::tiny(config.classes);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
    LatencyPredictor::calibrate(DeviceSpec::edge_xavier(), &space, 20, 2, &mut rng)
        .map_err(|e| e.to_string())
}

/// Every property one finished search must have.
fn check_search(
    config: &RealPipelineConfig,
    seed: u64,
    r: &RealPipelineResult,
) -> Result<(), String> {
    let mut configured: Vec<usize> = config.shrink_stages.iter().flatten().copied().collect();
    configured.sort_unstable();
    checks::winner_in_shrunk_space(&r.shrunk_space, &configured, &r.best_arch)?;
    let predictor = checking_predictor(config, seed)?;
    let want = predictor
        .predict_ms(&r.best_arch)
        .map_err(|e| e.to_string())?;
    checks::same_f64("winner latency_ms", r.latency_ms, want)?;
    let chance = 1.0 / config.classes as f64;
    if r.from_scratch_accuracy <= chance {
        return Err(format!(
            "seed {seed}: from-scratch accuracy {} is not above chance {chance}",
            r.from_scratch_accuracy
        ));
    }
    Ok(())
}

/// Two results of the same search must agree bit for bit.
fn same_result(what: &str, a: &RealPipelineResult, b: &RealPipelineResult) -> Result<(), String> {
    if a.best_arch != b.best_arch || a.shrunk_space != b.shrunk_space {
        return Err(format!(
            "{what}: winner {} / shrunk space differ from {}",
            a.best_arch, b.best_arch
        ));
    }
    checks::same_f64(what, a.inherited_accuracy, b.inherited_accuracy)?;
    checks::same_f64(what, a.from_scratch_accuracy, b.from_scratch_accuracy)?;
    checks::same_f64(what, a.latency_ms, b.latency_ms)
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let config = RealPipelineConfig::tiny_default();
    // Set-up: a smoke-scale search warms the worker pool, the activation
    // arena and the kernel caches before anything is timed.
    let warm_up = || {
        run_real_pipeline(&RealPipelineConfig::smoke_test(), SEARCH_SEEDS[0])
            .map_err(|e| format!("warm-up search failed: {e}"))
    };
    let (setup, _) = timed_setup(warm_up)?;
    if args.trace {
        return run_traced(args, &config, out);
    }

    let start = Instant::now();
    let mut times = Vec::new();
    let mut results = Vec::new();
    while results.len() % ROUND != 0 || secs(start) < args.seconds {
        let seed = search_seed(args.seed, results.len());
        let t = Instant::now();
        let result = run_real_pipeline(&config, seed);
        times.push(secs(t));
        results.push((seed, result));
    }

    for (k, (seed, result)) in results.iter().enumerate() {
        let ok = match result {
            Ok(r) => {
                let mut ok = out.check(check_search(&config, *seed, r));
                // A seed searched again must give the same answer.
                let first = results
                    .iter()
                    .position(|(s, _)| s == seed)
                    .expect("seed is present");
                if first < k {
                    let repeat = match &results[first].1 {
                        Ok(a) => same_result("a seed searched twice", r, a),
                        Err(_) => Err(format!("first search at seed {seed} failed")),
                    };
                    ok &= out.check(repeat);
                }
                ok
            }
            Err(e) => out.check(Err(format!("search at seed {seed} failed: {e}"))),
        };
        out.op("search", ok);
    }
    for ((seed, result), t) in results.iter().zip(&times) {
        if let Ok(r) = result {
            out.note(format!(
                "search seed {seed}: {t:.3} s, winner {}, inherited acc {:.3}, from-scratch acc {:.3}, {:.3} ms",
                r.best_arch, r.inherited_accuracy, r.from_scratch_accuracy, r.latency_ms
            ));
        }
    }

    out.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN));
    out.metric("op_p50_ms", median(&times) * 1e3);
    out.metric("ops_per_s", times.len() as f64 / times.iter().sum::<f64>());
    out.metric("setup_s", setup.again(warm_up)?);
    Ok(())
}

/// Eq. 1 over inherited-weight accuracy and the predictor, exactly as the
/// pipeline's own objective computes it, with each layer call in a span.
struct TimedObjective<'a> {
    trainer: &'a mut SupernetTrainer,
    data: &'a SyntheticDataset,
    predictor: &'a LatencyPredictor,
    config: &'a RealPipelineConfig,
    tracer: &'a mut Tracer,
    arena_misses: &'a mut u64,
}

impl Objective for TimedObjective<'_> {
    fn evaluate(&mut self, arch: &Arch) -> Result<Evaluation, EvoError> {
        let before = hsconas_tensor::arena::stats().misses;
        let acc = self
            .tracer
            .span("supernet.evaluate", || {
                self.trainer
                    .evaluate(arch, self.data, self.config.eval_batches)
            })
            .map_err(|e| EvoError::Objective {
                detail: e.to_string(),
            })?;
        *self.arena_misses += hsconas_tensor::arena::stats().misses - before;
        let latency_ms = self
            .tracer
            .span("latency.predict", || self.predictor.predict_ms(arch))
            .map_err(EvoError::Space)?;
        let accuracy = 100.0 * acc;
        Ok(Evaluation {
            score: accuracy + self.config.beta * (latency_ms / self.config.target_ms - 1.0).abs(),
            accuracy,
            latency_ms,
        })
    }
}

/// What one traced re-drive observed besides its spans.
struct Redrive {
    result: RealPipelineResult,
    /// Kernel counters over the whole search; arena fallbacks inside
    /// `SupernetTrainer::evaluate` calls only.
    counters: Counters,
    prefix_hit_ratio: f64,
    train_steps: Vec<usize>,
}

/// `run_real_pipeline` (without checkpointing) re-driven through the
/// layers' public calls, one span per call, all in one `search` tree.
fn redrive(config: &RealPipelineConfig, seed: u64, tracer: &mut Tracer) -> Result<Redrive, String> {
    let before = Counters::now();
    let mut arena_misses = 0u64;
    tracer.begin("search");
    let stages = search_stages(config, seed, tracer, &mut arena_misses);
    tracer.end();
    let counters = Counters {
        arena_misses,
        ..Counters::since(&before)
    };
    stages.map(|s| Redrive { counters, ..s })
}

/// The body of [`redrive`]; everything it builds is dropped inside the
/// `search` span, so the tree covers all the time the call takes.
fn search_stages(
    config: &RealPipelineConfig,
    seed: u64,
    tracer: &mut Tracer,
    arena_misses: &mut u64,
) -> Result<Redrive, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut train_steps = Vec::new();
    let space = SearchSpace::tiny(config.classes);
    let data = SyntheticDataset::new(config.classes, 32, seed);
    let mut train_rng = SmallRng::new(seed);
    let supernet = Supernet::build(space.skeleton(), &mut train_rng).map_err(|e| err(&e))?;
    let mut trainer = SupernetTrainer::new(supernet, TrainConfig::quick_test());
    tracer
        .span("supernet.train_steps", || {
            trainer.train_steps(&space, &data, config.warm_steps, 0.05, &mut train_rng)
        })
        .map_err(|e| err(&e))?;
    train_steps.push(config.warm_steps);

    let mut search_rng = StdRng::seed_from_u64(seed ^ 0xdead);
    let predictor = tracer
        .span("latency.calibrate", || {
            LatencyPredictor::calibrate(DeviceSpec::edge_xavier(), &space, 20, 2, &mut search_rng)
        })
        .map_err(|e| err(&e))?;

    let mut current = space.clone();
    for (stage_idx, layers) in config.shrink_stages.iter().enumerate() {
        let stage = ProgressiveShrinking::new(ShrinkConfig {
            stages: vec![layers.clone()],
            samples_per_subspace: config.samples_per_subspace,
        });
        tracer.begin("shrink.run");
        let shrunk = {
            let mut objective = TimedObjective {
                trainer: &mut trainer,
                data: &data,
                predictor: &predictor,
                config,
                tracer: &mut *tracer,
                arena_misses: &mut *arena_misses,
            };
            stage.run(current.clone(), &mut objective, &mut search_rng, |_, _| {
                Ok(())
            })
        };
        tracer.end();
        current = shrunk.map_err(|e| err(&e))?.space;
        let mut ft_rng = SmallRng::new(seed ^ (stage_idx as u64 + 1));
        tracer
            .span("supernet.train_steps", || {
                trainer.train_steps(&current, &data, config.fine_tune_steps, 0.01, &mut ft_rng)
            })
            .map_err(|e| err(&e))?;
        train_steps.push(config.fine_tune_steps);
    }

    let mut search = EvolutionSearch::new(current.clone(), config.evolution);
    let evolution = {
        let mut objective = TimedObjective {
            trainer: &mut trainer,
            data: &data,
            predictor: &predictor,
            config,
            tracer: &mut *tracer,
            arena_misses: &mut *arena_misses,
        };
        objective.tracer.begin("evo.init_state");
        let state = search.init_state(&mut objective, &mut search_rng);
        objective.tracer.end();
        let mut state = state.map_err(|e| err(&e))?;
        while state.completed_generations() < config.evolution.generations {
            objective.tracer.begin("evo.step_generation");
            let stepped = search.step_generation(&mut state, &mut objective, &mut search_rng);
            objective.tracer.end();
            stepped.map_err(|e| err(&e))?;
        }
        objective
            .tracer
            .span("evo.finalize", || search.finalize(&state))
            .map_err(|e| err(&e))?
    };
    let prefix_hit_ratio = trainer.prefix_cache_stats().map_or(0.0, |s| s.hit_rate());

    let mut scratch_rng = SmallRng::new(seed ^ 0xbeef);
    let scratch = tracer.span("subnet.final_train", || -> Result<_, String> {
        let mut subnet = build_subnet(space.skeleton(), &evolution.best_arch, &mut scratch_rng)
            .map_err(|e| err(&e))?;
        train_from_scratch(
            &mut subnet,
            &data,
            config.final_steps,
            8,
            0.08,
            &mut scratch_rng,
        )
        .map_err(|e| err(&e))
    })?;
    Ok(Redrive {
        result: RealPipelineResult {
            shrunk_space: current,
            inherited_accuracy: evolution.best_evaluation.accuracy / 100.0,
            from_scratch_accuracy: scratch.accuracy,
            latency_ms: evolution.best_evaluation.latency_ms,
            best_arch: evolution.best_arch,
        },
        counters: Counters::default(),
        prefix_hit_ratio,
        train_steps,
    })
}

fn run_traced(args: &Args, config: &RealPipelineConfig, out: &mut Outcome) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut drives = Vec::new();
    let mut i = 0;
    while i == 0 || secs(start) < args.seconds {
        let seed = search_seed(args.seed, i);
        i += 1;
        let t = Instant::now();
        let reference = run_real_pipeline(config, seed);
        untraced.push(secs(t));
        let t = Instant::now();
        let drive = redrive(config, seed, &mut tracer);
        traced.push(secs(t));
        let ok = match (&reference, &drive) {
            (Ok(r), Ok(d)) => out.check(
                same_result("traced re-drive vs run_real_pipeline", &d.result, r)
                    .and_then(|()| check_search(config, seed, r)),
            ),
            (Err(e), _) => out.check(Err(format!("search at seed {seed} failed: {e}"))),
            (_, Err(e)) => out.check(Err(format!("re-drive at seed {seed} failed: {e}"))),
        };
        out.op("search_traced", ok);
        if let Ok(d) = drive {
            drives.push(d);
        }
    }
    let path =
        std::path::Path::new("perfbench/out").join(format!("trace-search-{}.jsonl", args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let spans = tracer.spans();
    let names = trace::by_name(spans);
    let searches = traced.len() as f64;
    let get = |n: &str| names.get(n).cloned().unwrap_or_default();

    let steps = get("supernet.train_steps");
    let per_step_ms: Vec<f64> = steps
        .durations_s
        .iter()
        .zip(drives.iter().flat_map(|d| d.train_steps.iter()))
        .map(|(d, &n)| d * 1e3 / n as f64)
        .collect();
    if !per_step_ms.is_empty() {
        out.metric("supernet.train_step_ms", median(&per_step_ms));
    }
    out.metric("supernet.train_s", steps.total_s / searches);
    let evals = get("supernet.evaluate");
    if !evals.durations_s.is_empty() {
        out.metric("supernet.eval_ms", median(&evals.durations_s) * 1e3);
    }
    out.metric("supernet.evals", evals.calls as f64 / searches);
    out.metric(
        "supernet.prefix_hit_ratio",
        median(
            &drives
                .iter()
                .map(|d| d.prefix_hit_ratio)
                .collect::<Vec<_>>(),
        ),
    );
    out.metric(
        "subnet.final_train_s",
        get("subnet.final_train").total_s / searches,
    );
    out.metric("shrink.self_s", get("shrink.run").self_s / searches);
    let evo_self: f64 = ["evo.init_state", "evo.step_generation", "evo.finalize"]
        .iter()
        .map(|n| get(n).self_s)
        .sum();
    out.metric("evo.self_ms", evo_self * 1e3 / searches);
    out.metric(
        "latency.calibrate_ms",
        get("latency.calibrate").total_s * 1e3 / searches,
    );
    let predicts = get("latency.predict");
    if !predicts.durations_s.is_empty() {
        out.metric("latency.predict_us", median(&predicts.durations_s) * 1e6);
    }
    let mut total = Counters::default();
    for d in &drives {
        total.add(&d.counters);
    }
    total.report(out, searches, evals.calls as f64);
    let root = get("search");
    out.metric("search.unattributed_s", root.self_s / searches);
    out.metric("trace.overhead", median(&traced) / median(&untraced));

    crate::report_trace_sum(out, spans, &traced, &path);
    out.note(format!(
        "trace overhead   : traced {:.3} s / untraced {:.3} s per search",
        median(&traced),
        median(&untraced)
    ));
    Ok(())
}
