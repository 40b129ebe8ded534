//! `serve`: a request mix against a fresh `hsconas serve` daemon over its
//! wire protocol.
//!
//! Two connections each run a closed loop that keeps `WINDOW` pipelined
//! requests in flight — enough to give the queue and the micro-batcher
//! work, never enough to reach the 64-slot queue. Every round of
//! `ROUND_LEN` requests has the same mix (see [`Mix::round`]). Each reply
//! is checked against in-process computations through `WarmState` at the
//! daemon's options, `compile` + `execute`, and Eq. 1.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command as Process, Stdio};
use std::time::{Duration, Instant};

use hsconas_evo::ParetoEval;
use hsconas_graph::{compile, execute, CompileOptions};
use hsconas_serve::json::Json;
use hsconas_serve::{Command, Request, Response, ServeOptions, WarmState};
use hsconas_space::{NetworkSkeleton, SearchSpace};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checks;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{derive, peak_rss_mb, secs, timed_setup, Args, Outcome};

/// Client connections, each a closed loop.
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight.
const WINDOW: usize = 4;
/// Requests per round; every round has the same mix.
const ROUND_LEN: usize = 20;
/// Archs in the skewed `score`/`predict_latency` key pool.
const POOL: usize = 48;
/// Devices with the paper's latency targets (ms).
const DEVICES: [(&str, f64); 3] = [("gpu", 9.0), ("cpu", 24.0), ("edge", 34.0)];
/// Distinct tiny genomes and input seeds `infer` draws from.
const INFER_GENOMES: usize = 4;
/// Distinct `search` and `pareto` requests (each repeats within a run).
const SEARCH_PARAMS: usize = 2;

/// The request mix a workload seed derives.
#[derive(Clone)]
struct Mix {
    pool: Vec<Vec<usize>>,
    genomes: Vec<Vec<usize>>,
    searches: Vec<Command>,
    paretos: Vec<Command>,
    space: SearchSpace,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(derive(seed, 0x9001));
        let pool = (0..POOL).map(|_| space.sample(&mut rng).encode()).collect();
        let tiny = SearchSpace::full(NetworkSkeleton::tiny(10));
        let genomes = (0..INFER_GENOMES)
            .map(|_| tiny.sample(&mut rng).encode())
            .collect();
        let searches = (0..SEARCH_PARAMS)
            .map(|i| {
                let (device, target_ms) = DEVICES[i % DEVICES.len()];
                Command::Search {
                    device: device.into(),
                    target_ms,
                    seed: derive(seed, 0x5ea + i as u64) % 1_000_000,
                }
            })
            .collect();
        let paretos = (0..SEARCH_PARAMS)
            .map(|i| Command::Pareto {
                devices: DEVICES[i..].iter().map(|d| d.0.to_string()).collect(),
                target_ms: 24.0,
                seed: derive(seed, 0xa2e + i as u64) % 1_000_000,
            })
            .collect();
        Mix {
            pool,
            genomes,
            searches,
            paretos,
            space,
        }
    }

    /// A pool arch, skewed towards the front (index = ⌊POOL·u²⌋).
    fn hot(&self, rng: &mut StdRng) -> Vec<usize> {
        let u: f64 = rng.gen();
        self.pool[((u * u) * POOL as f64) as usize % POOL].clone()
    }

    /// One round: 8 pool scores, 2 never-seen scores, 4 `predict_latency`,
    /// 4 `infer`, 1 `search`, 1 `pareto`, in a seeded order.
    fn round(&self, rng: &mut StdRng) -> Vec<Command> {
        let device = |rng: &mut StdRng| DEVICES[rng.gen_range(0..DEVICES.len())];
        let mut cmds = Vec::with_capacity(ROUND_LEN);
        for i in 0..10 {
            let (d, target_ms) = device(rng);
            let arch = if i < 8 {
                self.hot(rng)
            } else {
                self.space.sample(rng).encode()
            };
            cmds.push(Command::Score {
                device: d.into(),
                target_ms,
                arch,
            });
        }
        for _ in 0..4 {
            let (d, _) = device(rng);
            cmds.push(Command::PredictLatency {
                device: d.into(),
                arch: self.hot(rng),
            });
        }
        for _ in 0..4 {
            cmds.push(Command::Infer {
                arch: self.genomes[rng.gen_range(0..INFER_GENOMES)].clone(),
                input_seed: rng.gen_range(0..INFER_GENOMES as u64),
                batch: 1,
            });
        }
        cmds.push(self.searches[rng.gen_range(0..SEARCH_PARAMS)].clone());
        cmds.push(self.paretos[rng.gen_range(0..SEARCH_PARAMS)].clone());
        debug_assert_eq!(cmds.len(), ROUND_LEN);
        for i in (1..cmds.len()).rev() {
            cmds.swap(i, rng.gen_range(0..i + 1));
        }
        cmds
    }

    /// Untimed warm-up: every pool key scored on every device, every infer
    /// genome compiled, every search and pareto request answered once.
    fn warmup(&self) -> Vec<Command> {
        let mut cmds = Vec::new();
        for arch in &self.pool {
            for (d, target_ms) in DEVICES {
                cmds.push(Command::Score {
                    device: d.into(),
                    target_ms,
                    arch: arch.clone(),
                });
            }
        }
        for arch in &self.genomes {
            cmds.push(Command::Infer {
                arch: arch.clone(),
                input_seed: 0,
                batch: 1,
            });
        }
        cmds.extend(self.searches.iter().cloned());
        cmds.extend(self.paretos.iter().cloned());
        cmds
    }
}

/// A running daemon this run started.
struct Daemon {
    child: Option<Child>,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

fn hsconas_binary() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let bin = exe.with_file_name("hsconas");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{} not found (run through run.sh)", bin.display()))
    }
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let mut child = Process::new(hsconas_binary()?)
            .args(["serve", "--port", "0", "--devices", "gpu,cpu,edge"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning hsconas serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut greeting = String::new();
        let read = stdout.read_line(&mut greeting);
        let mut daemon = Daemon {
            child: Some(child),
            _stdout: stdout,
            addr: String::new(),
        };
        read.map_err(|e| format!("reading the serve greeting: {e}"))?;
        daemon.addr = greeting
            .trim()
            .strip_prefix("hsconas-serve listening on ")
            .ok_or_else(|| format!("unexpected serve greeting {greeting:?}"))?
            .to_string();
        Ok(daemon)
    }

    fn peak_rss_mb(&self) -> f64 {
        self.child
            .as_ref()
            .and_then(|c| peak_rss_mb(&c.id().to_string()))
            .unwrap_or(f64::NAN)
    }

    fn call(&self, command: Command) -> Result<Response, String> {
        let mut client = hsconas_serve::Client::connect(self.addr.as_str())
            .map_err(|e| format!("connecting to {}: {e}", self.addr))?;
        client
            .set_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        client.call(command).map_err(|e| e.to_string())
    }

    fn status(&self) -> Result<Json, String> {
        let r = self.call(Command::Status)?;
        r.result
            .ok_or_else(|| format!("status failed: {:?}", r.error))
    }

    /// Graceful drain.
    fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    /// Sends `shutdown` and waits up to 30 s for the process to exit. If it
    /// does not, kills it and waits for it.
    fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let sent = self.call(Command::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return sent.map(|_| ()),
                Ok(Some(status)) => return Err(format!("hsconas serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("hsconas serve did not drain within 30 s".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("perfbench: stopping hsconas serve: {e}");
        }
    }
}

/// One answered request.
struct Reply {
    id: String,
    command: Command,
    latency_s: f64,
    line: String,
}

/// The id of a response line (`{"v":1,"id":"...",...}`); the benchmark's
/// ids never need escaping.
fn reply_id(line: &str) -> Option<&str> {
    let start = line.find("\"id\":\"")? + 6;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// Runs one connection's closed loop: `next` yields the commands to send
/// (`None` ends the loop), with at most `WINDOW` in flight.
fn drive(
    addr: &str,
    conn: usize,
    tracer: &mut Tracer,
    mut next: impl FnMut() -> Option<Command>,
) -> Result<Vec<Reply>, String> {
    tracer.begin("serve.connection");
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut inflight: HashMap<String, (Command, Instant)> = HashMap::new();
    let mut replies = Vec::new();
    let mut sent = 0usize;
    let mut exhausted = false;
    loop {
        while !exhausted && inflight.len() < WINDOW {
            let Some(command) = next() else {
                exhausted = true;
                break;
            };
            let id = format!("c{conn}-{sent}");
            sent += 1;
            tracer.begin("serve.send");
            let mut line = Request {
                id: id.clone(),
                command: command.clone(),
            }
            .encode();
            line.push('\n');
            let written = writer.write_all(line.as_bytes());
            tracer.end();
            written.map_err(|e| format!("sending {id}: {e}"))?;
            inflight.insert(id, (command, Instant::now()));
        }
        if inflight.is_empty() {
            break;
        }
        let mut line = String::new();
        tracer.begin("serve.wait");
        let read = reader.read_line(&mut line);
        tracer.end();
        match read {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("reading a reply: {e}")),
        }
        let done = Instant::now();
        let line = line.trim_end().to_string();
        let id = reply_id(&line).ok_or_else(|| format!("reply without an id: {line}"))?;
        let (command, sent_at) = inflight
            .remove(id)
            .ok_or_else(|| format!("reply echoes an unknown id {id}"))?;
        replies.push(Reply {
            id: id.to_string(),
            command,
            latency_s: (done - sent_at).as_secs_f64(),
            line,
        });
    }
    tracer.end();
    Ok(replies)
}

/// What one phase of closed loops gave back.
struct Phase {
    replies: Vec<Reply>,
    /// Wall time of the whole phase.
    wall_s: f64,
    /// Each connection's tracer, and the wall time of its `drive` call
    /// measured apart from the tracer.
    connections: Vec<(Tracer, f64)>,
}

/// Drives `CONNECTIONS` closed loops for whole rounds until `seconds`
/// have passed.
fn phase(
    addr: &str,
    mix: &Mix,
    seed: u64,
    phase_salt: u64,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(derive(seed, phase_salt + conn as u64));
                    let mut queue: Vec<Command> = Vec::new();
                    let mut tracer = Tracer::new(traced);
                    let t = Instant::now();
                    let replies = drive(addr, conn, &mut tracer, || {
                        if queue.is_empty() {
                            if secs(start) >= seconds {
                                return None;
                            }
                            queue = mix.round(&mut rng);
                            queue.reverse();
                        }
                        queue.pop()
                    })?;
                    Ok::<_, String>((replies, tracer, secs(t)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall_s = secs(start);
    let mut replies = Vec::new();
    let mut connections = Vec::new();
    for r in results {
        let (mut rs, tracer, wall) = r?;
        replies.append(&mut rs);
        connections.push((tracer, wall));
    }
    Ok(Phase {
        replies,
        wall_s,
        connections,
    })
}

/// Warm-up through the same pipelined path; not timed as workload.
fn warm(addr: &str, mix: &Mix) -> Result<(), String> {
    let mut cmds = mix.warmup();
    cmds.reverse();
    let replies = drive(addr, 9, &mut Tracer::new(false), || cmds.pop())?;
    match replies.iter().find(|r| !r.line.contains("\"code\":200")) {
        Some(bad) => Err(format!("warm-up request failed: {}", bad.line)),
        None => Ok(()),
    }
}

/// Checks replies against in-process computations at the daemon's
/// options, apart from the serving path.
struct Checker {
    state: WarmState,
    logits: HashMap<(Vec<usize>, u64), Vec<f32>>,
    first_lines: HashMap<String, String>,
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("reply lacks numeric {key}"))
}

impl Checker {
    fn new() -> Checker {
        Checker {
            state: WarmState::new(ServeOptions::default()),
            logits: HashMap::new(),
            first_lines: HashMap::new(),
        }
    }

    fn check(&mut self, r: &Reply) -> Result<(), String> {
        let resp = Response::decode(r.line.as_bytes()).map_err(|e| format!("{}: {e}", r.id))?;
        if resp.code != 200 || resp.id != r.id {
            return Err(format!(
                "{}: code {} id {}: {:?}",
                r.id, resp.code, resp.id, resp.error
            ));
        }
        let result = resp.result.as_ref().ok_or("200 reply without a result")?;
        let device_state = |state: &WarmState, name: &str| {
            state.device(name).map_err(|e| format!("{name}: {e:?}"))
        };
        match &r.command {
            Command::PredictLatency { device, arch } => {
                let dev = device_state(&self.state, device)?;
                let (ms, _bias) = dev.predict_ms(&dev.decode_arch(arch)?)?;
                checks::same_f64("predict_latency latency_ms", num(result, "latency_ms")?, ms)
            }
            Command::Score {
                device,
                target_ms,
                arch,
            } => {
                let dev = device_state(&self.state, device)?;
                let (acc, lat) = dev.measure(&dev.decode_arch(arch)?)?;
                let (score, accuracy, latency) = (
                    num(result, "score")?,
                    num(result, "accuracy")?,
                    num(result, "latency_ms")?,
                );
                checks::eq1_score(score, accuracy, latency, *target_ms)?;
                checks::same_f64("score accuracy", accuracy, acc)?;
                checks::same_f64("score latency_ms", latency, lat)
            }
            Command::Infer {
                arch,
                input_seed,
                batch,
            } => {
                let key = (arch.clone(), *input_seed);
                if !self.logits.contains_key(&key) {
                    let want = local_logits(arch, *input_seed, *batch)?;
                    self.logits.insert(key.clone(), want);
                }
                let got: Vec<f32> = result
                    .get("logits")
                    .and_then(Json::as_arr)
                    .ok_or("infer reply lacks logits")?
                    .iter()
                    .flat_map(|row| row.as_arr().unwrap_or(&[]).iter())
                    .map(|v| v.as_f64().map_or(f32::NAN, |x| x as f32))
                    .collect();
                checks::same_logits("infer logits", &got, &self.logits[&key])
            }
            Command::Search { .. } | Command::Pareto { .. } => {
                if let Command::Pareto { .. } = r.command {
                    let points: Vec<ParetoEval> = result
                        .get("frontier")
                        .and_then(Json::as_arr)
                        .ok_or("pareto reply lacks a frontier")?
                        .iter()
                        .map(|p| -> Result<ParetoEval, String> {
                            Ok(ParetoEval {
                                accuracy: num(p, "accuracy")?,
                                latencies_ms: p
                                    .get("latencies_ms")
                                    .and_then(Json::as_arr)
                                    .ok_or("point lacks latencies")?
                                    .iter()
                                    .map(|l| l.as_f64().unwrap_or(f64::NAN))
                                    .collect(),
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    checks::non_dominated(&points)?;
                }
                let key = Request {
                    id: String::new(),
                    command: r.command.clone(),
                }
                .encode();
                let body = strip_id(&r.line, &r.id);
                match self.first_lines.get(&key) {
                    Some(first) => checks::same_line("repeated request", &body, first),
                    None => {
                        self.first_lines.insert(key, body);
                        Ok(())
                    }
                }
            }
            Command::Status | Command::Shutdown => Ok(()),
        }
    }
}

fn strip_id(line: &str, id: &str) -> String {
    line.replacen(&Json::Str(id.to_string()).encode(), "", 1)
}

/// In-process `compile` + `execute` of what an `infer` request asks for.
fn local_logits(arch: &[usize], input_seed: u64, batch: usize) -> Result<Vec<f32>, String> {
    let genome = hsconas_space::Arch::decode(arch).map_err(|e| e.to_string())?;
    let skeleton = NetworkSkeleton::tiny(10);
    let (art, _) =
        compile(&skeleton, &genome, &CompileOptions::default()).map_err(|e| e.to_string())?;
    let g = &art.graph;
    let mut rng = SmallRng::new(input_seed);
    let x = Tensor::randn([batch, g.input_c, g.input_h, g.input_w], 1.0, &mut rng);
    let y = execute(g, &x).map_err(|e| e.to_string())?;
    Ok(y.data().to_vec())
}

const CMDS: [&str; 5] = ["predict_latency", "score", "infer", "search", "pareto"];

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mix = Mix::new(args.seed);
    // Set-up: start a daemon and warm it, several times; the last stays
    // (each earlier one is killed as the next replaces it).
    let start_daemon = || {
        let d = Daemon::start()?;
        warm(&d.addr, &mix)?;
        Ok(d)
    };
    let (setup, daemon) = timed_setup(start_daemon)?;

    let mut checker = Checker::new();
    let mut all = Vec::new();
    if args.trace {
        run_traced(args, out, &daemon, &mix, &mut all)?;
    } else {
        let Phase {
            replies, wall_s, ..
        } = phase(&daemon.addr, &mix, args.seed, 0x7e5, args.seconds, false)?;
        let lat: Vec<f64> = replies.iter().map(|r| r.latency_s * 1e3).collect();
        out.metric("op_p50_ms", median(&lat));
        out.metric("ops_per_s", replies.len() as f64 / wall_s);
        if let Some((p, v)) = tail(&lat) {
            out.note(format!(
                "request tail     : p{p} = {v:.3} ms over {} replies",
                lat.len()
            ));
        }
        all = replies;
    }
    // The daemon process only: the client's own memory grows with the
    // replies it keeps for checking, which says nothing about the server.
    let rss = daemon.peak_rss_mb();

    for r in &all {
        let ok = out.check(checker.check(r));
        out.op(r.command.name(), ok);
    }
    daemon.shutdown()?;
    if !args.trace {
        out.metric("peak_rss_mb", rss);
        out.metric("setup_s", setup.again(start_daemon)?);
    }
    Ok(())
}

/// The daemon's own median latency for `cmd`, from `status`.
fn status_p50_ms(status: &Json, cmd: &str) -> Option<f64> {
    status.get("latency_ms")?.get(cmd)?.get("p50_ms")?.as_f64()
}

fn run_traced(
    args: &Args,
    out: &mut Outcome,
    daemon: &Daemon,
    mix: &Mix,
    all: &mut Vec<Reply>,
) -> Result<(), String> {
    let half = args.seconds / 2.0;
    let Phase {
        replies: plain,
        wall_s: plain_wall,
        ..
    } = phase(&daemon.addr, mix, args.seed, 0x7e5, half, false)?;
    let status = daemon.status()?;
    let Phase {
        replies: traced,
        wall_s: traced_wall,
        connections,
    } = phase(&daemon.addr, mix, args.seed, 0x7e7, half, true)?;

    let mut by_cmd: HashMap<&str, Vec<f64>> = HashMap::new();
    for r in &plain {
        by_cmd
            .entry(r.command.name())
            .or_default()
            .push(r.latency_s * 1e3);
    }
    let mut unattributed = 0.0;
    for cmd in CMDS {
        let client = by_cmd.get(cmd).map(|v| median(v)).unwrap_or(0.0);
        out.metric(&format!("serve.{cmd}_p50_ms"), client);
        let server = status_p50_ms(&status, cmd).unwrap_or(0.0);
        out.metric(&format!("serve.server_{cmd}_p50_ms"), server);
        let share = by_cmd
            .get(cmd)
            .map_or(0.0, |v| v.len() as f64 / plain.len() as f64);
        unattributed += share * (client - server);
    }
    out.metric("serve.unattributed_ms", unattributed);
    let lat: Vec<f64> = plain.iter().map(|r| r.latency_s * 1e3).collect();
    // p99 only when ten samples lie beyond it; a lower percentile is
    // noted under its own name, never reported as p99.
    match tail(&lat) {
        Some((99.0 | 99.9, _)) => {
            out.metric("serve.req_p99_ms", crate::stats::percentile(&lat, 99.0))
        }
        Some((p, v)) => out.note(format!(
            "request tail     : p{p} = {v:.3} ms; {} replies are too few for p99, left unset",
            lat.len()
        )),
        None => {}
    }
    let field = |key: &[&str]| -> f64 {
        key.iter()
            .try_fold(&status, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    out.metric("serve.queue_peak", field(&["queue", "peak"]));
    let batches = field(&["batching", "batches"]);
    if batches > 0.0 {
        out.metric(
            "serve.batch_mean",
            field(&["batching", "batched_jobs"]) / batches,
        );
    }
    let cached: f64 = match status.get("devices") {
        Some(Json::Obj(devs)) => devs
            .iter()
            .filter_map(|(_, d)| d.get("cached_evaluations")?.as_f64())
            .sum(),
        _ => 0.0,
    };
    out.metric("serve.cached_evaluations", cached);
    out.metric("serve.graph_cache_hits", field(&["graphs", "cache_hits"]));

    // Codec cost on this run's own lines.
    let mut decode_us = Vec::new();
    for r in &plain {
        let line = Request {
            id: r.id.clone(),
            command: r.command.clone(),
        }
        .encode();
        let t = Instant::now();
        let decoded = Request::decode(line.as_bytes());
        decode_us.push(secs(t) * 1e6);
        decoded.map_err(|e| format!("decoding our own request: {e}"))?;
    }
    let mut encode_us = Vec::new();
    for r in &plain {
        let resp = Response::decode(r.line.as_bytes()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let line = resp.encode();
        encode_us.push(secs(t) * 1e6);
        std::hint::black_box(line);
    }
    out.metric("serve.decode_us", median(&decode_us));
    out.metric("serve.encode_us", median(&encode_us));

    let per_plain = plain_wall / plain.len() as f64;
    let per_traced = traced_wall / traced.len() as f64;
    out.metric("trace.overhead", per_traced / per_plain);
    out.note(format!(
        "trace overhead   : traced {:.4} ms / untraced {:.4} ms of wall per reply",
        per_traced * 1e3,
        per_plain * 1e3
    ));
    let mut spans = Vec::new();
    let mut walls = Vec::new();
    for (t, wall) in &connections {
        walls.push(*wall);
        let base = spans.len();
        spans.extend(t.spans().iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    let mut merged = Tracer::new(true);
    merged.absorb(spans);
    let path = std::path::Path::new("perfbench/out")
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    merged
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    crate::report_trace_sum(out, merged.spans(), &walls, &path);
    all.extend(plain);
    all.extend(traced);
    Ok(())
}
