//! `serve_mixed`: an open loop over HTTP against a fresh `wx serve`.
//!
//! The schedule is fixed by the workload seed: requests fall due at a
//! constant rate, first at the nominal rate and then at the peak rate, and
//! each block of [`BLOCK`] requests holds the same mix of templates and of
//! repeated ("hot") and fresh seeds, in a seeded order. Hot requests share
//! one seed per template, so they hit the graph and solution caches or
//! coalesce with an identical request in flight; fresh ones are cold.
//!
//! One process drives the load with two sender threads, so at most two
//! requests are in flight. A request that falls due while both are busy
//! waits in the generator, and latency counts from its due time.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wx_core::expansion::engine::NotionKind;
use wx_core::graph::random::derive_seed;
use wx_core::radio::protocols::ProtocolKind;
use wx_core::trace::{self as wx_trace, Trace};
use wx_lab::canon;
use wx_lab::runner::Runner;
use wx_lab::source::GraphSource;
use wx_lab::spec::{ScenarioSpec, Task};

use crate::batch::put_counters;
use crate::report::{median, peak_rss_mib, quantile, ratio, secs, Metrics, Tally};
use crate::traced::{self, RequestSpan};
use crate::{layers, Args};

/// Nominal and peak arrival rates (requests per second): 30% and 50% of
/// the mix's capacity, 35.4 req/s closed-loop with two connections on a
/// 2-core x86-64 VM (`perfbench --calibrate`). At 75% and 65% the host's
/// run-to-run speed changes moved the peak median by up to 3x.
const NOMINAL_RATE: f64 = 10.6;
const PEAK_RATE: f64 = 17.7;
/// Share of the run's seconds spent at the nominal rate; the rest is the
/// peak phase. Chosen so both phases hold well over 100 requests.
const NOMINAL_SHARE: f64 = 0.5;
/// The latency limit on served requests at the peak rate.
const LIMIT_MS: f64 = 1000.0;
/// Set-ups per run (server start, healthy `/healthz`, warm-up).
const SETUP_REPS: usize = 3;
/// Sender threads, and so connections in flight.
const SENDERS: usize = 2;

struct Template {
    name: &'static str,
    source: fn() -> GraphSource,
    task: fn() -> Task,
    trials: usize,
}

/// The request templates. Cold on a 2-core machine they take 10–180 ms.
const TEMPLATES: [Template; 6] = [
    Template {
        name: "wireless-fast-rr256",
        source: || GraphSource::RandomRegular { n: 256, d: 4 },
        task: || Task::Measure {
            notion: NotionKind::Wireless,
            alpha: None,
            exact_up_to: None,
            fast: Some(true),
        },
        trials: 1,
    },
    Template {
        name: "profile-fast-hypercube10",
        source: || GraphSource::Hypercube { dim: 10 },
        task: || Task::Profile {
            alpha: None,
            exact_up_to: None,
            fast: Some(true),
        },
        trials: 1,
    },
    Template {
        name: "ordinary-induced-margulis100",
        source: || GraphSource::Induced {
            base: Box::new(GraphSource::Margulis { m: 100 }),
            size: Some(1024),
            vertices: None,
        },
        task: || Task::Measure {
            notion: NotionKind::Ordinary,
            alpha: None,
            exact_up_to: None,
            fast: None,
        },
        trials: 1,
    },
    Template {
        name: "spokesman-rr5000",
        source: || GraphSource::RandomRegular { n: 5000, d: 8 },
        task: || Task::Spokesman {
            set_size: 2500,
            solvers: None,
        },
        trials: 1,
    },
    Template {
        name: "decay-margulis100",
        source: || GraphSource::Margulis { m: 100 },
        task: || Task::Radio {
            protocol: ProtocolKind::Decay,
            source_vertex: None,
            max_rounds: None,
        },
        trials: 64,
    },
    Template {
        name: "decay-rr10000",
        source: || GraphSource::RandomRegular { n: 10_000, d: 8 },
        task: || Task::Radio {
            protocol: ProtocolKind::Decay,
            source_vertex: None,
            max_rounds: None,
        },
        trials: 4,
    },
];

/// One block of the schedule: `(template, hot)` pairs. 14 of 20 requests
/// (70%) draw a hot seed. Profile and Margulis decay are always hot: they
/// cache no results, so repeats cost the server full price while keeping
/// the in-process output check short.
const BLOCK: [(usize, bool); 20] = [
    (0, true),
    (0, true),
    (0, true),
    (0, true),
    (0, false),
    (0, false),
    (1, true),
    (1, true),
    (2, true),
    (2, true),
    (2, true),
    (2, true),
    (2, false),
    (2, false),
    (3, true),
    (3, true),
    (3, false),
    (4, true),
    (4, true),
    (5, false),
];

/// Hot seeds per template. Hot requests of a template cycle through its
/// pool, so one unlucky instance cannot set a percentile on its own.
const HOT_POOL: usize = 4;

/// The order of templates within each block is fixed (shuffled once with
/// this seed, the same for every workload seed), so every run replays the
/// same sequence of request kinds and only the instances change with
/// `--seed`.
const ORDER_SEED: u64 = 0x5e27_e0bd;

fn spec_for(template: usize, seed: u64) -> ScenarioSpec {
    let t = &TEMPLATES[template];
    ScenarioSpec {
        name: t.name.to_string(),
        description: String::new(),
        source: (t.source)(),
        task: (t.task)(),
        trials: t.trials,
        seed,
    }
}

fn hot_seed(seed: u64, template: usize, slot: usize) -> u64 {
    derive_seed(seed, 500 + (template * HOT_POOL + slot) as u64)
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Nominal,
    Peak,
}

struct Request {
    template: usize,
    phase: Phase,
    due: Duration,
    spec: ScenarioSpec,
    body: String,
}

impl Request {
    fn new(template: usize, phase: Phase, due: Duration, seed: u64) -> Request {
        let spec = spec_for(template, seed);
        Request {
            template,
            phase,
            due,
            body: spec.to_json(),
            spec,
        }
    }
}

/// The whole timed schedule for `seconds`, as fixed by `seed`.
fn schedule(seed: u64, seconds: f64) -> Vec<Request> {
    let nominal_s = seconds * NOMINAL_SHARE;
    let phases = [
        (
            Phase::Nominal,
            0.0,
            NOMINAL_RATE,
            (nominal_s * NOMINAL_RATE).round() as usize,
        ),
        (
            Phase::Peak,
            nominal_s,
            PEAK_RATE,
            ((seconds - nominal_s) * PEAK_RATE).round() as usize,
        ),
    ];
    let mut slots: Vec<(Phase, f64)> = Vec::new();
    for (phase, start, rate, count) in phases {
        slots.extend((0..count).map(|i| (phase, start + i as f64 / rate)));
    }
    let mut mix: Vec<(usize, bool)> = Vec::new();
    let mut block_index = 0u64;
    while mix.len() < slots.len() {
        let mut block = BLOCK;
        // Fisher–Yates with fixed draws.
        for i in (1..block.len()).rev() {
            let draw = derive_seed(ORDER_SEED, (block_index << 8) | i as u64);
            block.swap(i, (draw % (i as u64 + 1)) as usize);
        }
        mix.extend(block);
        block_index += 1;
    }
    let mut hot_uses = [0usize; TEMPLATES.len()];
    slots
        .into_iter()
        .zip(mix)
        .enumerate()
        .map(|(i, ((phase, due_s), (template, hot)))| {
            let request_seed = if hot {
                hot_uses[template] += 1;
                hot_seed(seed, template, hot_uses[template] % HOT_POOL)
            } else {
                derive_seed(seed, 1_000_000 + i as u64)
            };
            Request::new(
                template,
                phase,
                Duration::from_secs_f64(due_s),
                request_seed,
            )
        })
        .collect()
}

// ------------------------------------------------------------------ HTTP

struct HttpResponse {
    status: u16,
    headers: BTreeMap<String, String>,
    body: String,
}

impl HttpResponse {
    fn header_u64(&self, name: &str) -> u64 {
        self.headers
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<HttpResponse, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(60))))
        .map_err(|e| format!("setting socket timeouts: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("sending {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("reading the response to {method} {path}: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header end".to_string())?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad status line in `{head}`"))?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(HttpResponse {
        status,
        headers,
        body: body.to_string(),
    })
}

/// The unsigned integer after `"key":` in a small JSON document.
fn json_u64(doc: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    doc.find(&needle)
        .map(|at| &doc[at + needle.len()..])
        .map(|rest| {
            rest.trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

// ---------------------------------------------------------------- server

/// A running `wx serve` child; dropping it kills the process and waits
/// for it to end.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn start(wx: &Path, log: &Path) -> Result<Server, String> {
        let log_file =
            std::fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let child = Command::new(wx)
            .args(["serve", "--http", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", wx.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // Only a complete line: the address may arrive in pieces.
            let line = text
                .split("listening on http://")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'));
            if let Some((addr, _)) = line {
                let addr = addr.trim();
                server.addr = addr
                    .parse()
                    .map_err(|_| format!("wx serve printed an unreadable address `{addr}`"))?;
                break;
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("wx serve exited early ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err("wx serve did not start listening within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        loop {
            if matches!(http(server.addr, "GET", "/healthz", ""), Ok(r) if r.status == 200) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("wx serve did not answer /healthz within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(Some(self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts a server and sends every hot request once over the two
/// connections, so the timed phases start from a warm cache.
fn set_up(args: &Args, dir: &Path, rep: usize) -> Result<Server, String> {
    let server = Server::start(&args.wx, &dir.join(format!("server-{rep}.log")))?;
    let warm: Vec<Request> = (0..TEMPLATES.len())
        .flat_map(|t| (0..HOT_POOL).map(move |slot| (t, slot)))
        .map(|(t, slot)| {
            let seed = hot_seed(args.seed, t, slot);
            Request::new(t, Phase::Nominal, Duration::ZERO, seed)
        })
        .collect();
    for (request, outcome) in warm.iter().zip(drive(server.addr, &warm, None)) {
        match outcome.response {
            Ok(r) if r.status == 200 => {}
            Ok(r) => {
                return Err(format!(
                    "warm-up request {} failed with {}: {}",
                    request.spec.name, r.status, r.body
                ))
            }
            Err(e) => return Err(format!("warm-up request {}: {e}", request.spec.name)),
        }
    }
    Ok(server)
}

// ------------------------------------------------------------- load loop

/// What the generator observed for one request.
struct Outcome {
    /// Which sender thread (connection) sent it.
    sender: usize,
    sent: Duration,
    done: Duration,
    response: Result<HttpResponse, String>,
}

/// Sends `requests` on their schedule with [`SENDERS`] threads. With
/// `closed_loop = Some(limit)` each thread instead sends its next request
/// as soon as the previous one returns, until `limit` has passed
/// (capacity calibration).
fn drive(addr: SocketAddr, requests: &[Request], closed_loop: Option<Duration>) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Outcome>>> =
        Mutex::new((0..requests.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for sender in 0..SENDERS {
            let (next, slots) = (&next, &slots);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(request) = requests.get(i) else {
                    break;
                };
                let now = start.elapsed();
                match closed_loop {
                    Some(limit) if now > limit => break,
                    Some(_) => {}
                    None if request.due > now => std::thread::sleep(request.due - now),
                    None => {}
                }
                let sent = start.elapsed();
                let response = http(addr, "POST", "/run", &request.body);
                let done = start.elapsed();
                let outcome = Outcome {
                    sender,
                    sent,
                    done,
                    response,
                };
                slots.lock().expect("a sender thread panicked")[i] = Some(outcome);
            });
        }
    });
    slots
        .into_inner()
        .expect("a sender thread panicked")
        .into_iter()
        .map(|o| {
            o.unwrap_or(Outcome {
                sender: 0,
                sent: Duration::ZERO,
                done: Duration::ZERO,
                response: Err("never sent".to_string()),
            })
        })
        .collect()
}

/// The most requests due but not yet sent at any moment.
fn backlog_max(requests: &[Request], outcomes: &[Outcome]) -> usize {
    // +1 when a request falls due, -1 when it is sent; sends sort after
    // dues at the same instant.
    let mut events: Vec<(Duration, i32)> = Vec::new();
    for (r, o) in requests.iter().zip(outcomes) {
        events.push((r.due, 1));
        events.push((o.sent.max(r.due), -1));
    }
    events.sort_by_key(|&(t, step)| (t, -step));
    let (mut depth, mut max) = (0i64, 0i64);
    for (_, step) in events {
        depth += i64::from(step);
        max = max.max(depth);
    }
    max as usize
}

// ----------------------------------------------------------------- check

/// The output check's finding for one request.
enum Verdict {
    Ok,
    /// The server answered with an error or not at all.
    Failed(String),
    /// The server answered 200 with other bytes than `Runner::run`.
    Wrong(String),
}

/// Re-runs every distinct served spec in process (tracing as currently
/// set) and compares report bytes with each served body. Returns one
/// verdict per request, the reports' summed work counters and the time
/// the re-runs took.
fn check_pass(
    requests: &[Request],
    outcomes: &[Outcome],
) -> (Vec<Verdict>, BTreeMap<String, u64>, f64) {
    let mut distinct: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, r) in requests.iter().enumerate() {
        distinct.entry(r.body.as_str()).or_default().push(i);
    }
    let groups: Vec<Vec<usize>> = distinct.into_values().collect();
    let next = AtomicUsize::new(0);
    type Expected = Result<(String, BTreeMap<String, u64>), String>;
    let expected: Mutex<Vec<Option<Expected>>> =
        Mutex::new((0..groups.len()).map(|_| None).collect());
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..SENDERS {
            scope.spawn(|| loop {
                let g = next.fetch_add(1, Ordering::SeqCst);
                let Some(group) = groups.get(g) else {
                    break;
                };
                let spec = &requests[group[0]].spec;
                let result = {
                    let _span = wx_trace::span("bench.check.runner_run");
                    Runner::new().sequential().run(spec)
                };
                let result = result
                    .map(|report| (report.to_json(), report.telemetry.clone()))
                    .map_err(|e| e.to_string());
                expected.lock().expect("a check thread panicked")[g] = Some(result);
            });
        }
    });
    let check_s = secs(t.elapsed());
    let expected = expected.into_inner().expect("a check thread panicked");
    let mut counters = BTreeMap::new();
    let mut verdicts: Vec<Verdict> = (0..requests.len()).map(|_| Verdict::Ok).collect();
    for (group, result) in groups.iter().zip(expected) {
        let result = result.unwrap_or_else(|| Err("not re-run".to_string()));
        if let Ok((_, telemetry)) = &result {
            for (name, value) in telemetry {
                *counters.entry(name.clone()).or_insert(0) += value;
            }
        }
        for &i in group {
            let name = TEMPLATES[requests[i].template].name;
            verdicts[i] = match (&outcomes[i].response, &result) {
                (Err(e), _) => Verdict::Failed(format!("request {i} ({name}): {e}")),
                (Ok(r), _) if r.status != 200 => Verdict::Failed(format!(
                    "request {i} ({name}): HTTP {}: {}",
                    r.status,
                    r.body.trim()
                )),
                (Ok(_), Err(e)) => Verdict::Wrong(format!(
                    "request {i} ({name}) was served but fails in process: {e}"
                )),
                (Ok(r), Ok((bytes, _))) if r.body != *bytes => Verdict::Wrong(format!(
                    "request {i} ({name}): served report differs from Runner::run"
                )),
                _ => Verdict::Ok,
            };
        }
    }
    (verdicts, counters, check_s)
}

// ------------------------------------------------------------------- run

struct Stats {
    doc: String,
}

impl Stats {
    fn fetch(addr: SocketAddr) -> Result<Stats, String> {
        let r = http(addr, "GET", "/stats", "")?;
        if r.status != 200 {
            return Err(format!("/stats answered {}", r.status));
        }
        Ok(Stats { doc: r.body })
    }

    fn delta(&self, before: &Stats, key: &str) -> f64 {
        json_u64(&self.doc, key).saturating_sub(json_u64(&before.doc, key)) as f64
    }
}

fn out_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = args
        .out
        .join(format!("{}-seed{}", args.workload, args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The serve, cache, canon and load-generator metrics of one served
/// schedule: `before` and `after` are `/stats` around it.
fn put_layer_metrics(
    requests: &[Request],
    outcomes: &[Outcome],
    before: &Stats,
    after: &Stats,
    metrics: &mut Metrics,
) {
    let served: Vec<(&Request, &Outcome, &HttpResponse)> = requests
        .iter()
        .zip(outcomes)
        .filter_map(|(r, o)| o.response.as_ref().ok().map(|resp| (r, o, resp)))
        .collect();
    let queue: Vec<f64> = served
        .iter()
        .map(|(_, _, h)| h.header_u64("x-wx-queue-us") as f64 / 1e3)
        .collect();
    let run: Vec<f64> = served
        .iter()
        .map(|(_, _, h)| h.header_u64("x-wx-run-us") as f64 / 1e3)
        .collect();
    let transport: Vec<f64> = served
        .iter()
        .map(|(r, o, h)| {
            let total = ms(o.done.saturating_sub(r.due));
            let wait = ms(o.sent.saturating_sub(r.due));
            total
                - wait
                - (h.header_u64("x-wx-queue-us") + h.header_u64("x-wx-run-us")) as f64 / 1e3
        })
        .collect();
    let late: Vec<f64> = requests
        .iter()
        .zip(outcomes)
        .map(|(r, o)| ms(o.sent.saturating_sub(r.due)))
        .collect();
    metrics.put("serve.queue_ms.p50", quantile(&queue, 0.5), "ms");
    metrics.put("serve.queue_ms.p90", quantile(&queue, 0.9), "ms");
    metrics.put("serve.run_ms.p50", quantile(&run, 0.5), "ms");
    metrics.put("serve.run_ms.p90", quantile(&run, 0.9), "ms");
    metrics.put("serve.transport_ms.p50", quantile(&transport, 0.5), "ms");
    let executed = after.delta(before, "executed");
    let coalesced = after.delta(before, "coalesced");
    metrics.put("serve.executed", executed, "count");
    metrics.put(
        "serve.coalesced_share",
        ratio(coalesced, requests.len() as f64),
        "ratio",
    );
    let (gh, gm, gc) = (
        after.delta(before, "graph_hits"),
        after.delta(before, "graph_misses"),
        after.delta(before, "graph_coalesced"),
    );
    let (sh, sm, sd) = (
        after.delta(before, "solution_hits"),
        after.delta(before, "solution_misses"),
        after.delta(before, "solution_disk_hits"),
    );
    metrics.put("cache.graph_hit_ratio", ratio(gh, gh + gm + gc), "ratio");
    metrics.put(
        "cache.solution_hit_ratio",
        ratio(sh + sd, sh + sm + sd),
        "ratio",
    );
    metrics.put(
        "cache.graph_evictions",
        after.delta(before, "graph_evictions"),
        "count",
    );
    metrics.put(
        "cache.solution_evictions",
        after.delta(before, "solution_evictions"),
        "count",
    );
    metrics.put("loadgen.late_ms.p50", quantile(&late, 0.5), "ms");
    metrics.put("loadgen.late_ms.max", quantile(&late, 1.0), "ms");
    metrics.put(
        "loadgen.backlog_max",
        backlog_max(requests, outcomes) as f64,
        "count",
    );

    // Content addressing of every distinct spec, timed in process.
    let mut key_us = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for r in requests {
        if seen.insert(r.body.as_str()) {
            let t = Instant::now();
            for _ in 0..10 {
                let _ = std::hint::black_box(canon::spec_key(std::hint::black_box(&r.spec)));
            }
            key_us.push(t.elapsed().as_secs_f64() * 1e6 / 10.0);
        }
    }
    metrics.put("canon.spec_key_us", median(&key_us), "us");
}

/// A short served session in the traced runs of the in-process workloads,
/// so they report the serve layer too: the serve mix's schedule for
/// `seconds` against a fresh warmed server, with the same output check
/// (every served body against `Runner::run`).
pub fn layer_session(
    args: &Args,
    seconds: f64,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let _span = wx_trace::span("bench.serve.session");
    let dir = out_dir(args)?;
    let requests = schedule(args.seed, seconds);
    let server = set_up(args, &dir, 0)?;
    let before = Stats::fetch(server.addr)?;
    let outcomes = drive(server.addr, &requests, None);
    let after = Stats::fetch(server.addr)?;
    drop(server);
    let (verdicts, _, _) = check_pass(&requests, &outcomes);
    for verdict in &verdicts {
        match verdict {
            Verdict::Ok => tally.ok(),
            Verdict::Failed(what) => tally.error(what),
            Verdict::Wrong(what) => tally.wrong(what),
        }
    }
    put_layer_metrics(&requests, &outcomes, &before, &after, metrics);
    Ok(())
}

pub fn run(args: &Args) -> Result<(Tally, Metrics), String> {
    let dir = out_dir(args)?;
    let requests = schedule(args.seed, args.seconds);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        drop(server.take());
        let t = Instant::now();
        server = Some(set_up(args, &dir, rep)?);
        setups.push(secs(t.elapsed()));
    }
    let server = server.ok_or("no server was started")?;

    let before = Stats::fetch(server.addr)?;
    let outcomes = drive(server.addr, &requests, None);
    let after = Stats::fetch(server.addr)?;
    let server_rss = server.peak_rss_mib();
    drop(server);

    let mut tally = Tally::new();
    let mut metrics = Metrics::default();
    let (verdicts, check_counters, check_s) = check_pass(&requests, &outcomes);
    for verdict in &verdicts {
        match verdict {
            Verdict::Ok => tally.ok(),
            Verdict::Failed(what) => tally.error(what),
            Verdict::Wrong(what) => tally.wrong(what),
        }
    }
    let distinct = requests
        .iter()
        .map(|r| r.body.as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    eprintln!(
        "perfbench: serve_mixed: {} requests, {distinct} distinct specs re-run in {check_s:.3} s",
        requests.len()
    );

    if args.trace {
        put_layer_metrics(&requests, &outcomes, &before, &after, &mut metrics);

        // The check pass again with tracing on: its time against the
        // untraced pass is the tracing overhead, and its counters must
        // match.
        wx_trace::disable();
        let _ = wx_trace::take_trace();
        wx_trace::enable();
        let (_, traced_counters, traced_s) = check_pass(&requests, &outcomes);
        wx_trace::disable();
        let check_trace: Trace = wx_trace::take_trace();
        tally.check(
            traced_counters == check_counters,
            "serve_mixed: work counters of the re-run differ with tracing on",
        );
        // Over the served requests; the layer pass's checks count in the
        // result line's totals only.
        let failed_share = ratio(tally.failed as f64, tally.attempted as f64);
        // The other layers, then what this workload measured itself.
        let layer_trace = layers::run(args, None, false, &mut tally, &mut metrics)?;
        put_counters(&check_counters, &mut metrics);
        metrics.put(
            "trace.overhead_share",
            (traced_s - check_s) / check_s,
            "ratio",
        );
        metrics.put("failed_share", failed_share, "ratio");

        let spans: Vec<RequestSpan> = requests
            .iter()
            .zip(&outcomes)
            .enumerate()
            .map(|(i, (r, o))| {
                let (status, queue_us, run_us) = match &o.response {
                    Ok(h) => (
                        h.status,
                        h.header_u64("x-wx-queue-us"),
                        h.header_u64("x-wx-run-us"),
                    ),
                    Err(_) => (0, 0, 0),
                };
                RequestSpan {
                    id: i,
                    template: TEMPLATES[r.template].name,
                    connection: o.sender,
                    due_us: r.due.as_micros() as u64,
                    sent_us: o.sent.as_micros() as u64,
                    done_us: o.done.as_micros() as u64,
                    queue_us,
                    run_us,
                    status,
                }
            })
            .collect();
        let trace = layers::merge_traces(check_trace, layer_trace);
        let table = traced::write_serve(&dir, &spans, &trace);
        eprintln!("perfbench: self-time table ({}):\n{table}", dir.display());
    } else {
        let latency = |phase: Phase| -> Vec<f64> {
            requests
                .iter()
                .zip(&outcomes)
                .filter(|(r, _)| r.phase == phase)
                .map(|(r, o)| ms(o.done.saturating_sub(r.due)))
                .collect()
        };
        let nominal = latency(Phase::Nominal);
        let peak = latency(Phase::Peak);
        // Failed, refused and wrong answers all miss the limit.
        let peak_met = requests
            .iter()
            .zip(&outcomes)
            .zip(&verdicts)
            .filter(|((r, o), v)| {
                r.phase == Phase::Peak
                    && matches!(v, Verdict::Ok)
                    && ms(o.done.saturating_sub(r.due)) <= LIMIT_MS
            })
            .count();
        let first_due = requests.first().map_or(Duration::ZERO, |r| r.due);
        let last_done = outcomes
            .iter()
            .map(|o| o.done)
            .max()
            .unwrap_or(Duration::ZERO);
        metrics.put("setup_s", median(&setups), "s");
        metrics.put("wall_s", secs(last_done.saturating_sub(first_due)), "s");
        metrics.put("ok_share", tally.ok_share(), "ratio");
        metrics.put("peak_rss_mb", server_rss, "MiB");
        metrics.put("latency_p50_ms", quantile(&nominal, 0.5), "ms");
        metrics.put("latency_p90_ms", quantile(&nominal, 0.9), "ms");
        metrics.put("peak_latency_p50_ms", quantile(&peak, 0.5), "ms");
        metrics.put("peak_latency_p90_ms", quantile(&peak, 0.9), "ms");
        metrics.put(
            "slo_met_share",
            ratio(peak_met as f64, peak.len() as f64),
            "ratio",
        );
        eprintln!(
            "perfbench: serve_mixed: {} nominal and {} peak requests",
            nominal.len(),
            peak.len()
        );
    }
    Ok((tally, metrics))
}

/// Closed loop with [`SENDERS`] connections over the workload's mix, after
/// the usual set-up: prints the capacity the rates are fractions of.
pub fn calibrate(args: &Args) -> Result<(), String> {
    let dir = out_dir(args)?;
    let server = set_up(args, &dir, 0)?;
    // More requests than the run's seconds can take at any plausible
    // capacity; the loop stops at the deadline.
    let requests = schedule(args.seed, args.seconds * 4.0);
    let t = Instant::now();
    let outcomes = drive(
        server.addr,
        &requests,
        Some(Duration::from_secs_f64(args.seconds)),
    );
    let elapsed = secs(t.elapsed());
    let ok = outcomes
        .iter()
        .filter(|o| matches!(&o.response, Ok(h) if h.status == 200))
        .count();
    let capacity = ok as f64 / elapsed;
    println!(
        "capacity {capacity:.1} req/s ({ok} requests in {elapsed:.1} s); 30% = {:.1}, 50% = {:.1}",
        0.3 * capacity,
        0.5 * capacity
    );
    Ok(())
}
