//! `serve_mixed`: the resident planning service under a closed loop of
//! [`CLIENTS`] client threads, each using the shipped `hanayo_serve::Client`
//! (one connection per request), against an in-process `serve` on a
//! loopback port.
//!
//! Requests mix `plan`, `simulate`, `analyze`, non-wide `tune` (top 3) and
//! `/healthz` over a 24-configuration grid with Zipf popularity — more
//! configurations than the server keeps caches for, so both cache hits and
//! evictions occur. Every 200 body is compared byte for byte with the
//! in-process `schema::run_*` output for the same request. `README.md`
//! gives the reason for each share of the mix.

use crate::outcome::catch;
use crate::registry::{delta, planner_layers, ratio, Reading};
use crate::report::{Block, Check, Phase, Run, SETUP_REPS};
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::stats::{percentile, sorted};
use crate::system;
use crate::Args;
use hanayo_model::Recompute;
use hanayo_serve::schema::{
    run_analyze, run_plan, run_simulate, run_tune, AnalyzeRequest, PlanRequest, SimulateRequest,
    TuneRequest,
};
use hanayo_serve::{serve, Client, ClientError, Server};
use hanayo_sim::TuneContext;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Connection threads run the planners inline: with two clients at most
/// two handler threads are runnable.
pub const THREADS: usize = 1;
/// glibc malloc arenas, one per core. The server runs each connection on a
/// fresh thread, and with glibc's default cap (8 per core) how many arenas
/// those threads open depends on their timing, and so does peak RSS.
pub const MALLOC_ARENAS: i32 = 2;
const CLIENTS: usize = 2;
const MODELS: [&str; 2] = ["bert64", "gpt128"];
const CLUSTERS: [&str; 4] = ["pc", "fc", "tacc", "tc"];
const GPUS: [usize; 3] = [4, 8, 16];
/// Requests per shuffled block, by endpoint. Every block has exactly this
/// mix, so every seed sees the same composition in a different order.
/// Plan, simulate and tune keep the 4:4:2 ratio of the `serve` binary's
/// load-test pool (`build_pool` in `crates/repro/src/bin/serve.rs`), which
/// sends neither analyze nor healthz; analyze gets tune's share and healthz
/// one request in ten.
const BLOCK_MIX: [(Endpoint, usize); 5] = [
    (Endpoint::Plan, 60),
    (Endpoint::Simulate, 60),
    (Endpoint::Analyze, 30),
    (Endpoint::Tune, 30),
    (Endpoint::Healthz, 20),
];
/// `peak_rss_mb` is read once this many requests have completed, so that
/// it does not depend on how many requests the window had time for: the
/// server's memory grows with the connections it has served.
const RSS_AFTER_REQUESTS: usize = 1000;
/// The configuration every set-up warms the server with.
const WARM_UP_CONFIG: (&str, &str, usize) = ("bert64", "fc", 8);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Plan,
    Simulate,
    Analyze,
    Tune,
    Healthz,
}

impl Endpoint {
    fn label(self) -> &'static str {
        match self {
            Endpoint::Plan => "plan",
            Endpoint::Simulate => "simulate",
            Endpoint::Analyze => "analyze",
            Endpoint::Tune => "tune",
            Endpoint::Healthz => "healthz",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Endpoint::Plan => "/v1/plan",
            Endpoint::Simulate => "/v1/simulate",
            Endpoint::Analyze => "/v1/analyze",
            Endpoint::Tune => "/v1/tune",
            Endpoint::Healthz => "/healthz",
        }
    }
}

/// One distinct request the mix draws from.
struct Distinct {
    endpoint: Endpoint,
    /// The JSON body (`None` for `/healthz`).
    body: Option<String>,
}

/// `(model, cluster, gpus)` in a fixed order.
fn configs() -> Vec<(&'static str, &'static str, usize)> {
    let mut out = Vec::new();
    for model in MODELS {
        for cluster in CLUSTERS {
            for gpus in GPUS {
                out.push((model, cluster, gpus));
            }
        }
    }
    out
}

fn plan_request(model: &str, cluster: &str, gpus: usize) -> PlanRequest {
    let pp = gpus.min(8) as u32;
    PlanRequest {
        model: model.into(),
        cluster: cluster.into(),
        gpus,
        train_bytes_per_param: 8,
        method: "hanayo_w2".into(),
        pp,
        dp: gpus as u32 / pp,
        micro_batches: 2 * pp,
        micro_batch_size: 1,
        recompute: Recompute::None,
    }
}

fn simulate_request(model: &str, cluster: &str, gpus: usize) -> SimulateRequest {
    SimulateRequest {
        model: model.into(),
        cluster: cluster.into(),
        gpus,
        scheme: "hanayo_w2".into(),
        micro_batches: gpus as u32,
        micro_batch_size: 1,
        recompute: Recompute::None,
        prefetch: true,
        recv_lookahead: 1,
    }
}

fn analyze_request(model: &str, cluster: &str, gpus: usize) -> AnalyzeRequest {
    AnalyzeRequest {
        model: model.into(),
        cluster: cluster.into(),
        gpus,
        scheme: "hanayo_w2".into(),
        micro_batches: gpus as u32,
        micro_batch_size: 1,
        recompute: Recompute::None,
    }
}

fn tune_request(model: &str, cluster: &str, gpus: usize) -> TuneRequest {
    TuneRequest {
        model: model.into(),
        cluster: cluster.into(),
        gpus,
        batch: 16,
        micro_batch_size: 1,
        train_bytes_per_param: 8,
        min_pp: 2,
        waves: vec![1, 2],
        recompute: None,
        wide: false,
        serial: false,
        top: Some(3),
    }
}

/// Every distinct request: four endpoints per configuration, then
/// `/healthz` last.
fn distinct_requests() -> Result<Vec<Distinct>, String> {
    fn json<T: serde::Serialize>(req: &T) -> Result<String, String> {
        serde_json::to_string(req).map_err(|e| e.to_string())
    }
    let mut out = Vec::new();
    for (model, cluster, gpus) in configs() {
        for (endpoint, body) in [
            (Endpoint::Plan, json(&plan_request(model, cluster, gpus))?),
            (Endpoint::Simulate, json(&simulate_request(model, cluster, gpus))?),
            (Endpoint::Analyze, json(&analyze_request(model, cluster, gpus))?),
            (Endpoint::Tune, json(&tune_request(model, cluster, gpus))?),
        ] {
            out.push(Distinct { endpoint, body: Some(body) });
        }
    }
    out.push(Distinct { endpoint: Endpoint::Healthz, body: None });
    Ok(out)
}

/// Index of the distinct request for `(endpoint, config)`.
fn index_of(endpoint: Endpoint, config: Option<usize>) -> usize {
    match (endpoint, config) {
        (Endpoint::Healthz, _) | (_, None) => configs().len() * 4,
        (e, Some(c)) => {
            c * 4
                + match e {
                    Endpoint::Plan => 0,
                    Endpoint::Simulate => 1,
                    Endpoint::Analyze => 2,
                    _ => 3,
                }
        }
    }
}

/// Split `n` requests over the configurations by Zipf popularity
/// (weight `1/(rank+1)`), largest remainder first. Rank `r` is
/// configuration `7r mod 24`, which spreads the popular ranks over models,
/// clusters and sizes.
fn apportion(n: usize) -> Vec<(usize, usize)> {
    let count = configs().len();
    let weights: Vec<f64> = (0..count).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut shares: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &r in order.iter().take(n - shares.iter().sum::<usize>()) {
        shares[r] += 1;
    }
    shares.into_iter().enumerate().map(|(r, k)| ((7 * r) % count, k)).collect()
}

/// The request stream shared by the clients: fixed-mix blocks, each in a
/// fresh seeded order.
struct Sequence {
    rng: Rng,
    /// Blocks started so far.
    blocks: u64,
    block: Vec<usize>,
}

/// Requests in one block.
fn block_len() -> usize {
    BLOCK_MIX.iter().map(|(_, n)| n).sum()
}

impl Sequence {
    fn new(seed: u64) -> Sequence {
        Sequence { rng: Rng::new(seed), blocks: 0, block: Vec::new() }
    }

    /// The next request as `(block number, distinct index)`. Past
    /// `deadline` the current block is finished and no new one starts,
    /// unless fewer than [`RSS_AFTER_REQUESTS`] requests have been issued.
    fn next(&mut self, deadline: Instant) -> Option<(u64, usize)> {
        if self.block.is_empty() {
            let issued = self.blocks as usize * block_len();
            if Instant::now() >= deadline && issued >= RSS_AFTER_REQUESTS {
                return None;
            }
            self.blocks += 1;
            for (endpoint, n) in BLOCK_MIX {
                if endpoint == Endpoint::Healthz {
                    self.block.extend(std::iter::repeat_n(index_of(endpoint, None), n));
                    continue;
                }
                for (config, k) in apportion(n) {
                    self.block.extend(std::iter::repeat_n(index_of(endpoint, Some(config)), k));
                }
            }
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().map(|idx| (self.blocks, idx))
    }
}

/// One request's outcome.
struct Record {
    distinct: usize,
    block: u64,
    start_ns: u64,
    ms: f64,
    /// `None` when the request got no response.
    status: Option<u16>,
}

/// One client's record of a window.
#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    failures: Vec<String>,
    dropped: u64,
    bodies: Bodies,
    spans: Option<Tracer>,
}

/// What every client of a run shares: the server, the request stream,
/// the clock spans are measured on, and the peak RSS after
/// [`RSS_AFTER_REQUESTS`] requests.
struct Load<'a> {
    addr: SocketAddr,
    seq: Mutex<Sequence>,
    distinct: &'a [Distinct],
    origin: Instant,
    completed: AtomicUsize,
    rss_mb: OnceLock<f64>,
}

fn client_loop(load: &Load, deadline: Instant, traced: bool) -> ClientLog {
    let client = Client::new(load.addr);
    let mut log =
        ClientLog { spans: traced.then(|| Tracer::new(load.origin)), ..ClientLog::default() };
    loop {
        let next = match load.seq.lock() {
            Ok(mut s) => s.next(deadline),
            Err(_) => None,
        };
        let Some((block, idx)) = next else { break };
        send(&client, load.distinct, block, idx, load.origin, &mut log);
        if load.completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_REQUESTS {
            let _ = load.rss_mb.set(system::peak_rss_mb());
        }
    }
    log
}

/// Issue one request and log its outcome. When traced, the operation is a
/// `bench` root span and the `Client::request` call a `serve_transport`
/// child.
fn send(
    client: &Client,
    distinct: &[Distinct],
    block: u64,
    idx: usize,
    origin: Instant,
    log: &mut ClientLog,
) {
    let op = log.records.len() as u64;
    let root = log.spans.as_mut().map(|t| t.open("serve.request", "bench", op, None));
    let d = &distinct[idx];
    let method = if d.endpoint == Endpoint::Healthz { "GET" } else { "POST" };
    let call = log.spans.as_mut().map(|t| t.open(d.endpoint.path(), "serve_transport", op, root));
    let start_ns = origin.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let result = client.request(method, d.endpoint.path(), d.body.as_deref());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let (Some(t), Some(call)) = (log.spans.as_mut(), call) {
        t.close(call);
    }
    let status = result.as_ref().ok().map(|r| r.status);
    log.records.push(Record { distinct: idx, block, start_ns, ms, status });
    match result {
        Ok(resp) if resp.status == 200 => {
            *log.bodies.entry(idx).or_default().entry(resp.body).or_default() += 1;
        }
        Ok(resp) => {
            let body: String = resp.body.chars().take(100).collect();
            log.failures.push(format!(
                "HTTP {} on {}: {}",
                resp.status,
                d.endpoint.label(),
                body.trim()
            ));
        }
        Err(e) => {
            if matches!(e, ClientError::Disconnected) {
                log.dropped += 1;
            }
            log.failures.push(format!("{e} on {}", d.endpoint.label()));
        }
    }
    if let (Some(t), Some(root)) = (log.spans.as_mut(), root) {
        t.close(root);
    }
}

/// Served 200 bodies per distinct request, with how often each came.
type Bodies = HashMap<usize, HashMap<String, u64>>;

/// Run the clients until `seconds` have passed; fold their logs into the
/// run's tally and the run's served bodies.
fn window(
    load: &Load,
    seconds: f64,
    traced: bool,
    run: &mut Run,
    seen: &mut Bodies,
) -> (Phase, Vec<ClientLog>) {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..CLIENTS).map(|_| s.spawn(|| client_loop(load, deadline, traced))).collect();
        handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    });
    let mut blocks: BTreeMap<u64, (Block, u64, u64)> = BTreeMap::new();
    for log in &logs {
        run.tally.attempted += log.records.len() as u64;
        for f in &log.failures {
            run.tally.fail(f);
        }
        for r in &log.records {
            let end_ns = r.start_ns + (r.ms * 1e6) as u64;
            let (block, first, last) =
                blocks.entry(r.block).or_insert((Block::default(), u64::MAX, 0));
            (*first, *last) = ((*first).min(r.start_ns), (*last).max(end_ns));
            if r.status == Some(200) {
                block.latencies_ms.push(r.ms);
                block.work += 1.0;
            }
        }
        for (idx, bodies) in &log.bodies {
            let slot = seen.entry(*idx).or_default();
            for (body, n) in bodies {
                *slot.entry(body.clone()).or_default() += n;
            }
        }
    }
    let phase = Phase {
        blocks: blocks
            .into_values()
            .map(|(block, first, last)| Block { wall_s: (last - first) as f64 / 1e9, ..block })
            .collect(),
    };
    (phase, logs)
}

/// The in-process document for a distinct request, rendered as the server
/// renders it.
fn reference(d: &Distinct) -> Result<String, String> {
    fn doc<R: serde::Deserialize, D: serde::Serialize, E: std::fmt::Display>(
        body: &str,
        run: impl FnOnce(&R) -> Result<D, E>,
    ) -> Result<String, String> {
        let req: R = serde_json::from_str(body).map_err(|e| e.to_string())?;
        let doc = run(&req).map_err(|e| e.to_string())?;
        Ok(serde_json::to_string(&doc).map_err(|e| e.to_string())? + "\n")
    }
    let Some(body) = &d.body else { return Ok("ok\n".to_string()) };
    match d.endpoint {
        Endpoint::Plan => doc(body, run_plan),
        Endpoint::Simulate => doc(body, run_simulate),
        Endpoint::Analyze => doc(body, run_analyze),
        Endpoint::Tune => doc(body, |r: &TuneRequest| run_tune(r, &TuneContext::default())),
        Endpoint::Healthz => Err("healthz has no body".to_string()),
    }
}

/// Compare every served 200 body with the in-process reference; each
/// request that got a different body is one wrong output.
fn verify_bodies(distinct: &[Distinct], seen: &Bodies, run: &mut Run) {
    let mut compared = 0;
    for (idx, bodies) in seen {
        let d = &distinct[*idx];
        let expected = catch(|| reference(d)).unwrap_or_else(Err);
        compared += 1;
        for (body, n) in bodies {
            if expected.as_ref() != Ok(body) {
                run.tally.wrong_output(d.endpoint.label(), *n);
            }
        }
    }
    run.checks.push(Check {
        name: "served 200 bodies byte-identical to in-process schema output",
        passed: run.tally.wrong == 0,
        detail: format!("{compared} distinct requests compared"),
    });
}

/// Start a server and send it one request of every kind for a fixed
/// configuration, so that lazy set-up is done before timing.
fn start_server(distinct: &[Distinct]) -> Result<Server, String> {
    let server = serve("127.0.0.1:0").map_err(|e| format!("binding the server: {e}"))?;
    let client = Client::new(server.addr());
    let warm = configs().iter().position(|&c| c == WARM_UP_CONFIG);
    for endpoint in
        [Endpoint::Healthz, Endpoint::Plan, Endpoint::Simulate, Endpoint::Analyze, Endpoint::Tune]
    {
        let d = &distinct[index_of(endpoint, warm)];
        let method = if d.body.is_some() { "POST" } else { "GET" };
        client
            .expect_ok(method, endpoint.path(), d.body.as_deref())
            .map_err(|e| format!("warm-up {}: {e}", endpoint.label()))?;
    }
    Ok(server)
}

pub fn run(args: &Args) -> Result<(Run, Option<Tracer>), String> {
    let mut run = Run { work_unit: "requests", threads: THREADS, ..Run::default() };
    let mut server: Option<Server> = None;
    let mut distinct = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            s.stop();
        }
        let t = Instant::now();
        distinct = distinct_requests()?;
        server = Some(start_server(&distinct)?);
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    let server = server.ok_or("no set-up ran")?;
    let result = measure(args, &server, &distinct, &mut run);
    server.stop();
    let tracer = result?;
    Ok((run, tracer))
}

fn measure(
    args: &Args,
    server: &Server,
    distinct: &[Distinct],
    run: &mut Run,
) -> Result<Option<Tracer>, String> {
    let addr = server.addr();
    let origin = Instant::now();
    let load = Load {
        addr,
        seq: Mutex::new(Sequence::new(args.seed)),
        distinct,
        origin,
        completed: AtomicUsize::new(0),
        rss_mb: OnceLock::new(),
    };
    let mut seen = Bodies::new();
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let (untraced, _) = window(&load, seconds, false, run, &mut seen);
    run.end_untraced(untraced);
    if let Some(&mb) = load.rss_mb.get() {
        run.peak_rss_mb = mb;
        run.peak_rss_at = format!("VmHWM after the first {RSS_AFTER_REQUESTS} requests");
    }
    let mut tracer = None;
    if args.trace {
        let joins_before = server.dedup_joins();
        let before = Reading::take();
        let (traced, logs) = window(&load, seconds, true, run, &mut seen);
        let after = Reading::take();
        let joins = server.dedup_joins() - joins_before;
        Client::new(addr).metrics().map_err(|e| format!("scraping /metrics: {e}"))?;
        let resident = Reading::take().gauge("hanayo_serve_cache_configs");

        let mut t = Tracer::new(origin);
        let mut client_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut responded, mut responded_ms, mut dropped) = (0.0, 0.0, 0);
        for log in logs {
            dropped += log.dropped;
            for r in &log.records {
                if r.status.is_some() {
                    responded += 1.0;
                    responded_ms += r.ms;
                    client_ms.entry(distinct[r.distinct].endpoint.label()).or_default().push(r.ms);
                }
            }
            if let Some(spans) = log.spans {
                t.append(spans);
            }
        }
        let mut handler_ms = 0.0;
        for e in [
            Endpoint::Plan,
            Endpoint::Simulate,
            Endpoint::Analyze,
            Endpoint::Tune,
            Endpoint::Healthz,
        ] {
            let labels = [("endpoint", e.label())];
            let (s1, n1) = after.histogram("hanayo_serve_latency_ns", &labels);
            let (s0, n0) = before.histogram("hanayo_serve_latency_ns", &labels);
            handler_ms += (s1 - s0) / 1e6;
            if e != Endpoint::Healthz {
                run.layers.insert(
                    format!("serve.handler_ms.{}", e.label()),
                    ratio((s1 - s0) / 1e6, n1 - n0),
                );
            }
        }
        let healthz = sorted(client_ms.get("healthz").map_or(&[][..], Vec::as_slice));
        let hits = delta(&before, &after, "hanayo_tuner_cache_hits_total", &[]);
        let misses = delta(&before, &after, "hanayo_tuner_cache_misses_total", &[]);
        for (name, value) in [
            ("serve.transport_ms", ratio(responded_ms - handler_ms, responded)),
            ("serve.healthz_ms", percentile(&healthz, 50.0)),
            ("serve.cache_hit_ratio", ratio(hits, hits + misses)),
            ("serve.resident_configs", resident),
            ("serve.dedup_joins", joins as f64),
            ("serve.dropped_connections", dropped as f64),
        ] {
            run.layers.insert(name.to_string(), value);
        }
        planner_layers(&before, &after, responded, &mut run.layers);
        // The server's own latency histogram splits the client's request
        // spans into handler time (serve) and the rest (connection, accept
        // loop and HTTP: serve_transport).
        run.add_self_times(t.spans(), responded as usize);
        let handler_per_op = ratio(handler_ms, responded);
        run.layers.insert("self_ms.serve".into(), handler_per_op);
        if let Some(v) = run.layers.get_mut("self_ms.serve_transport") {
            *v -= handler_per_op;
        }
        run.traced = Some(traced);
        run.add_trace_overhead();
        tracer = Some(t);
    }
    verify_bodies(distinct, &seen, run);
    Ok(tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Configurations whose caches the server keeps resident; beyond this
    /// it evicts the oldest admitted (`hanayo_serve::state`).
    const SERVER_RESIDENT_CONFIGS: usize = 8;

    #[test]
    fn every_block_has_the_fixed_mix() {
        let mut seq = Sequence::new(9);
        let mut counts = vec![0; distinct_requests().expect("renders").len()];
        // Until the peak-RSS reading's request count has been issued, new
        // blocks start even past the deadline.
        let deadline = Instant::now();
        for _ in 0..block_len() {
            let (n, idx) = seq.next(deadline).expect("below the RSS request count");
            assert_eq!(n, 1);
            counts[idx] += 1;
        }
        // Past the deadline and that count, exactly the block already
        // started is served.
        let healthz = index_of(Endpoint::Healthz, None);
        seq.blocks = RSS_AFTER_REQUESTS.div_ceil(block_len()) as u64;
        seq.block = vec![healthz];
        assert_eq!(seq.next(deadline), Some((seq.blocks, healthz)));
        assert_eq!(seq.next(deadline), None);
        assert_eq!(counts[index_of(Endpoint::Healthz, None)], 20);
        let tunes: usize = (0..24).map(|c| counts[index_of(Endpoint::Tune, Some(c))]).sum();
        assert_eq!(tunes, 30);
        // More configurations are requested than the server keeps resident.
        let configs = (0..24).filter(|&c| counts[index_of(Endpoint::Tune, Some(c))] > 0).count();
        assert!(configs > SERVER_RESIDENT_CONFIGS, "{configs} configurations");
    }

    /// A served request for `tc` with 16 GPUs panics in the connection
    /// thread (the `tc` cluster model allows at most 8 GPUs), so the client
    /// sees its connection dropped: one failure, and the server keeps
    /// answering.
    #[test]
    fn dropped_tc_connection_counts_as_one_failure() {
        crate::outcome::install_quiet_panic_hook();
        let distinct = distinct_requests().expect("renders");
        let server = start_server(&distinct).expect("server starts");
        let tc16 = configs().iter().position(|&c| c == ("bert64", "tc", 16)).expect("in grid");
        let client = Client::new(server.addr());
        let mut log = ClientLog::default();
        for idx in [index_of(Endpoint::Plan, Some(tc16)), index_of(Endpoint::Healthz, None)] {
            send(&client, &distinct, 1, idx, Instant::now(), &mut log);
        }
        server.stop();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.dropped, 1);
        assert_eq!(log.failures.len(), 1, "{:?}", log.failures);
        assert_eq!(log.records[0].status, None, "no response for the tc request");
        assert_eq!(log.records[1].status, Some(200), "healthz after the dropped request");
    }
}
