//! `daemon-mix`: a closed loop against an in-process `sofd` on loopback;
//! one op is one HTTP request.
//!
//! One client process holds one keep-alive connection per core (at most
//! two). Each connection replays a seeded script of short-lived sessions:
//! create, join, leave, a link fail and its repair, one more join or leave,
//! GET, sometimes `GET /v1/stats`, delete. Create plus delete are about a
//! quarter of the requests, so session set-up and the registry's write
//! lock show, not only join/leave on a standing session.

use crate::report::{latency_metrics, median, per_op_medians, Dist, Outcome};
use crate::solve::{layer_metrics, pass, Acc, Item};
use crate::trace::Tracer;
use crate::{mix, Run, Size};
use sof_core::SofdaConfig;
use sof_daemon::http::Request as HttpRequest;
use sof_daemon::{router, Body, Client, Registry, Server, ServerConfig, ServerHandle};
use sof_graph::{NodeId, Rng64};
use sof_topo::{
    build_region_instance, build_regions, RegionDef, RegionScenario, RegionTopology, RegionsParams,
};
use std::sync::atomic::AtomicBool;
use std::sync::{Barrier, RwLock};
use std::time::{Duration, Instant};

/// Route names, indexing latency samples and metric names.
const ROUTES: [&str; 8] = [
    "create", "join", "leave", "get", "fail", "repair", "stats", "delete",
];
const ROUTE_MS: [&str; 8] = [
    "daemon.route_ms.create",
    "daemon.route_ms.join",
    "daemon.route_ms.leave",
    "daemon.route_ms.get",
    "daemon.route_ms.fail",
    "daemon.route_ms.repair",
    "daemon.route_ms.stats",
    "daemon.route_ms.delete",
];
const DISPATCH_MS: [&str; 8] = [
    "daemon.dispatch_ms.create",
    "daemon.dispatch_ms.join",
    "daemon.dispatch_ms.leave",
    "daemon.dispatch_ms.get",
    "daemon.dispatch_ms.fail",
    "daemon.dispatch_ms.repair",
    "daemon.dispatch_ms.stats",
    "daemon.dispatch_ms.delete",
];

/// The registered topology: three regions, as in `churn-at-scale`.
const REGIONS: [(&str, usize, usize); 3] =
    [("us-east", 10, 2), ("eu-west", 10, 2), ("ap-south", 8, 2)];
const STATS: usize = 6;
const CHAIN_LEN: usize = 2;
const VMS_PER_DC: usize = 2;

struct Shape {
    /// Sessions in one connection's script.
    sessions: usize,
    /// Sessions per connection whose create instance SOFDA and the exact
    /// solver also solve offline.
    reference: usize,
}

const FULL: Shape = Shape {
    sessions: 150,
    reference: 8,
};
const TINY: Shape = Shape {
    sessions: 8,
    reference: 2,
};

/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 21;

enum Step {
    Create,
    Join(usize),
    Leave(usize),
    Fail(usize, usize),
    Repair(usize, usize),
    Get,
    Stats,
    Delete,
}

struct Session {
    sources: Vec<usize>,
    destinations: Vec<usize>,
    seed: u64,
    steps: Vec<Step>,
}

impl Session {
    fn create_body(&self) -> String {
        let list = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        format!(
            "{{\"topology\":\"bench\",\"sources\":[{}],\"destinations\":[{}],\"chain_len\":{CHAIN_LEN},\
             \"vms_per_dc\":{VMS_PER_DC},\"seed\":{},\"ttl_secs\":0}}",
            list(&self.sources),
            list(&self.destinations),
            self.seed
        )
    }

    /// (route, method, path, body) of one step on session `id`.
    fn request(&self, step: &Step, id: u64) -> (usize, &'static str, String, String) {
        let s = format!("/v1/sessions/{id}");
        match *step {
            Step::Create => (0, "POST", "/v1/sessions".into(), self.create_body()),
            Step::Join(d) => (
                1,
                "POST",
                format!("{s}/join"),
                format!("{{\"destination\":{d}}}"),
            ),
            Step::Leave(d) => (
                2,
                "POST",
                format!("{s}/leave"),
                format!("{{\"destination\":{d}}}"),
            ),
            Step::Get => (3, "GET", s, String::new()),
            Step::Fail(u, v) => (
                4,
                "POST",
                format!("{s}/fail"),
                format!("{{\"link\":[{u},{v}]}}"),
            ),
            Step::Repair(u, v) => (
                5,
                "POST",
                format!("{s}/repair"),
                format!("{{\"link\":[{u},{v}]}}"),
            ),
            Step::Stats => (STATS, "GET", "/v1/stats".into(), String::new()),
            Step::Delete => (7, "DELETE", s, String::new()),
        }
    }
}

fn topology_params() -> RegionsParams {
    RegionsParams {
        regions: REGIONS
            .iter()
            .map(|&(name, nodes, dcs)| RegionDef::new(name, nodes, dcs))
            .collect(),
        gateway_links: 2,
        pair_cost: None,
    }
}

fn topology_body(seed: u64) -> String {
    let regions = REGIONS
        .iter()
        .map(|(name, nodes, dcs)| {
            format!("{{\"name\":\"{name}\",\"nodes\":{nodes},\"dcs\":{dcs}}}")
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"name\":\"bench\",\"regions\":[{regions}],\"gateway_links\":2,\"seed\":{seed}}}")
}

/// One connection's seeded session script. Every request in it is valid,
/// so no operation should fail.
fn script(seed: u64, sessions: usize, rt: &RegionTopology) -> Vec<Session> {
    let mut rng = Rng64::seed_from(seed);
    let n = rt.topo.graph.node_count();
    let links: Vec<(usize, usize)> = rt
        .topo
        .graph
        .edges()
        .map(|(_, e)| (e.u.index(), e.v.index()))
        .collect();
    (0..sessions)
        .map(|_| {
            let ns = rng.range(1, 3);
            let nd = rng.range(2, 5);
            let picks = rng.sample_indices(n, ns + nd);
            let sources = picks[..ns].to_vec();
            let destinations = picks[ns..].to_vec();
            let mut served = destinations.clone();
            let mut steps = vec![Step::Create];
            let join = |rng: &mut Rng64, served: &mut Vec<usize>| {
                let free: Vec<usize> = (0..n)
                    .filter(|x| !sources.contains(x) && !served.contains(x))
                    .collect();
                let d = *rng.pick(&free);
                served.push(d);
                Step::Join(d)
            };
            let leave = |rng: &mut Rng64, served: &mut Vec<usize>| {
                Step::Leave(served.remove(rng.below(served.len())))
            };
            steps.push(join(&mut rng, &mut served));
            steps.push(leave(&mut rng, &mut served));
            let (u, v) = *rng.pick(&links);
            steps.push(Step::Fail(u, v));
            steps.push(Step::Repair(u, v));
            steps.push(if served.len() > 1 && rng.chance(0.5) {
                leave(&mut rng, &mut served)
            } else {
                join(&mut rng, &mut served)
            });
            steps.push(Step::Get);
            if rng.chance(1.0 / 3.0) {
                steps.push(Step::Stats);
            }
            steps.push(Step::Delete);
            Session {
                sources,
                destinations,
                seed: rng.below(1 << 40) as u64,
                steps,
            }
        })
        .collect()
}

/// Where requests go: the daemon over loopback, or `router::route` called
/// directly on an in-process registry.
trait Transport {
    fn send(&mut self, method: &str, path: &str, body: &str) -> Option<(u16, String)>;
}

impl Transport for Client {
    fn send(&mut self, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
        self.request(method, path, body).ok()
    }
}

struct Direct {
    registry: RwLock<Registry>,
    stop: AtomicBool,
}

impl Transport for Direct {
    fn send(&mut self, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
        let req = HttpRequest {
            method: method.into(),
            path: path.into(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        };
        Some(router::route(&self.registry, &self.stop, &req))
    }
}

/// The number after `key` in a JSON response, without a full parse.
fn field(response: &str, key: &str) -> Option<f64> {
    let rest = &response[response.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One request's route and client-side timing (kept for spans only).
struct Sample {
    route: usize,
    start: Instant,
    end: Instant,
}

/// What one connection logs. Latencies are `f32` and throughput is kept
/// as per-second counts, so the log stays small and the process's peak
/// resident set hardly depends on how many requests the host allowed.
struct ConnLog {
    /// Start of the loop; `per_second` counts from here.
    origin: Instant,
    /// Latency (ms) of every request, in request order.
    lat: Vec<f32>,
    /// Requests answered in each second since `origin`.
    per_second: Vec<u32>,
    /// Every request's timing, when traced.
    spans: Option<Vec<Sample>>,
    /// Sum of the `forest_cost`s in each pass's responses.
    pass_cost: Vec<f64>,
    /// Failed requests (non-2xx or transport failure) in each pass.
    pass_failed: Vec<u64>,
}

impl ConnLog {
    fn new(origin: Instant, traced: bool) -> ConnLog {
        ConnLog {
            origin,
            lat: Vec::new(),
            per_second: Vec::new(),
            spans: traced.then(Vec::new),
            pass_cost: Vec::new(),
            pass_failed: Vec::new(),
        }
    }

    fn requests(&self) -> usize {
        self.lat.len()
    }
}

/// Replays `script` once over `t`, logging every request.
fn drive_pass<T: Transport>(t: &mut T, script: &[Session], log: &mut ConnLog) {
    let (mut cost, mut failed) = (0.0, 0);
    for session in script {
        let mut id = 0;
        for step in &session.steps {
            let (route, method, path, body) = session.request(step, id);
            let start = Instant::now();
            let r = t.send(method, &path, &body);
            let end = Instant::now();
            log.lat.push(((end - start).as_secs_f64() * 1e3) as f32);
            let sec = (end - log.origin).as_secs() as usize;
            if log.per_second.len() <= sec {
                log.per_second.resize(sec + 1, 0);
            }
            log.per_second[sec] += 1;
            if let Some(spans) = &mut log.spans {
                spans.push(Sample { route, start, end });
            }
            match r {
                Some((200, resp)) => {
                    if route == 0 {
                        id = field(&resp, "\"id\":").map_or(0, |v| v as u64);
                    }
                    // `/v1/stats` lists every live session, including the
                    // other connections', so only session routes count.
                    if route != STATS {
                        cost += field(&resp, "\"forest_cost\":").unwrap_or(0.0);
                    }
                }
                _ => failed += 1,
            }
        }
    }
    log.pass_cost.push(cost);
    log.pass_failed.push(failed);
}

/// The closed loop: one thread and keep-alive connection per script, each
/// replaying its script until `budget` has passed (at least twice).
fn closed_loop(
    addr: std::net::SocketAddr,
    scripts: &[Vec<Session>],
    budget: Duration,
    traced: bool,
) -> Vec<ConnLog> {
    let barrier = Barrier::new(scripts.len() + 1);
    std::thread::scope(|sc| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let barrier = &barrier;
                sc.spawn(move || {
                    let mut client = Client::new(addr);
                    barrier.wait();
                    let mut log = ConnLog::new(Instant::now(), traced);
                    while log.pass_cost.len() < 2 || log.origin.elapsed() < budget {
                        drive_pass(&mut client, script, &mut log);
                    }
                    log
                })
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Throughput as the median of per-second completion counts over the
/// loop, so one second stalled by the host does not move it.
fn ops_per_s(logs: &[ConnLog]) -> f64 {
    let seconds = logs.iter().map(|l| l.per_second.len()).max().unwrap_or(0);
    let mut per_second: Vec<f64> = (0..seconds)
        .map(|i| {
            logs.iter()
                .map(|l| f64::from(l.per_second.get(i).copied().unwrap_or(0)))
                .sum()
        })
        .collect();
    // The last second is partial: the connections finish their passes.
    if per_second.len() > 1 {
        per_second.pop();
    }
    median(per_second)
}

fn start_server(topology: &str) -> ServerHandle {
    let handle = Server::start(ServerConfig::default()).expect("bind a loopback port");
    let (status, body) = Client::new(handle.addr())
        .request("POST", "/v1/topologies", topology)
        .expect("register the topology");
    assert_eq!(status, 200, "registering the topology failed: {body}");
    handle
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let shape = match run.size {
        Size::Full => &FULL,
        Size::Tiny => &TINY,
    };
    // The wire format parses integers as i64; keep seeds well inside it.
    let topo_seed = mix(run.seed, 0x7090) >> 24;
    let topology = topology_body(topo_seed);
    let connections = run.threads.clamp(1, 2);

    // Set-up: daemon start plus topology registration, repeated; the
    // median counts. The region build alone is timed by calling it.
    let mut setup_ms = Vec::with_capacity(SETUP_REPS);
    let mut regions_ms = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    let mut rt = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            ServerHandle::stop(s);
        }
        let t0 = Instant::now();
        server = Some(start_server(&topology));
        setup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        rt = Some(build_regions(&topology_params(), topo_seed).expect("valid regions"));
        regions_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let server = server.expect("a started daemon");
    let rt = rt.expect("a built topology");
    let setup = median(setup_ms);
    out.e2e.insert("setup_s", setup / 1e3);
    out.layer.insert("topo.build_ms", median(regions_ms));
    let scripts: Vec<Vec<Session>> = (0..connections)
        .map(|c| script(mix(run.seed, 0xD0 + c as u64), shape.sessions, &rt))
        .collect();
    let reference: Vec<Item> = scripts
        .iter()
        .flat_map(|s| &s[..shape.reference])
        .map(|s| Item {
            inst: build_region_instance(
                &rt,
                &RegionScenario {
                    vms_per_dc: VMS_PER_DC,
                    setup_scale: 1.0,
                    seed: s.seed,
                },
                s.sources.iter().map(|&i| NodeId::new(i)).collect(),
                s.destinations.iter().map(|&i| NodeId::new(i)).collect(),
                CHAIN_LEN,
            ),
            cfg: SofdaConfig::default(),
            solvers: &[0],
            exact: true,
            fig12: false,
        })
        .collect();
    let per_pass: usize = scripts.iter().flatten().map(|s| s.steps.len()).sum();
    out.lines.push(format!(
        "daemon-mix: {connections} connections, {} sessions and {per_pass} requests per pass \
         over all connections, set-up {setup:.1} ms",
        connections * shape.sessions
    ));

    let budget = if run.trace {
        run.budget / 2
    } else {
        run.budget
    };
    let logs = closed_loop(server.addr(), &scripts, budget, false);
    let requests: usize = logs.iter().map(ConnLog::requests).sum();
    let failed: u64 = logs.iter().flat_map(|l| &l.pass_failed).sum();
    for (c, log) in logs.iter().enumerate() {
        for (p, (&cost, &f)) in log
            .pass_cost
            .iter()
            .zip(&log.pass_failed)
            .enumerate()
            .skip(1)
        {
            let context = format!("connection {c}, pass {p}");
            out.same("cost", log.pass_cost[0], cost, &context);
            out.same(
                "failed requests",
                log.pass_failed[0] as f64,
                f as f64,
                &context,
            );
        }
    }
    let throughput = ops_per_s(&logs);
    out.attempted = requests as u64;
    out.failed = failed;
    out.lines.push(format!(
        "{requests} requests, {failed} failed; median second {throughput:.1} req/s"
    ));
    // Each connection replays its script pass after pass.
    let lat: Vec<f64> = logs
        .iter()
        .flat_map(|l| {
            let samples: Vec<f64> = l.lat.iter().map(|&ms| f64::from(ms)).collect();
            per_op_medians(&samples, samples.len() / l.pass_cost.len())
        })
        .collect();
    latency_metrics(
        &mut out,
        &Dist::new(lat),
        "request latency (per-request median over passes)",
    );
    let first_cost: f64 = logs.iter().map(|l| l.pass_cost[0]).sum();
    let first_failed: u64 = logs.iter().map(|l| l.pass_failed[0]).sum();
    let mut racc = Acc::default();
    let reference_pass = pass(&reference, None, &mut racc, &mut out);
    out.e2e.insert("ops_per_s", throughput);
    out.e2e.insert("cost", first_cost);
    out.e2e
        .insert("availability", 1.0 - first_failed as f64 / per_pass as f64);
    out.e2e.insert("opt_ratio", reference_pass.opt_ratio());
    out.lines.push(format!(
        "cost {first_cost:.4} over one pass of responses; opt_ratio {:.6} over {} created sessions",
        reference_pass.opt_ratio(),
        reference.len()
    ));
    if !reference_pass.opt_ratio().is_finite() {
        out.problem("the exact solver proved no session optimal; opt_ratio is undefined");
    }

    if run.trace {
        let mut tracer = Tracer::new();
        traced(
            &mut out,
            &mut tracer,
            &server,
            &scripts,
            &topology,
            throughput,
            budget,
        );
        let mut racc = Acc::default();
        pass(&reference, Some(&mut tracer), &mut racc, &mut out).compare(
            &reference_pass,
            &mut out,
            "traced pass",
        );
        layer_metrics(&mut out, &racc);
        out.add_layer_table(&tracer, &[]);
        out.tracer = Some(tracer);
    } else {
        // Bit-identical at any thread count: each script once more at one
        // thread, over one connection.
        sof_par::set_threads(1);
        let mut client = Client::new(server.addr());
        for (c, script) in scripts.iter().enumerate() {
            let mut log = ConnLog::new(Instant::now(), false);
            drive_pass(&mut client, script, &mut log);
            let context = format!("connection {c}, SOF_THREADS=1 vs pinned");
            out.same("cost", logs[c].pass_cost[0], log.pass_cost[0], &context);
        }
        pass(&reference, None, &mut Acc::default(), &mut out).compare(
            &reference_pass,
            &mut out,
            "SOF_THREADS=1 vs pinned",
        );
        sof_par::set_threads(run.threads);
    }
    server.stop();
    out
}

/// The traced closed loop plus direct dispatch and body-parse replays;
/// records spans on `tracer` and the daemon's per-layer metrics.
fn traced(
    out: &mut Outcome,
    tracer: &mut Tracer,
    server: &ServerHandle,
    scripts: &[Vec<Session>],
    topology: &str,
    untraced: f64,
    budget: Duration,
) {
    // Client side: every request over loopback is one span.
    let logs = closed_loop(server.addr(), scripts, budget, true);
    let traced = ops_per_s(&logs);
    let mut route_lat: [Vec<f64>; 8] = Default::default();
    let mut op = 0;
    for s in logs.iter().flat_map(|l| l.spans.iter().flatten()) {
        tracer.record("daemon", ROUTES[s.route], op, s.start, s.end);
        route_lat[s.route].push((s.end - s.start).as_secs_f64() * 1e3);
        op += 1;
    }
    let client_mean = route_lat.iter().flatten().sum::<f64>() / op as f64;

    // Server side without the socket: the same request sequence through
    // `router::route` on an in-process registry, and `Body::parse` alone.
    let mut direct = Direct {
        registry: RwLock::new(Registry::new(None)),
        stop: AtomicBool::new(false),
    };
    let registered = direct.send("POST", "/v1/topologies", topology);
    if registered.map(|r| r.0) != Some(200) {
        out.problem("registering the topology on the in-process registry failed");
    }
    let mut dispatch: [Vec<f64>; 8] = Default::default();
    let mut parse_ms = Vec::new();
    for script in scripts {
        let mut log = ConnLog::new(Instant::now(), true);
        drive_pass(&mut direct, script, &mut log);
        if log.pass_failed[0] > 0 {
            out.problem(format!("{} direct dispatches failed", log.pass_failed[0]));
        }
        for s in log.spans.iter().flatten() {
            tracer.record("daemon", "router::route", op, s.start, s.end);
            dispatch[s.route].push((s.end - s.start).as_secs_f64() * 1e3);
            op += 1;
        }
        for session in script {
            for step in &session.steps {
                let (_, _, _, body) = session.request(step, 1);
                if body.is_empty() {
                    continue;
                }
                let (parsed, ms) = tracer.span("daemon", "wire::Body::parse", op, |_| {
                    Body::parse(body.as_bytes())
                });
                if parsed.is_err() {
                    out.problem(format!("Body::parse rejected {body}"));
                }
                parse_ms.push(ms);
                op += 1;
            }
        }
    }
    let dispatch_n: usize = dispatch.iter().map(Vec::len).sum();
    let dispatch_mean = dispatch.iter().flatten().sum::<f64>() / dispatch_n.max(1) as f64;

    let stats = Client::new(server.addr()).request("GET", "/v1/stats", "");
    let (requests, errors) = match &stats {
        Ok((200, body)) => (
            field(body, "\"requests\":").unwrap_or(f64::NAN),
            field(body, "\"errors\":").unwrap_or(f64::NAN),
        ),
        _ => {
            out.problem("GET /v1/stats failed");
            (f64::NAN, f64::NAN)
        }
    };
    for r in 0..ROUTES.len() {
        let p50 = |v: &Vec<f64>| if v.is_empty() { 0.0 } else { median(v.clone()) };
        out.layer.insert(ROUTE_MS[r], p50(&route_lat[r]));
        out.layer.insert(DISPATCH_MS[r], p50(&dispatch[r]));
        out.lines.push(format!(
            "  {:<7} client p50 {:.4} ms (n = {}), direct dispatch p50 {:.4} ms (n = {})",
            ROUTES[r],
            p50(&route_lat[r]),
            route_lat[r].len(),
            p50(&dispatch[r]),
            dispatch[r].len()
        ));
    }
    out.layer.insert("daemon.body_parse_ms", median(parse_ms));
    out.layer
        .insert("daemon.transport_ms", client_mean - dispatch_mean);
    out.layer.insert("daemon.server_requests", requests);
    out.layer.insert("daemon.server_errors", errors);
    out.layer
        .insert("trace.overhead_share", 1.0 - traced / untraced);
    out.lines.push(format!(
        "traced loop {traced:.1} req/s vs {untraced:.1} untraced; mean request {client_mean:.4} ms \
         over loopback vs {dispatch_mean:.4} ms dispatched directly"
    ));
}
