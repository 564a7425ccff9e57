//! `serve-zipf` and `router-churn`: a zipf request mix driven through
//! the threaded serving front end, first open-loop at a fixed rate
//! (latency), then as a closed window that saturates the workers
//! (throughput). The traced run records the request spans and replays
//! every recorded batch through the layers' public functions.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::adapter::{self, Front, JigsawConfig, Matrix, SpanRecord, Ticket, ZooModel};
use crate::common::{self, median, percentile, secs, Csr, Metrics, Outcome};
use crate::Args;

/// Request widths, as in the stock zipf load spec.
const WIDTHS: [usize; 3] = [8, 16, 32];
/// Distinct inputs (with precomputed references) per (model, width).
const INPUTS_PER_SHAPE: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Share of the run spent in the open-loop phase; the rest saturates.
const OPEN_SHARE: f64 = 0.7;
/// Outstanding requests in the saturating phase: enough that the
/// popular models' batches fill to the width cap, and no more than the
/// server's per-model queue cap of 64, so admission never refuses.
const CLOSED_WINDOW: usize = 64;
/// Longest the generator blocks on one ticket before it looks at the
/// others and at the schedule again.
const POLL: Duration = Duration::from_micros(200);
/// Idle time before each replayed batch. A served batch at the
/// open-loop rate starts on a worker that has idled for milliseconds;
/// replayed back to back, batches would run on warm caches and read
/// faster than they were served.
const REPLAY_GAP: Duration = Duration::from_millis(5);

pub struct Spec {
    pub name: &'static str,
    /// 0 serves through one `Server`; otherwise a `ShardRouter`.
    pub shards: usize,
    pub models: usize,
    pub exponent: f64,
    /// Open-loop arrival rate, requests per second.
    pub rate_hz: f64,
    /// Each shard registry's byte budget as a share of the zoo's total
    /// artifact bytes (router only).
    pub budget_share: f64,
}

pub const SERVE_ZIPF: Spec = Spec {
    name: "serve-zipf",
    shards: 0,
    models: 4,
    exponent: 1.0,
    rate_hz: 100.0,
    budget_share: 0.0,
};

pub const ROUTER_CHURN: Spec = Spec {
    name: "router-churn",
    shards: 2,
    models: 24,
    exponent: 1.0,
    rate_hz: 120.0,
    budget_share: 0.5,
};

struct Model {
    name: String,
    weights: Matrix,
    cfg: JigsawConfig,
    csr: Csr,
}

struct Input {
    b: Matrix,
    reference: Vec<f32>,
}

#[derive(Clone, Copy)]
struct Req {
    model: usize,
    n: usize,
    input: usize,
}

/// One observed completion.
struct Done {
    req: Req,
    phase: Phase,
    latency_s: f64,
    lag_s: f64,
    submit_s: f64,
    queue_ns: u64,
    device_cycles: f64,
    traced: bool,
    trace: Option<SpanRecord>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warm,
    Open,
    Closed,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn width_slot(n: usize) -> usize {
    WIDTHS.iter().position(|&w| w == n).expect("schedule width")
}

struct Bench<'a> {
    spec: &'a Spec,
    models: Vec<Model>,
    inputs: Vec<Vec<Vec<Input>>>,
    failed: u64,
    attempted: u64,
    completed: u64,
    done: Vec<Done>,
    tracing: bool,
}

impl Bench<'_> {
    fn input(&self, r: Req) -> &Input {
        &self.inputs[r.model][width_slot(r.n)][r.input]
    }

    fn model_specs(&self) -> Vec<(String, Matrix, JigsawConfig)> {
        self.models
            .iter()
            .map(|m| (m.name.clone(), m.weights.clone(), m.cfg))
            .collect()
    }

    fn complete(
        &mut self,
        o: Outstanding,
        res: Result<adapter::SpmmResponse, String>,
        now: Instant,
    ) {
        let mut done = Done {
            req: o.req,
            phase: o.phase,
            latency_s: now.duration_since(o.due).as_secs_f64(),
            lag_s: o.lag_s,
            submit_s: o.submit_s,
            queue_ns: 0,
            device_cycles: 0.0,
            traced: o.traced,
            trace: None,
        };
        match res {
            Ok(resp) if common::same(&resp.c, &self.input(o.req).reference) => {
                done.queue_ns = resp.stats.queue_host_ns;
                done.device_cycles = resp.stats.device_cycles;
                done.trace = resp.trace;
                self.completed += 1;
                self.done.push(done);
            }
            Ok(_) => {
                eprintln!(
                    "wrong output for {} at N={}",
                    self.models[o.req.model].name, o.req.n
                );
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                self.failed += 1;
            }
        }
    }

    fn submit(
        &mut self,
        front: &Front,
        req: Req,
        due: Instant,
        phase: Phase,
        out: &mut Vec<Outstanding>,
    ) {
        self.attempted += 1;
        let b = self.input(req).b.clone();
        let traced = self.tracing;
        let t = Instant::now();
        let ticket = front.submit(&self.models[req.model].name, b);
        let submit_s = secs(t);
        match ticket {
            Ok(ticket) => out.push(Outstanding {
                req,
                ticket,
                due,
                phase,
                lag_s: t.saturating_duration_since(due).as_secs_f64(),
                submit_s,
                traced,
            }),
            Err(e) => {
                eprintln!("admission refused: {e}");
                self.failed += 1;
            }
        }
    }

    /// Waits up to `wait` on the oldest outstanding request, then
    /// collects every other one that has finished.
    fn collect(&mut self, out: &mut Vec<Outstanding>, wait: Duration) {
        if out.is_empty() {
            std::thread::sleep(wait);
            return;
        }
        if let Some(res) = adapter::ticket_wait(&out[0].ticket, wait) {
            let o = out.remove(0);
            self.complete(o, res, Instant::now());
        }
        let mut i = 0;
        while i < out.len() {
            if let Some(res) = adapter::ticket_wait(&out[i].ticket, Duration::ZERO) {
                let o = out.remove(i);
                self.complete(o, res, Instant::now());
            } else {
                i += 1;
            }
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        adapter::set_tracing(on);
    }

    fn drain(&mut self, out: &mut Vec<Outstanding>) {
        while !out.is_empty() {
            self.collect(out, POLL);
        }
    }
}

struct Outstanding {
    req: Req,
    ticket: Ticket,
    due: Instant,
    phase: Phase,
    lag_s: f64,
    submit_s: f64,
    traced: bool,
}

/// Working directory for artifacts, inside the checkout.
fn work_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".perfbench_work").join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir in the checkout");
    dir
}

fn zoo(spec: &Spec, seed: u64) -> Vec<ZooModel> {
    let zoo = if spec.shards == 0 {
        adapter::zoo_default(seed)
    } else {
        adapter::zoo_scaled(spec.models, seed)
    };
    assert_eq!(zoo.len(), spec.models);
    zoo
}

/// The models of one zoo draw with the harness's own inputs and their
/// exact references.
fn load(spec: &Spec, seed: u64) -> (Vec<Model>, Vec<Vec<Vec<Input>>>) {
    let models: Vec<Model> = zoo(spec, seed)
        .iter()
        .map(|z| {
            let weights = z.weights();
            Model {
                name: z.name.clone(),
                csr: Csr::from_matrix(&weights),
                weights,
                cfg: z.config,
            }
        })
        .collect();
    let inputs = models
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            WIDTHS
                .iter()
                .map(|&n| {
                    (0..INPUTS_PER_SHAPE)
                        .map(|p| {
                            let s = splitmix(seed ^ ((mi * 1000 + n * 10 + p) as u64) << 20);
                            let b = adapter::smallint_rhs(m.csr.cols, n, s);
                            let reference = common::exact_product(&m.csr, &b);
                            Input { b, reference }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    (models, inputs)
}

pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let zoo = zoo(spec, args.seed);

    // Open-loop arrivals and the saturating phase's request stream come
    // from one zipf schedule. Its popularity ranking is a seeded shuffle
    // of the zoo; the benchmark maps rank r back onto zoo entry r, so
    // every seed serves the same mix of shapes (arrivals, widths,
    // weights and inputs still vary with the seed).
    let open_s = args.seconds * OPEN_SHARE;
    let closed_s = args.seconds - open_s;
    let open_count = (spec.rate_hz * open_s).ceil() as usize;
    let total = open_count + 60_000;
    let raw = adapter::zipf_schedule(&zoo, total, args.seed, spec.exponent, &WIDTHS);
    let mut freq = vec![0usize; zoo.len()];
    for &(i, _, _) in &raw {
        freq[i] += 1;
    }
    let mut by_rank: Vec<usize> = (0..zoo.len()).collect();
    by_rank.sort_by_key(|&i| (std::cmp::Reverse(freq[i]), i));
    let mut canonical = vec![0usize; zoo.len()];
    for (rank, &i) in by_rank.iter().enumerate() {
        canonical[i] = rank;
    }
    let schedule: Vec<(Req, f64)> = raw
        .iter()
        .enumerate()
        .map(|(id, &(i, n, at))| {
            let input =
                (splitmix(args.seed.wrapping_add(id as u64)) % INPUTS_PER_SHAPE as u64) as usize;
            (
                Req {
                    model: canonical[i],
                    n,
                    input,
                },
                at / spec.rate_hz,
            )
        })
        .collect();

    let mut bench = Bench {
        spec,
        models: Vec::new(),
        inputs: Vec::new(),
        failed: 0,
        attempted: 0,
        completed: 0,
        done: Vec::new(),
        tracing: false,
    };

    // Set-up: start the front end, plan/compile, and warm it with a
    // full-width burst per model (fills the workspace pools at the
    // widest batch shape and, for the router, writes every artifact).
    // Each set-up but the last, which serves the run, gets its own zoo
    // draw: planning cost depends on the drawn sparsity pattern, and a
    // median over draws does not hang on one of them.
    let mut setup_times = Vec::new();
    let mut front = None;
    let mut artifact_dir = PathBuf::new();
    let mut budget = 0;
    for i in 0..SETUPS {
        // One serving stack at a time, so VmHWM sees a single one.
        if let Some(old) = front.take() {
            finish(&mut bench, old);
            let _ = std::fs::remove_dir_all(&artifact_dir);
        }
        let seed = if i + 1 == SETUPS {
            args.seed
        } else {
            splitmix(args.seed ^ (i as u64 + 1) << 40)
        };
        (bench.models, bench.inputs) = load(spec, seed);
        if spec.shards > 0 {
            let bytes: usize = bench
                .models
                .iter()
                .map(|m| adapter::artifact_bytes(&m.weights, m.cfg))
                .sum();
            budget = (bytes as f64 * spec.budget_share) as usize;
        }
        let specs = bench.model_specs();
        artifact_dir = work_dir(&format!("setup{i}"));
        let t = Instant::now();
        let f = if spec.shards == 0 {
            adapter::start_server(specs)
        } else {
            adapter::start_router(spec.shards, budget, artifact_dir.clone(), specs)
        };
        warm(&mut bench, &f);
        setup_times.push(secs(t));
        front = Some(f);
    }
    let front = front.expect("set up at least once");
    // Set-up completions were checked; the metrics cover the run only
    // (and `bench.models` now holds the run's zoo, not the draws').
    bench.done.clear();
    let pool_misses_warm = front.pool_misses();
    let router_before = front.router_counts();

    // Phase 1: open loop at the fixed rate. The traced run records the
    // second half of it with spans on.
    let start = Instant::now() + Duration::from_millis(5);
    let trace_from = if args.trace {
        open_s / 2.0
    } else {
        f64::INFINITY
    };
    let mut out = Vec::new();
    let mut next = 0;
    while next < open_count || !out.is_empty() {
        let now = Instant::now();
        while next < open_count && start + Duration::from_secs_f64(schedule[next].1) <= now {
            let (req, at) = schedule[next];
            if at >= trace_from && !bench.tracing {
                bench.set_tracing(true);
            }
            bench.submit(
                &front,
                req,
                start + Duration::from_secs_f64(at),
                Phase::Open,
                &mut out,
            );
            next += 1;
        }
        let wait = if next < open_count {
            (start + Duration::from_secs_f64(schedule[next].1))
                .saturating_duration_since(Instant::now())
                .min(POLL)
        } else {
            POLL
        };
        bench.collect(&mut out, wait);
    }
    bench.set_tracing(false);
    let metrics_mid = front.metrics();

    // Phase 2: a closed window of outstanding requests.
    let closed_start = Instant::now();
    let mut cursor = open_count;
    while secs(closed_start) < closed_s {
        while out.len() < CLOSED_WINDOW {
            let req = schedule[cursor % schedule.len()].0;
            cursor += 1;
            bench.submit(&front, req, Instant::now(), Phase::Closed, &mut out);
        }
        bench.collect(&mut out, Duration::from_millis(1));
    }
    bench.drain(&mut out);
    let closed_elapsed = secs(closed_start);
    let metrics_end = front.metrics();
    let router_after = front.router_counts();
    let pool_misses_end = front.pool_misses();
    let home: HashMap<String, usize> = bench
        .models
        .iter()
        .map(|m| (m.name.clone(), front.home_shard(&m.name)))
        .collect();
    finish(&mut bench, front);

    let spec_dev = adapter::device();
    let open: Vec<&Done> = bench
        .done
        .iter()
        .filter(|d| d.phase == Phase::Open)
        .collect();
    let lat_ms: Vec<f64> = open
        .iter()
        .filter(|d| !d.traced)
        .map(|d| d.latency_s * 1e3)
        .collect();
    // Saturated throughput: every flop the closed phase completed over
    // its length. A mean, not a median of shorter windows: the host's
    // speed flips between states that last seconds, and a median jumps
    // with whichever state held the most windows.
    let closed_flops: f64 = bench
        .done
        .iter()
        .filter(|d| d.phase == Phase::Closed)
        .map(|d| bench.models[d.req.model].csr.flops(d.req.n))
        .sum();
    let all_flops: f64 = bench
        .done
        .iter()
        .map(|d| bench.models[d.req.model].csr.flops(d.req.n))
        .sum();
    let all_cycles: f64 = bench.done.iter().map(|d| d.device_cycles).sum();
    println!(
        "# {}: attempted {} completed {} failed {} (open-loop {} at {} req/s, closed window {})",
        spec.name,
        bench.attempted,
        bench.completed,
        bench.failed,
        open.len(),
        spec.rate_hz,
        CLOSED_WINDOW
    );

    println!(
        "# latency over {} open-loop requests: p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} ms",
        lat_ms.len(),
        percentile(&lat_ms, 50.0),
        percentile(&lat_ms, 90.0),
        percentile(&lat_ms, 95.0),
        percentile(&lat_ms, 99.0)
    );
    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", common::setup_median(&setup_times), "s");
        m.put("latency_p50_ms", percentile(&lat_ms, 50.0), "ms");
        m.put(
            "throughput_gflops",
            closed_flops / closed_elapsed / 1e9,
            "GFLOP/s",
        );
        m.put("peak_rss_mb", common::peak_rss_mb(), "MiB");
        m.put(
            "sim_tflops",
            all_flops / (all_cycles / adapter::clock_hz(&spec_dev)) / 1e12,
            "TFLOP/s",
        );
    } else {
        let layer = LayerInputs {
            open_s: open_s - trace_from,
            pool_misses: match (pool_misses_warm, pool_misses_end) {
                (Some(a), Some(b)) => b - a,
                _ => 0,
            },
            before: metrics_mid,
            after: metrics_end,
            router: router_before.zip(router_after),
            home,
            artifact_dir: artifact_dir.clone(),
            budget,
        };
        per_layer(&mut bench, &layer, &mut m);
    }
    let _ = std::fs::remove_dir_all(&artifact_dir);
    Outcome {
        attempted: bench.attempted,
        failed: bench.failed,
        metrics: m,
    }
}

/// Warm-up: two full-width batches per model, every response checked.
fn warm(bench: &mut Bench, front: &Front) {
    let mut out = Vec::new();
    for round in 0..2 {
        for model in 0..bench.models.len() {
            for i in 0..8 {
                let req = Req {
                    model,
                    n: 32,
                    input: (round + i) % INPUTS_PER_SHAPE,
                };
                bench.submit(front, req, Instant::now(), Phase::Warm, &mut out);
            }
            bench.drain(&mut out);
        }
    }
}

/// Shuts a front end down and checks request conservation on every
/// server stack (submitted = completed + failed + shed).
fn finish(bench: &mut Bench, front: Front) {
    for (shard, m) in front.shutdown().iter().enumerate() {
        if !adapter::conserves(m) {
            eprintln!(
                "shard {shard} breaks conservation: submitted {} completed {} failed {} shed {}",
                m.submitted, m.completed, m.failed, m.shed_expired
            );
            bench.failed += 1;
        }
    }
}

struct LayerInputs {
    open_s: f64,
    pool_misses: u64,
    before: Vec<adapter::ServeMetrics>,
    after: Vec<adapter::ServeMetrics>,
    router: Option<(adapter::RouterCounts, adapter::RouterCounts)>,
    home: HashMap<String, usize>,
    artifact_dir: PathBuf,
    budget: usize,
}

/// A batch recovered from the request traces.
struct Batch {
    model: usize,
    members: Vec<usize>,
    cycles: f64,
    wall_ns: u64,
    fetch: String,
    assemble_ns: u64,
}

fn per_layer(bench: &mut Bench, li: &LayerInputs, m: &mut Metrics) {
    let spec = adapter::device();

    // Batches: every traced member carries the same batch subtree.
    let mut batches: BTreeMap<(u64, usize), Batch> = BTreeMap::new();
    let traced: Vec<usize> = (0..bench.done.len())
        .filter(|&i| bench.done[i].traced && bench.done[i].phase == Phase::Open)
        .collect();
    for &i in &traced {
        let d = &bench.done[i];
        let rec = d.trace.as_ref().expect("traced request carries its trace");
        let b = rec.find("batch").expect("trace holds the batch subtree");
        let kernel = b.find("kernel").expect("batch has a kernel span");
        let assemble = b.find("assemble").expect("batch has an assemble span");
        let entry = batches
            .entry((b.start_ns, d.req.model))
            .or_insert_with(|| Batch {
                model: d.req.model,
                members: Vec::new(),
                cycles: kernel.cycles.unwrap_or(0.0),
                wall_ns: b.wall_ns,
                fetch: adapter::attr_text(assemble, "fetch").unwrap_or_default(),
                assemble_ns: assemble.wall_ns,
            });
        entry.members.push(i);
    }
    // A batch that straddles the untraced/traced boundary lacks the
    // inputs of its untraced members and is not replayed.
    let complete_batch = |b: &Batch, bench: &Bench| {
        let rec = bench.done[b.members[0]].trace.as_ref().expect("trace");
        let requests = rec
            .find("batch")
            .and_then(|r| adapter::attr_text(r, "requests"));
        requests == Some(b.members.len().to_string())
    };

    // Replay every complete batch through the public layer functions.
    let shards = bench.spec.shards.max(1);
    let replays: Vec<adapter::Replay> = (0..shards)
        .map(|_| {
            if bench.spec.shards == 0 {
                adapter::Replay::new(usize::MAX, None)
            } else {
                adapter::Replay::new(li.budget, Some(li.artifact_dir.clone()))
            }
        })
        .collect();
    for r in &replays {
        for (name, w, cfg) in bench.model_specs() {
            r.register(&name, w, cfg);
        }
    }
    if bench.spec.shards == 0 {
        for model in &bench.models {
            replays[0].fetch(&model.name);
        }
    }
    let mut fetch_warm_us = Vec::new();
    let mut concat_us = Vec::new();
    let mut exec_us = Vec::new();
    let mut sim_ms = Vec::new();
    let mut split_us = Vec::new();
    let mut service_s: HashMap<usize, f64> = HashMap::new();
    let mut sim_seen: HashMap<(usize, usize), f64> = HashMap::new();
    let (mut sim_ns_total, mut service_ns_total, mut cycles_total, mut repeats) =
        (0.0, 0.0, 0.0, 0usize);
    let mut busy_ns = 0u64;
    for b in batches.values() {
        // The served batch started on an idle worker; so does its replay.
        std::thread::sleep(REPLAY_GAP);
        busy_ns += b.wall_ns;
        if !complete_batch(b, bench) {
            continue;
        }
        let model = &bench.models[b.model];
        let reqs: Vec<Req> = b.members.iter().map(|&i| bench.done[i].req).collect();
        let parts: Vec<&Matrix> = reqs.iter().map(|&r| &bench.input(r).b).collect();
        let widths: Vec<usize> = reqs.iter().map(|r| r.n).collect();
        let total_n: usize = widths.iter().sum();
        let replay = &replays[li.home.get(&model.name).copied().unwrap_or(0) % shards];

        let t = Instant::now();
        let (planned, cold) = replay.fetch(&model.name);
        let fetch = secs(t);
        if !cold {
            fetch_warm_us.push(fetch * 1e6);
        }
        let t = Instant::now();
        let cat = adapter::concat(&parts);
        concat_us.push(secs(t) * 1e6);
        drop(cat);
        let t = Instant::now();
        let c = adapter::execute_batch(&planned, &parts, &replay.pool);
        let exec = secs(t);
        exec_us.push(exec * 1e6);
        let t = Instant::now();
        let stats = adapter::simulate_model(&planned, total_n, &spec);
        let sim = secs(t);
        sim_ms.push(sim * 1e3);
        let t = Instant::now();
        let outs = adapter::split(&c, model.csr.rows, &widths);
        let split = secs(t);
        split_us.push(split * 1e6);
        drop(c);

        for (r, o) in reqs.iter().zip(&outs) {
            if !common::same(o, &bench.input(*r).reference) {
                eprintln!("replayed batch of {} gave a wrong output", model.name);
                bench.failed += 1;
            }
        }
        if let Some(v) = common::check_roofline(&stats, &model.csr, total_n, &spec) {
            eprintln!("{v}");
            bench.failed += 1;
        }
        if stats.duration_cycles != b.cycles {
            eprintln!(
                "simulating {} at N={total_n} gave {} cycles, the served batch {}",
                model.name, stats.duration_cycles, b.cycles
            );
            bench.failed += 1;
        }
        match sim_seen.get(&(b.model, total_n)) {
            Some(&c) => {
                repeats += 1;
                if c != stats.duration_cycles {
                    eprintln!(
                        "simulation of {} at N={total_n} is not repeatable",
                        model.name
                    );
                    bench.failed += 1;
                }
            }
            None => {
                sim_seen.insert((b.model, total_n), stats.duration_cycles);
            }
        }
        let service = fetch + exec + sim + split;
        for &i in &b.members {
            service_s.insert(i, service);
        }
        sim_ns_total += sim * 1e9;
        service_ns_total += service * 1e9;
        cycles_total += stats.duration_cycles;
    }
    let replayed = sim_ms.len();

    // Plan and compile every model once more, timed from outside.
    let (mut plan_ms, mut compile_ms) = (0.0, 0.0);
    for model in &bench.models {
        let t = Instant::now();
        let spmm = adapter::plan(&model.weights, model.cfg);
        plan_ms += secs(t) * 1e3;
        let t = Instant::now();
        std::hint::black_box(adapter::compile(&spmm));
        compile_ms += secs(t) * 1e3;
    }

    let open: Vec<&Done> = bench
        .done
        .iter()
        .filter(|d| d.phase == Phase::Open)
        .collect();
    let untraced_ms: Vec<f64> = open
        .iter()
        .filter(|d| !d.traced)
        .map(|d| d.latency_s * 1e3)
        .collect();
    let traced_ms: Vec<f64> = open
        .iter()
        .filter(|d| d.traced)
        .map(|d| d.latency_s * 1e3)
        .collect();
    let queue_ms: Vec<f64> = traced
        .iter()
        .map(|&i| bench.done[i].queue_ns as f64 / 1e6)
        .collect();
    let (mut residual_ms, mut closure) = (Vec::new(), Vec::new());
    for &i in &traced {
        if let Some(&svc) = service_s.get(&i) {
            let d = &bench.done[i];
            let explained = d.lag_s + d.submit_s + d.queue_ns as f64 / 1e9 + svc;
            residual_ms.push((d.latency_s - explained) * 1e3);
            closure.push(explained / d.latency_s);
        }
    }
    let count = |f: &dyn Fn(&str) -> bool| batches.values().filter(|b| f(&b.fetch)).count() as f64;
    let cold_ms: Vec<f64> = batches
        .values()
        .filter(|b| !b.fetch.contains("hit"))
        .map(|b| b.assemble_ns as f64 / 1e6)
        .collect();
    let sum = |v: &[adapter::ServeMetrics], f: fn(&adapter::ServeMetrics) -> u64| -> f64 {
        v.iter().map(f).sum::<u64>() as f64
    };
    let d_batches = sum(&li.after, |s| s.batches) - sum(&li.before, |s| s.batches);
    let d_reqs =
        sum(&li.after, |s| s.batch_requests_total) - sum(&li.before, |s| s.batch_requests_total);
    let d_n = sum(&li.after, |s| s.batch_n_total) - sum(&li.before, |s| s.batch_n_total);
    let submit_us: Vec<f64> = open.iter().map(|d| d.submit_s * 1e6).collect();
    let triad = common::triad_gbs();

    m.layer(
        "loadgen.lag_p99_ms",
        percentile(
            &open.iter().map(|d| d.lag_s * 1e3).collect::<Vec<_>>(),
            99.0,
        ),
    );
    m.layer("server.queue_wait_ms_p50", percentile(&queue_ms, 50.0));
    m.layer("server.queue_wait_ms_p99", percentile(&queue_ms, 99.0));
    m.layer("server.batch_requests_mean", d_reqs / d_batches.max(1.0));
    m.layer("server.batch_n_mean", d_n / d_batches.max(1.0));
    m.layer(
        "server.busy_share",
        busy_ns as f64 / 1e9 / (li.open_s * shards as f64),
    );
    m.layer("server.residual_ms_p50", median(&residual_ms));
    m.layer("batch.assemble_us_p50", median(&concat_us));
    m.layer("batch.split_us_p50", median(&split_us));
    m.layer("registry.fetch_warm_us_p50", median(&fetch_warm_us));
    m.layer("registry.cold_fetches", count(&|f| !f.contains("hit")));
    m.layer("registry.disk_loads", count(&|f| f.contains("disk_load")));
    m.layer("registry.plans", count(&|f| f.contains("planned")));
    m.layer(
        "registry.evictions",
        replays.iter().map(|r| r.evictions()).sum::<u64>() as f64,
    );
    m.layer("registry.cold_ms_p50", median(&cold_ms));
    match &li.router {
        None => m.layer("server.submit_us_p50", median(&submit_us)),
        Some((a, b)) => {
            let per: Vec<f64> = b
                .completed_per_shard
                .iter()
                .zip(&a.completed_per_shard)
                .map(|(x, y)| (x - y) as f64)
                .collect();
            m.layer("router.submit_us_p50", median(&submit_us));
            m.layer("router.forwarded", (b.forwarded - a.forwarded) as f64);
            m.layer("router.promotions", (b.promotions - a.promotions) as f64);
            m.layer("router.demotions", (b.demotions - a.demotions) as f64);
            m.layer(
                "router.shard_imbalance",
                per.iter().cloned().fold(0.0, f64::max) / common::mean(&per).max(1.0),
            );
        }
    }
    m.layer("exec.batch_us_p50", median(&exec_us));
    m.layer("plan.ms_total", plan_ms);
    m.layer("compile.ms_total", compile_ms);
    m.layer("pool.misses_after_warmup", li.pool_misses as f64);
    m.layer("sim.simulate_ms_p50", median(&sim_ms));
    m.layer("sim.share", sim_ns_total / service_ns_total.max(1.0));
    m.layer("sim.calls", replayed as f64);
    m.layer("sim.distinct_shapes", sim_seen.len() as f64);
    m.layer(
        "sim.repeat_share",
        repeats as f64 / (replayed.max(1)) as f64,
    );
    m.layer(
        "sim.host_ns_per_cycle",
        sim_ns_total / cycles_total.max(1.0),
    );
    m.layer("sim.cycles_total", cycles_total);
    m.layer("host.triad_gbs", triad);
    m.layer(
        "obs.overhead_p50_ms",
        median(&traced_ms) - median(&untraced_ms),
    );
    m.layer("trace.closure_ratio", median(&closure));
    let open_ms: Vec<f64> = open.iter().map(|d| d.latency_s * 1e3).collect();
    m.layer("serve.latency_p99_ms", percentile(&open_ms, 99.0));
    if li.pool_misses > 0 {
        eprintln!(
            "workspace pool kept missing after warm-up: {}",
            li.pool_misses
        );
        bench.failed += 1;
    }
}
