//! The benchmark's only door into the program: every call into the
//! jigsaw crates goes through this module, so an API change (such as
//! collapsing the `execute*` entry points) has one file to follow.
//! Timing, checking and reporting live elsewhere and see only these
//! functions and the re-exported types.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use jigsaw::core::Session;
use jigsaw::data::{dense_rhs, ValueDist, VectorSparseSpec};
use jigsaw::serve::PlannedModel;
use jigsaw::serve::{
    concat_columns, default_zoo, generate_zipf_schedule, scaled_zoo, split_columns, ModelRegistry,
    RegistryConfig, ReplicationConfig, ServeConfig, Server, ShardConfig, ShardRouter, StealConfig,
    ZipfLoadSpec,
};
use jigsaw::sptc::f16::F16;
use jigsaw::PoolBuf;

pub use jigsaw::data::Matrix;
pub use jigsaw::obs::SpanRecord;
pub use jigsaw::serve::{ServeMetrics, SpmmResponse, Ticket, ZooModel};
pub use jigsaw::sim::{GpuSpec, KernelStats};
pub use jigsaw::{CompiledKernel, JigsawConfig, JigsawSpmm, WorkspacePool};

/// The environment variables that change what the program executes
/// (forced kernel, tuning calibration, cache-on simulation).
pub const STEERING_ENV: [&str; 3] = ["JIGSAW_KERNEL", "JIGSAW_TUNE", "JIGSAW_SIM_CACHES"];

/// The simulated device every workload models.
pub fn device() -> GpuSpec {
    GpuSpec::a100()
}

/// Peak useful flops per simulated cycle: the fastest tensor or CUDA
/// core instruction the device model issues, on every scheduler.
pub fn peak_flops_per_cycle(spec: &GpuSpec) -> f64 {
    let per_sched = [
        2.0 * 16.0 * 8.0 * 32.0 / spec.mma_sp_m16n8k32_interval as f64,
        2.0 * 16.0 * 8.0 * 16.0 / spec.mma_sp_m16n8k16_interval as f64,
        2.0 * 16.0 * 8.0 * 16.0 / spec.mma_m16n8k16_interval as f64,
        2.0 * 8.0 * 8.0 * 16.0 / spec.mma_m8n8k16_interval as f64,
        2.0 * spec.cuda_fp16_fma_per_cycle_per_scheduler as f64,
    ]
    .into_iter()
    .fold(0.0, f64::max);
    per_sched * (spec.num_sms * spec.schedulers_per_sm) as f64
}

/// Modelled DRAM bytes per cycle and clock, for the roofline bound.
pub fn dram_bytes_per_cycle(spec: &GpuSpec) -> f64 {
    spec.dram_bytes_per_cycle
}

/// Modelled clock, Hz.
pub fn clock_hz(spec: &GpuSpec) -> f64 {
    spec.clock_ghz * 1e9
}

/// The microkernel that default `ExecOptions` select on this host.
pub fn auto_kernel() -> &'static str {
    jigsaw::core::compiled::dispatch::selected_kind(&jigsaw::ExecOptions::default()).name()
}

/// Names of every microkernel variant this host can run.
pub fn available_kernels() -> Vec<&'static str> {
    jigsaw::core::compiled::dispatch::available_kernels()
        .into_iter()
        .map(|k| k.name())
        .collect()
}

pub fn set_tracing(on: bool) {
    jigsaw::obs::set_enabled(on);
}

pub fn f16_to_f32(v: F16) -> f32 {
    v.to_f32()
}

pub fn round_f16(v: f32) -> f32 {
    F16::from_f32(v).to_f32()
}

/// Vector-sparse weights with small nonzero integers (exact products).
pub fn smallint_weights(rows: usize, cols: usize, sparsity: f64, v: usize, seed: u64) -> Matrix {
    VectorSparseSpec {
        rows,
        cols,
        sparsity,
        v,
        dist: ValueDist::SmallInt,
        seed,
    }
    .generate()
}

/// Vector-sparse weights with uniform reals in [-1, 1].
pub fn uniform_weights(rows: usize, cols: usize, sparsity: f64, v: usize, seed: u64) -> Matrix {
    VectorSparseSpec {
        rows,
        cols,
        sparsity,
        v,
        dist: ValueDist::Uniform,
        seed,
    }
    .generate()
}

/// Dense right-hand side with small nonzero integers.
pub fn smallint_rhs(k: usize, n: usize, seed: u64) -> Matrix {
    dense_rhs(k, n, ValueDist::SmallInt, seed)
}

/// Dense right-hand side with uniform reals in [-1, 1].
pub fn uniform_rhs(k: usize, n: usize, seed: u64) -> Matrix {
    dense_rhs(k, n, ValueDist::Uniform, seed)
}

pub fn zoo_default(seed: u64) -> Vec<ZooModel> {
    default_zoo(seed)
}

pub fn zoo_scaled(count: usize, seed: u64) -> Vec<ZooModel> {
    scaled_zoo(count, seed)
}

/// A zipf schedule over `zoo`: `(zoo index, width, arrival)` with unit
/// mean inter-arrival gap.
pub fn zipf_schedule(
    zoo: &[ZooModel],
    requests: usize,
    seed: u64,
    exponent: f64,
    widths: &[usize],
) -> Vec<(usize, usize, f64)> {
    let spec = ZipfLoadSpec {
        requests,
        seed,
        exponent,
        n_choices: widths.to_vec(),
        mean_gap_cycles: 1.0,
        ..ZipfLoadSpec::default()
    };
    generate_zipf_schedule(zoo, &spec)
        .into_iter()
        .map(|z| {
            let idx = zoo
                .iter()
                .position(|m| m.name == z.req.model)
                .expect("schedule names a zoo model");
            (idx, z.req.n, z.req.arrival_cycle)
        })
        .collect()
}

/// The serving front end a workload drives: one threaded server, or a
/// shard router over several.
pub enum Front {
    Single(Box<Server>),
    Sharded(Box<ShardRouter>),
}

/// Serving policy shared by both fronts: one worker per server stack,
/// the stock batch window and width cap.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

/// A one-worker server over a fresh registry holding `models`, every
/// model planned and compiled before it returns.
pub fn start_server(models: Vec<(String, Matrix, JigsawConfig)>) -> Front {
    let registry =
        Arc::new(ModelRegistry::new(RegistryConfig::default()).expect("no artifact dir"));
    for (name, w, cfg) in models {
        registry.register(&name, w, cfg);
    }
    registry.warm_all().expect("zoo models plan");
    Front::Single(Box::new(Server::start(registry, serve_config())))
}

/// A router over `shards` one-worker servers sharing `artifact_dir`,
/// each registry bounded by `budget_bytes`, with hot-model replication
/// and queue-depth forwarding on.
pub fn start_router(
    shards: usize,
    budget_bytes: usize,
    artifact_dir: PathBuf,
    models: Vec<(String, Matrix, JigsawConfig)>,
) -> Front {
    let cfg = ShardConfig::new(shards)
        .with_replication(ReplicationConfig::host_ns(32, shards, 500_000_000))
        .with_steal(StealConfig::threshold(8));
    let reg = RegistryConfig {
        budget_bytes,
        artifact_dir: Some(artifact_dir),
        ..RegistryConfig::default()
    };
    let router = ShardRouter::start(cfg, reg, serve_config());
    for (name, w, c) in models {
        router.register(&name, w, c);
    }
    Front::Sharded(Box::new(router))
}

/// Router counters the benchmark reports.
#[derive(Clone, Debug, Default)]
pub struct RouterCounts {
    pub forwarded: u64,
    pub promotions: u64,
    pub demotions: u64,
    pub completed_per_shard: Vec<u64>,
}

impl Front {
    pub fn submit(&self, model: &str, b: Matrix) -> Result<Ticket, String> {
        match self {
            Front::Single(s) => s.submit(model, b),
            Front::Sharded(r) => r.submit(model, b),
        }
        .map_err(|e| e.to_string())
    }

    /// Serving metrics summed over every server stack.
    pub fn metrics(&self) -> Vec<ServeMetrics> {
        match self {
            Front::Single(s) => vec![s.metrics()],
            Front::Sharded(r) => r.metrics().per_shard,
        }
    }

    pub fn router_counts(&self) -> Option<RouterCounts> {
        match self {
            Front::Single(_) => None,
            Front::Sharded(r) => {
                let m = r.metrics();
                Some(RouterCounts {
                    forwarded: m.forwarded,
                    promotions: m.promotions,
                    demotions: m.demotions,
                    completed_per_shard: m.per_shard.iter().map(|s| s.completed).collect(),
                })
            }
        }
    }

    /// Workspace-pool misses so far (the single server exposes its pool;
    /// the router does not).
    pub fn pool_misses(&self) -> Option<u64> {
        match self {
            Front::Single(s) => Some(s.pool_stats().misses),
            Front::Sharded(_) => None,
        }
    }

    pub fn home_shard(&self, model: &str) -> usize {
        match self {
            Front::Single(_) => 0,
            Front::Sharded(r) => r.home_shard(model),
        }
    }

    pub fn shutdown(self) -> Vec<ServeMetrics> {
        match self {
            Front::Single(s) => vec![s.shutdown()],
            Front::Sharded(r) => r.shutdown().per_shard,
        }
    }
}

pub fn conserves(m: &ServeMetrics) -> bool {
    m.conserves()
}

pub fn ticket_wait(t: &Ticket, dur: Duration) -> Option<Result<SpmmResponse, String>> {
    t.wait_timeout(dur).map(|r| r.map_err(|e| e.to_string()))
}

/// A registry for replaying recorded batches outside the server.
pub struct Replay {
    registry: ModelRegistry,
    pub pool: WorkspacePool,
}

impl Replay {
    pub fn new(budget_bytes: usize, artifact_dir: Option<PathBuf>) -> Replay {
        let cfg = RegistryConfig {
            budget_bytes,
            artifact_dir,
            ..RegistryConfig::default()
        };
        Replay {
            registry: ModelRegistry::new(cfg).expect("replay artifact dir"),
            pool: WorkspacePool::new(),
        }
    }

    pub fn register(&self, name: &str, w: Matrix, cfg: JigsawConfig) {
        self.registry.register(name, w, cfg);
    }

    /// `ModelRegistry::fetch`; the flag is true for a cold fetch.
    pub fn fetch(&self, name: &str) -> (Arc<PlannedModel>, bool) {
        let (m, f) = self.registry.fetch(name).expect("replayed model fetches");
        (m, f.is_cold())
    }

    pub fn evictions(&self) -> u64 {
        self.registry.stats().evictions
    }
}

pub fn concat(parts: &[&Matrix]) -> Matrix {
    concat_columns(parts).expect("recorded batch concatenates")
}

pub fn execute_batch<'p>(
    model: &PlannedModel,
    parts: &[&Matrix],
    pool: &'p WorkspacePool,
) -> PoolBuf<'p> {
    model
        .execute_batch_pooled(parts, pool)
        .expect("recorded batch executes")
        .0
}

pub fn simulate_model(model: &PlannedModel, n: usize, spec: &GpuSpec) -> KernelStats {
    model.simulate(n, spec)
}

pub fn split(c: &[f32], m: usize, widths: &[usize]) -> Vec<Vec<f32>> {
    split_columns(c, m, widths).expect("recorded batch splits")
}

pub fn plan(w: &Matrix, cfg: JigsawConfig) -> JigsawSpmm {
    JigsawSpmm::plan(w, cfg).expect("benchmark shapes plan")
}

pub fn compile(spmm: &JigsawSpmm) -> CompiledKernel {
    CompiledKernel::compile(&spmm.format)
}

pub fn stream_bytes(k: &CompiledKernel) -> usize {
    k.stream_bytes()
}

/// One kernel call with default `ExecOptions`, buffers from `pool`.
pub fn execute<'p>(k: &CompiledKernel, b: &Matrix, pool: &'p WorkspacePool) -> PoolBuf<'p> {
    k.execute_pooled(b, pool)
}

pub fn simulate(spmm: &JigsawSpmm, n: usize, spec: &GpuSpec) -> KernelStats {
    spmm.simulate(n, spec)
}

pub fn pool_misses(pool: &WorkspacePool) -> u64 {
    pool.stats().misses
}

/// A session with one planned layer per weight matrix, in order.
pub fn session(layers: &[(String, Matrix)], cfg: JigsawConfig) -> Session {
    let mut s = Session::new(device());
    for (name, w) in layers {
        s.add_layer(name, w, cfg).expect("encoder layers chain");
    }
    s
}

/// One forward pass: the output activations and each layer's
/// simulated kernel.
pub fn forward(s: &mut Session, x: &Matrix) -> (Matrix, Vec<KernelStats>) {
    let (out, report) = s.forward(x).expect("input matches the first layer");
    (out, report.layers.into_iter().map(|(_, k)| k).collect())
}

/// Activations rounded through f16, as `Session::forward` passes them
/// between layers.
pub fn to_f16_matrix(rows: usize, cols: usize, c: &[f32]) -> Matrix {
    Matrix::from_f32(rows, cols, c)
}

pub fn session_pool_misses(s: &Session) -> u64 {
    s.pool_stats().misses
}

/// Serialized artifact size of a planned matrix (the registry's
/// cache-accounting unit).
pub fn artifact_bytes(w: &Matrix, cfg: JigsawConfig) -> usize {
    jigsaw::core::serialize::to_bytes(&plan(w, cfg).format).len()
}

/// A span attribute as text (strings unquoted).
pub fn attr_text(rec: &SpanRecord, key: &str) -> Option<String> {
    use jigsaw::obs::AttrValue;
    rec.attr(key).map(|v| match v {
        AttrValue::Str(s) => s.clone(),
        AttrValue::Bool(b) => b.to_string(),
        AttrValue::Int(i) => i.to_string(),
        AttrValue::UInt(u) => u.to_string(),
        AttrValue::Float(f) => f.to_string(),
    })
}
