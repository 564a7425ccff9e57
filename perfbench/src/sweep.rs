//! `kernel-sweep`: the compiled kernel alone with default
//! `ExecOptions` — narrow calls on the zoo shapes (latency) and wide
//! calls on the encoder shapes (throughput), on both sides of the
//! 64-column narrow/wide line. Nothing is simulated while timing; the
//! simulator sees each swept shape only afterwards, for `sim_tflops`
//! and its property checks.

use std::collections::HashMap;
use std::time::Instant;

use crate::adapter::{self, CompiledKernel, JigsawConfig, JigsawSpmm, Matrix};
use crate::common::{self, median, secs, Csr, Metrics, Outcome};
use crate::Args;

const NARROW: [usize; 4] = [8, 16, 32, 64];
const WIDE: usize = 256;
/// Encoder weight shapes (rows, cols) for the wide calls.
const ENCODER: [(usize, usize); 3] = [(1024, 1024), (4096, 1024), (1024, 4096)];
const INPUTS: usize = 2;
/// Back-to-back calls per narrow (shape, N) in one round.
const NARROW_REPS: usize = 4;
const SETUPS: usize = 5;

struct Shape {
    weights: Matrix,
    cfg: JigsawConfig,
    csr: Csr,
    widths: Vec<usize>,
    /// Per width: inputs with exact references.
    inputs: Vec<Vec<(Matrix, Vec<f32>)>>,
}

pub fn run(args: &Args) -> Outcome {
    let mut shapes: Vec<Shape> = adapter::zoo_default(args.seed)
        .iter()
        .map(|z| (z.weights(), z.config, NARROW.to_vec()))
        .chain(ENCODER.iter().enumerate().map(|(i, &(r, c))| {
            let seed = args.seed.wrapping_mul(131).wrapping_add(i as u64 + 7);
            (
                adapter::smallint_weights(r, c, 0.9, 8, seed),
                JigsawConfig::v4(32),
                vec![WIDE],
            )
        }))
        .map(|(weights, cfg, widths)| Shape {
            csr: Csr::from_matrix(&weights),
            weights,
            cfg,
            widths,
            inputs: Vec::new(),
        })
        .collect();
    for (si, s) in shapes.iter_mut().enumerate() {
        s.inputs = s
            .widths
            .iter()
            .map(|&n| {
                (0..INPUTS)
                    .map(|p| {
                        let seed = args.seed ^ ((si * 4096 + n * 4 + p) as u64) << 24;
                        let b = adapter::smallint_rhs(s.csr.cols, n, seed);
                        let want = common::exact_product(&s.csr, &b);
                        (b, want)
                    })
                    .collect()
            })
            .collect();
    }
    let spec = adapter::device();

    // Set-up: plan and compile every swept shape.
    let mut setup_times = Vec::new();
    let (mut plan_ms, mut compile_ms) = (0.0, 0.0);
    let mut built: Vec<(JigsawSpmm, CompiledKernel)> = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (mut p_ms, mut c_ms) = (0.0, 0.0);
        built = shapes
            .iter()
            .map(|s| {
                let t = Instant::now();
                let spmm = adapter::plan(&s.weights, s.cfg);
                p_ms += secs(t) * 1e3;
                let t = Instant::now();
                let kernel = adapter::compile(&spmm);
                c_ms += secs(t) * 1e3;
                (spmm, kernel)
            })
            .collect();
        setup_times.push(secs(t));
        (plan_ms, compile_ms) = (p_ms, c_ms);
    }

    let pool = adapter::WorkspacePool::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // One call, checked against its exact reference; returns seconds.
    let mut call = |si: usize, wi: usize, p: usize| -> f64 {
        let (b, want) = &shapes[si].inputs[wi][p];
        let t = Instant::now();
        let c = adapter::execute(&built[si].1, b, &pool);
        let s = secs(t);
        attempted += 1;
        if !common::same(&c, want) {
            eprintln!("kernel output differs from the exact reference");
            failed += 1;
        }
        s
    };
    // Warm-up: every (shape, N) once, so the pool holds the widest shape.
    for (si, s) in shapes.iter().enumerate() {
        for wi in 0..s.widths.len() {
            call(si, wi, 0);
        }
    }
    let misses_warm = adapter::pool_misses(&pool);

    // Narrow call times per (shape, N) point, untraced and traced. The
    // points' costs differ by 20x, so a median over all calls would sit
    // between modes; each point gets its own percentiles instead.
    let points = shapes.iter().map(|s| s.widths.len()).sum::<usize>();
    let (mut narrow_ms, mut narrow_traced_ms) =
        (vec![Vec::new(); points], vec![Vec::new(); points]);
    let start = Instant::now();
    let (mut wide_s, mut wide_flops, mut wide_bytes) = (0.0, 0.0, 0.0);
    let mut round = 0;
    while secs(start) < args.seconds {
        let tracing = args.trace && secs(start) >= args.seconds / 2.0;
        adapter::set_tracing(tracing);
        let mut point = 0;
        for si in 0..shapes.len() {
            for (wi, &n) in shapes[si].widths.clone().iter().enumerate() {
                point += 1;
                let p = round % INPUTS;
                if n == WIDE {
                    wide_s += call(si, wi, p);
                    let w = &shapes[si].csr;
                    wide_flops += w.flops(n);
                    wide_bytes += (adapter::stream_bytes(&built[si].1)
                        + 2 * w.cols * n
                        + 4 * w.rows * n) as f64;
                } else {
                    for _ in 0..NARROW_REPS {
                        let ms = call(si, wi, p) * 1e3;
                        if tracing {
                            narrow_traced_ms[point - 1].push(ms);
                        } else {
                            narrow_ms[point - 1].push(ms);
                        }
                    }
                }
            }
        }
        round += 1;
    }
    adapter::set_tracing(false);
    let pool_misses = adapter::pool_misses(&pool) - misses_warm;

    // The simulator on every swept (shape, N), twice: the duration must
    // repeat exactly and respect the roofline bound.
    let (mut sim_flops, mut sim_cycles, mut sim_ms) = (0.0, 0.0, Vec::new());
    let mut seen: HashMap<(usize, usize), f64> = HashMap::new();
    for _ in 0..2 {
        for (si, s) in shapes.iter().enumerate() {
            for &n in &s.widths {
                let t = Instant::now();
                let stats = adapter::simulate(&built[si].0, n, &spec);
                sim_ms.push(secs(t) * 1e3);
                if let Some(v) = common::check_roofline(&stats, &s.csr, n, &spec) {
                    eprintln!("{v}");
                    failed += 1;
                }
                match seen.insert((si, n), stats.duration_cycles) {
                    Some(c) if c != stats.duration_cycles => {
                        eprintln!("simulating shape {si} at N={n} is not repeatable");
                        failed += 1;
                    }
                    Some(_) => {}
                    None => {
                        sim_flops += s.csr.flops(n);
                        sim_cycles += stats.duration_cycles;
                    }
                }
            }
        }
    }
    println!(
        "# kernel-sweep: attempted {attempted} completed {} failed {failed} ({round} rounds)",
        attempted - failed
    );

    // Mean over the narrow points of each point's median.
    let over_points = |samples: &[Vec<f64>], stat: fn(&[f64]) -> f64| {
        let narrow: Vec<f64> = samples
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stat(v))
            .collect();
        common::mean(&narrow)
    };
    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", common::setup_median(&setup_times), "s");
        m.put("latency_p50_ms", over_points(&narrow_ms, median), "ms");
        m.put("throughput_gflops", wide_flops / wide_s / 1e9, "GFLOP/s");
        m.put("peak_rss_mb", common::peak_rss_mb(), "MiB");
        m.put(
            "sim_tflops",
            sim_flops / (sim_cycles / adapter::clock_hz(&spec)) / 1e12,
            "TFLOP/s",
        );
        return Outcome {
            attempted,
            failed,
            metrics: m,
        };
    }
    let triad = common::triad_gbs();
    let bytes_per_s = wide_bytes / wide_s;
    m.layer("exec.narrow_us_p50", over_points(&narrow_ms, median) * 1e3);
    m.layer("exec.wide_gflops", wide_flops / wide_s / 1e9);
    m.layer("exec.bytes_per_s", bytes_per_s);
    m.layer("exec.roofline_frac", bytes_per_s / (triad * 1e9));
    m.layer("plan.ms_total", plan_ms);
    m.layer("compile.ms_total", compile_ms);
    m.layer("pool.misses_after_warmup", pool_misses as f64);
    m.layer("sim.simulate_ms_p50", median(&sim_ms));
    m.layer("sim.calls", sim_ms.len() as f64);
    m.layer("sim.distinct_shapes", seen.len() as f64);
    m.layer("sim.repeat_share", 0.5);
    m.layer(
        "sim.host_ns_per_cycle",
        sim_ms.iter().sum::<f64>() * 1e6 / (2.0 * sim_cycles),
    );
    m.layer("sim.cycles_total", 2.0 * sim_cycles);
    m.layer("host.triad_gbs", triad);
    m.layer(
        "obs.overhead_p50_ms",
        over_points(&narrow_traced_ms, median) - over_points(&narrow_ms, median),
    );
    if pool_misses > 0 {
        eprintln!("kernel workspace pool kept missing after warm-up: {pool_misses}");
        failed += 1;
    }
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
