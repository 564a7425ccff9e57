//! `forward-wide`: `Session::forward` back to back over a three-layer
//! encoder chain at the paper's shapes. The traced run replays the
//! passes layer by layer through plan, compile, the compiled kernel and
//! the simulator.

use std::collections::HashMap;
use std::time::Instant;

use crate::adapter::{self, JigsawConfig, Matrix};
use crate::common::{self, median, secs, Csr, Metrics, Outcome};
use crate::Args;

/// (name, rows, cols): 1024 → 1024 → 4096 → 1024.
const LAYERS: [(&str, usize, usize); 3] = [
    ("attn-out", 1024, 1024),
    ("ffn-up", 4096, 1024),
    ("ffn-down", 1024, 4096),
];
const SPARSITY: f64 = 0.9;
const V: usize = 8;
const N: usize = 256;
const INPUTS: usize = 2;
const SETUPS: usize = 5;
/// Passes the traced run replays layer by layer.
const REPLAY_PASSES: usize = 4;

fn config() -> JigsawConfig {
    JigsawConfig::v4(32)
}

/// A pass's reference output and its error bound, elementwise.
struct Reference {
    x: Matrix,
    want: Vec<f64>,
    bound: Vec<f64>,
}

/// f64 reference that rounds through f16 between layers, as the
/// method specifies, plus a forward error bound: each layer may differ
/// from it by its input's propagated difference, the kernel's f32
/// accumulation error and one f16 rounding on each side.
fn reference(layers: &[Csr], x: &Matrix) -> Reference {
    let eps16 = 2f64.powi(-11);
    let eps32 = 2f64.powi(-24);
    let mut act = common::to_f64(x);
    let mut err = vec![0.0f64; act.len()];
    for w in layers {
        let exact = w.mul(&act, N, false);
        let abs_act: Vec<f64> = act.iter().zip(&err).map(|(a, e)| a.abs() + e).collect();
        let magnitude = w.mul(&abs_act, N, true);
        let carried = w.mul(&err, N, true);
        let acc = w.max_row_nnz() as f64 * eps32;
        act = exact
            .iter()
            .map(|&v| adapter::round_f16(v as f32) as f64)
            .collect();
        err = (0..act.len())
            .map(|i| {
                (carried[i] + acc * magnitude[i]) * (1.0 + eps16)
                    + eps16 * (act[i].abs() + exact[i].abs())
                    + 2f64.powi(-24)
            })
            .collect();
    }
    assert!(act.iter().all(|v| v.is_finite()), "activations stay finite");
    Reference {
        x: x.clone(),
        want: act,
        bound: err.into_iter().map(|e| e * 1.05).collect(),
    }
}

fn matches(got: &Matrix, r: &Reference) -> bool {
    got.data.len() == r.want.len()
        && got
            .data
            .iter()
            .zip(r.want.iter().zip(&r.bound))
            .all(|(&g, (&w, &b))| (adapter::f16_to_f32(g) as f64 - w).abs() <= b)
}

pub fn run(args: &Args) -> Outcome {
    let weights: Vec<(String, Matrix)> = LAYERS
        .iter()
        .enumerate()
        .map(|(i, &(name, rows, cols))| {
            let seed = args.seed.wrapping_mul(31).wrapping_add(i as u64 + 1);
            (
                name.to_string(),
                adapter::uniform_weights(rows, cols, SPARSITY, V, seed),
            )
        })
        .collect();
    let csrs: Vec<Csr> = weights.iter().map(|(_, w)| Csr::from_matrix(w)).collect();
    let refs: Vec<Reference> = (0..INPUTS)
        .map(|j| {
            let x = adapter::uniform_rhs(LAYERS[0].2, N, args.seed ^ (0xF0 + j as u64) << 32);
            reference(&csrs, &x)
        })
        .collect();
    let pass_flops: f64 = csrs.iter().map(|w| w.flops(N)).sum();
    let spec = adapter::device();

    let (mut attempted, mut failed) = (0u64, 0u64);
    let check = |out: &Matrix, r: &Reference, attempted: &mut u64, failed: &mut u64| {
        *attempted += 1;
        if !matches(out, r) {
            eprintln!("forward pass output outside the reference bound");
            *failed += 1;
        }
    };

    // Set-up: plan every layer, then one pass compiles the kernels and
    // warms the workspace pool.
    let mut setup_times = Vec::new();
    let mut session = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut s = adapter::session(&weights, config());
        let (out, _) = adapter::forward(&mut s, &refs[0].x);
        setup_times.push(secs(t));
        check(&out, &refs[0], &mut attempted, &mut failed);
        session = Some(s);
    }
    let mut session = session.expect("set up at least once");
    let misses_warm = adapter::session_pool_misses(&session);

    // Passes back to back; the traced run turns spans on halfway.
    let start = Instant::now();
    let mut pass_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut cycles = 0.0;
    let mut sim_seen: HashMap<usize, f64> = HashMap::new();
    let mut i = 0;
    while secs(start) < args.seconds {
        let tracing = args.trace && secs(start) >= args.seconds / 2.0;
        adapter::set_tracing(tracing);
        let r = &refs[i % INPUTS];
        let t = Instant::now();
        let (out, stats) = adapter::forward(&mut session, &r.x);
        let ms = secs(t) * 1e3;
        if tracing {
            traced_ms.push(ms);
        } else {
            pass_ms.push(ms);
        }
        check(&out, r, &mut attempted, &mut failed);
        for (l, k) in stats.iter().enumerate() {
            cycles += k.duration_cycles;
            if sim_seen
                .insert(l, k.duration_cycles)
                .is_some_and(|c| c != k.duration_cycles)
            {
                eprintln!("layer {l} simulated to different cycles on two passes");
                failed += 1;
            }
            if let Some(v) = common::check_roofline(k, &csrs[l], N, &spec) {
                eprintln!("{v}");
                failed += 1;
            }
        }
        i += 1;
    }
    adapter::set_tracing(false);
    let passes = (pass_ms.len() + traced_ms.len()) as f64;
    println!(
        "# forward-wide: attempted {attempted} completed {} failed {failed} ({passes} timed passes)",
        attempted - failed
    );

    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", common::setup_median(&setup_times), "s");
        m.put("latency_p50_ms", median(&pass_ms), "ms");
        m.put(
            "throughput_gflops",
            pass_flops * pass_ms.len() as f64 / pass_ms.iter().sum::<f64>() * 1e3 / 1e9,
            "GFLOP/s",
        );
        m.put("peak_rss_mb", common::peak_rss_mb(), "MiB");
        m.put(
            "sim_tflops",
            pass_flops * passes / (cycles / adapter::clock_hz(&spec)) / 1e12,
            "TFLOP/s",
        );
        return Outcome {
            attempted,
            failed,
            metrics: m,
        };
    }

    // Replay: plan and compile each layer, then run the passes layer
    // by layer through the compiled kernel and the simulator.
    let (mut plan_ms, mut compile_ms) = (0.0, 0.0);
    let mut layers = Vec::new();
    for (_, w) in &weights {
        let t = Instant::now();
        let spmm = adapter::plan(w, config());
        plan_ms += secs(t) * 1e3;
        let t = Instant::now();
        let kernel = adapter::compile(&spmm);
        compile_ms += secs(t) * 1e3;
        layers.push((spmm, kernel));
    }
    let pool = adapter::WorkspacePool::new();
    let (mut exec_s, mut sim_ms, mut replay_pass_ms, mut bytes) =
        (0.0, Vec::new(), Vec::new(), 0.0);
    let (mut sim_cycles, mut sim_ns) = (0.0, 0.0);
    for p in 0..REPLAY_PASSES {
        let r = &refs[p % INPUTS];
        let mut x = r.x.clone();
        let mut pass = 0.0;
        for (l, (spmm, kernel)) in layers.iter().enumerate() {
            let t = Instant::now();
            let c = adapter::execute(kernel, &x, &pool);
            let e = secs(t);
            let t = Instant::now();
            let stats = adapter::simulate(spmm, N, &spec);
            let s = secs(t);
            exec_s += e;
            sim_ms.push(s * 1e3);
            sim_ns += s * 1e9;
            sim_cycles += stats.duration_cycles;
            pass += e + s;
            let w = &csrs[l];
            bytes += (adapter::stream_bytes(kernel) + 2 * w.cols * N + 4 * w.rows * N) as f64;
            if sim_seen.get(&l) != Some(&stats.duration_cycles) {
                eprintln!("replayed layer {l} simulated to different cycles than the session");
                failed += 1;
            }
            x = adapter::to_f16_matrix(w.rows, N, &c);
        }
        if !matches(&x, r) {
            eprintln!("replayed pass output outside the reference bound");
            failed += 1;
        }
        replay_pass_ms.push(pass * 1e3);
    }
    let triad = common::triad_gbs();
    let calls = sim_ms.len() as f64;
    let bytes_per_s = bytes / exec_s;
    m.layer(
        "exec.wide_gflops",
        pass_flops * REPLAY_PASSES as f64 / exec_s / 1e9,
    );
    m.layer("exec.bytes_per_s", bytes_per_s);
    m.layer("exec.roofline_frac", bytes_per_s / (triad * 1e9));
    m.layer("plan.ms_total", plan_ms);
    m.layer("compile.ms_total", compile_ms);
    m.layer(
        "session.overhead_ms_p50",
        median(&pass_ms) - median(&replay_pass_ms),
    );
    m.layer(
        "pool.misses_after_warmup",
        (adapter::session_pool_misses(&session) - misses_warm) as f64,
    );
    m.layer("sim.simulate_ms_p50", median(&sim_ms));
    m.layer("sim.share", sim_ns / 1e9 / (sim_ns / 1e9 + exec_s));
    m.layer("sim.calls", calls);
    m.layer("sim.distinct_shapes", LAYERS.len() as f64);
    m.layer("sim.repeat_share", (calls - LAYERS.len() as f64) / calls);
    m.layer("sim.host_ns_per_cycle", sim_ns / sim_cycles);
    m.layer("sim.cycles_total", sim_cycles);
    m.layer("host.triad_gbs", triad);
    m.layer("obs.overhead_p50_ms", median(&traced_ms) - median(&pass_ms));
    m.layer(
        "trace.closure_ratio",
        median(&replay_pass_ms) / median(&pass_ms),
    );
    if adapter::session_pool_misses(&session) > misses_warm {
        eprintln!("session workspace pool kept missing after warm-up");
        failed += 1;
    }
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
