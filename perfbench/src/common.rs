//! Measurement helpers shared by the workloads: percentiles, the result
//! line, host facts, the bandwidth probe, the independent dense
//! references and the simulator property checks.

use std::time::Instant;

use crate::adapter::{self, GpuSpec, KernelStats, Matrix};

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Median of a run's set-up times, printed with their range.
pub fn setup_median(times: &[f64]) -> f64 {
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(0.0, f64::max);
    println!(
        "# set-up: median {:.4} s of {} (min {min:.4}, max {max:.4})",
        median(times),
        times.len()
    );
    median(times)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Every per-layer metric of a traced run with its unit, in the order
/// of `per_layer` in BENCHMARK.json.
const PER_LAYER: [(&str, &str); 41] = [
    ("loadgen.lag_p99_ms", "ms"),
    ("server.submit_us_p50", "us"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.queue_wait_ms_p99", "ms"),
    ("server.batch_requests_mean", "requests"),
    ("server.batch_n_mean", "columns"),
    ("server.busy_share", "share"),
    ("server.residual_ms_p50", "ms"),
    ("batch.assemble_us_p50", "us"),
    ("batch.split_us_p50", "us"),
    ("registry.fetch_warm_us_p50", "us"),
    ("registry.cold_fetches", "count"),
    ("registry.disk_loads", "count"),
    ("registry.plans", "count"),
    ("registry.evictions", "count"),
    ("registry.cold_ms_p50", "ms"),
    ("router.submit_us_p50", "us"),
    ("router.forwarded", "count"),
    ("router.promotions", "count"),
    ("router.demotions", "count"),
    ("router.shard_imbalance", "ratio"),
    ("exec.narrow_us_p50", "us"),
    ("exec.wide_gflops", "GFLOP/s"),
    ("exec.batch_us_p50", "us"),
    ("exec.bytes_per_s", "B/s"),
    ("exec.roofline_frac", "share"),
    ("plan.ms_total", "ms"),
    ("compile.ms_total", "ms"),
    ("session.overhead_ms_p50", "ms"),
    ("pool.misses_after_warmup", "count"),
    ("sim.simulate_ms_p50", "ms"),
    ("sim.share", "share"),
    ("sim.calls", "count"),
    ("sim.distinct_shapes", "count"),
    ("sim.repeat_share", "share"),
    ("sim.host_ns_per_cycle", "ns/cycle"),
    ("sim.cycles_total", "cycles"),
    ("host.triad_gbs", "GB/s"),
    ("obs.overhead_p50_ms", "ms"),
    ("trace.closure_ratio", "ratio"),
    ("serve.latency_p99_ms", "ms"),
];

/// Metrics of one run, in print order, with their units.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    /// A per-layer metric; its unit comes from [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let (_, unit) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.put(name, value, unit);
    }

    /// Every per-layer metric in list order; one a workload did not
    /// report does not apply to it and reads 0.
    pub fn every_layer(self) -> Metrics {
        Metrics(
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = self.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
                    (name, value, unit)
                })
                .collect(),
        )
    }
}

/// One run's outcome: what the last stdout line reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Last-level cache size in bytes, from sysfs (0 when unknown).
pub fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let (num, mul) = match size.chars().last()? {
                'K' => (&size[..size.len() - 1], 1024),
                'M' => (&size[..size.len() - 1], 1024 * 1024),
                _ => (size, 1),
            };
            num.parse::<usize>().ok().map(|n| n * mul)
        })
        .max()
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Largest footprint the triad probe allocates: on hosts whose LLC is
/// a share of a large socket cache, 4× LLC would be gigabytes.
const TRIAD_CAP_BYTES: usize = 768 << 20;

/// STREAM-style triad `a = b + s·c` over three f64 arrays whose total
/// is 4× the LLC (capped at [`TRIAD_CAP_BYTES`]); best of five sweeps,
/// counting 24 bytes per element (two reads, one write). GB/s.
pub fn triad_gbs() -> f64 {
    let total = (4 * llc_bytes()).clamp(96 << 20, TRIAD_CAP_BYTES);
    let len = total / 3 / 8;
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let mut a = vec![0.0f64; len];
    let mut best = f64::MAX;
    for rep in 0..5 {
        let s = 3.0 + rep as f64;
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        std::hint::black_box(&mut a);
        best = best.min(secs(t));
    }
    assert_eq!(a[len / 2], 1.5 + 7.0 * 0.25, "triad computed");
    (24 * len) as f64 / best / 1e9
}

/// Row-compressed copy of a weight matrix, made by the benchmark
/// itself so the references share no code with the program's formats.
pub struct Csr {
    pub rows: usize,
    pub cols: usize,
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
}

impl Csr {
    pub fn from_matrix(w: &Matrix) -> Csr {
        let mut row_ptr = vec![0];
        let mut col = Vec::new();
        let mut val = Vec::new();
        for r in 0..w.rows {
            for c in 0..w.cols {
                let v = adapter::f16_to_f32(w.data[r * w.cols + c]);
                if v != 0.0 {
                    col.push(c);
                    val.push(v as f64);
                }
            }
            row_ptr.push(col.len());
        }
        Csr {
            rows: w.rows,
            cols: w.cols,
            row_ptr,
            col,
            val,
        }
    }

    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Useful flops of one product with an `n`-column operand.
    pub fn flops(&self, n: usize) -> f64 {
        2.0 * self.nnz() as f64 * n as f64
    }

    /// `self × x` in f64 (`x` row-major `cols × n`), optionally with
    /// every weight taken by absolute value.
    pub fn mul(&self, x: &[f64], n: usize, abs: bool) -> Vec<f64> {
        let mut out = vec![0.0f64; self.rows * n];
        for r in 0..self.rows {
            let acc = &mut out[r * n..(r + 1) * n];
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let w = if abs { self.val[i].abs() } else { self.val[i] };
                let xr = &x[self.col[i] * n..(self.col[i] + 1) * n];
                for (a, &xv) in acc.iter_mut().zip(xr) {
                    *a += w * xv;
                }
            }
        }
        out
    }

    /// Most nonzeros in one row (the longest accumulation chain).
    pub fn max_row_nnz(&self) -> usize {
        self.row_ptr
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

pub fn to_f64(m: &Matrix) -> Vec<f64> {
    m.data
        .iter()
        .map(|&v| adapter::f16_to_f32(v) as f64)
        .collect()
}

/// Exact reference for integer operands: every partial sum is an
/// integer below 2^24, so the f32 result is the same in any order.
pub fn exact_product(w: &Csr, b: &Matrix) -> Vec<f32> {
    let out = w.mul(&to_f64(b), b.cols, false);
    assert!(
        out.iter().all(|v| v.abs() < (1u64 << 24) as f64),
        "operands stay exact in f32"
    );
    out.into_iter().map(|v| v as f32).collect()
}

/// Bitwise-equal comparison (`-0.0 == 0.0` allowed).
pub fn same(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a == b)
}

/// Simulator properties of one kernel: its duration is at least the
/// roofline lower bound on the modelled device (useful flops at the
/// peak issue rate, or the compulsory bytes — every nonzero of A read
/// once as f16, every f16 element of C written once — at the DRAM
/// rate). Returns the violation, if any.
pub fn check_roofline(stats: &KernelStats, w: &Csr, n: usize, spec: &GpuSpec) -> Option<String> {
    let compute = w.flops(n) / adapter::peak_flops_per_cycle(spec);
    let bytes = (2 * w.nnz() + 2 * w.rows * n) as f64;
    let memory = bytes / adapter::dram_bytes_per_cycle(spec);
    let bound = compute.max(memory);
    (stats.duration_cycles < bound).then(|| {
        format!(
            "simulated {} cycles below the roofline bound {bound:.1} ({}x{} at N={n})",
            stats.duration_cycles, w.rows, w.cols
        )
    })
}
